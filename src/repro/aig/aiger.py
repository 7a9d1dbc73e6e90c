"""AIGER (ASCII ``aag``) reading and writing.

AIGER is the lingua franca of AIG-based tools (ABC, model checkers,
SAT-sweeping engines); supporting it makes the learned circuits and the
mini-synthesis kit interoperable with the wider ecosystem.  Only the
combinational subset is supported — latches are rejected.
"""

from __future__ import annotations

from typing import Dict, TextIO

from repro.aig.aig import Aig, lit_compl, lit_node


def write_aag(aig: Aig, stream: TextIO) -> None:
    """Serialize as ASCII AIGER (aag), compacting away dead nodes."""
    reachable = sorted(aig.reachable())
    # Compact ids: PIs keep 1..num_pis, reachable ANDs follow.
    remap: Dict[int, int] = {0: 0}
    for k in range(1, aig.num_pis + 1):
        remap[k] = k
    next_id = aig.num_pis + 1
    for n in reachable:
        remap[n] = next_id
        next_id += 1

    def lit_of(literal: int) -> int:
        return 2 * remap[lit_node(literal)] + lit_compl(literal)

    max_var = next_id - 1
    stream.write(f"aag {max_var} {aig.num_pis} 0 {len(aig.po_lits)} "
                 f"{len(reachable)}\n")
    for k in range(1, aig.num_pis + 1):
        stream.write(f"{2 * k}\n")
    for po in aig.po_lits:
        stream.write(f"{lit_of(po)}\n")
    for n in reachable:
        f0, f1 = aig.fanins(n)
        a, b = lit_of(f0), lit_of(f1)
        if a < b:
            a, b = b, a  # AIGER wants lhs > rhs0 >= rhs1
        stream.write(f"{2 * remap[n]} {a} {b}\n")
    # Symbol table: input and output names.
    for k, name in enumerate(aig.pi_names):
        stream.write(f"i{k} {name}\n")
    for k, name in enumerate(aig.po_names):
        stream.write(f"o{k} {name}\n")
    stream.write("c\nwritten by repro\n")


def read_aag(stream: TextIO) -> Aig:
    """Parse ASCII AIGER (combinational subset)."""
    header = stream.readline().split()
    if len(header) < 6 or header[0] != "aag":
        raise ValueError("not an ASCII AIGER (aag) file")
    max_var, num_inputs, num_latches, num_outputs, num_ands = \
        (int(x) for x in header[1:6])
    if num_latches:
        raise ValueError("sequential AIGER is not supported")
    input_lits = [int(stream.readline()) for _ in range(num_inputs)]
    output_lits = [int(stream.readline()) for _ in range(num_outputs)]
    and_rows = []
    for _ in range(num_ands):
        parts = stream.readline().split()
        if len(parts) != 3:
            raise ValueError("malformed AND row")
        and_rows.append(tuple(int(x) for x in parts))
    # Symbol table (optional).
    pi_names = [f"i{k}" for k in range(num_inputs)]
    po_names = [f"o{k}" for k in range(num_outputs)]
    for line in stream:
        line = line.rstrip("\n")
        if line == "c":
            break
        if line.startswith("i") or line.startswith("o"):
            kind = line[0]
            rest = line[1:].split(" ", 1)
            if len(rest) == 2 and rest[0].isdigit():
                idx = int(rest[0])
                if kind == "i" and idx < num_inputs:
                    pi_names[idx] = rest[1]
                elif kind == "o" and idx < num_outputs:
                    po_names[idx] = rest[1]

    aig = Aig(pi_names=pi_names)
    # AIGER variable -> our literal.
    var_lit: Dict[int, int] = {0: 0}
    for k, lit in enumerate(input_lits):
        if lit % 2 or lit // 2 > max_var:
            raise ValueError(f"bad input literal {lit}")
        var_lit[lit // 2] = aig.pi_lit(k)

    def resolve(literal: int) -> int:
        base = var_lit[literal // 2]
        return base ^ (literal & 1)

    # AND rows may reference only earlier-defined vars in valid files;
    # resolve iteratively to tolerate unordered rows.
    pending = list(and_rows)
    while pending:
        progressed = False
        remaining = []
        for lhs, rhs0, rhs1 in pending:
            if rhs0 // 2 in var_lit and rhs1 // 2 in var_lit:
                var_lit[lhs // 2] = aig.and_(resolve(rhs0), resolve(rhs1))
                progressed = True
            else:
                remaining.append((lhs, rhs0, rhs1))
        if not progressed:
            raise ValueError("cyclic or dangling AND definitions")
        pending = remaining
    for lit, name in zip(output_lits, po_names):
        if lit // 2 not in var_lit:
            raise ValueError(f"undefined output literal {lit}")
        aig.add_po(resolve(lit), name)
    return aig
