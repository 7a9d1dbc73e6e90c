"""Seeded random logic cones and mutations.

The ECO and NEQ benchmark categories are built from these: random gate
cones stand in for the industrial "logic difference" and "non-equivalent
cone" circuits of the contest, with support width and cone size as the
difficulty knobs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.network.netlist import GateOp, Netlist

_CONE_OPS = [GateOp.AND, GateOp.OR, GateOp.XOR, GateOp.NAND, GateOp.NOR]
# XOR-rich cones are much harder for cube-based learners — used for the
# hard NEQ cases.
_XOR_HEAVY_OPS = [GateOp.XOR, GateOp.XNOR, GateOp.AND, GateOp.OR]


def random_cone(net: Netlist, rng: np.random.Generator,
                support: Sequence[int], num_gates: int,
                xor_heavy: bool = False) -> int:
    """Grow a random cone over ``support`` nodes; returns the root node.

    Gates pick two distinct earlier signals, biased toward recent ones so
    the cone is connected and every support node tends to be used.
    """
    if len(support) < 2:
        raise ValueError("need at least two support nodes")
    ops = _XOR_HEAVY_OPS if xor_heavy else _CONE_OPS
    signals: List[int] = list(support)
    # First layer: pair up all support nodes so each one matters.
    order = list(rng.permutation(len(support)))
    for i in range(0, len(order) - 1, 2):
        op = ops[rng.integers(len(ops))]
        a, b = signals[order[i]], signals[order[i + 1]]
        if rng.random() < 0.3:
            a = net.add_not(a)
        signals.append(net.add_gate(op, a, b))
    used = set()
    for _ in range(max(0, num_gates - len(order) // 2)):
        op = ops[rng.integers(len(ops))]
        # Bias toward recent signals for depth.
        idx_a = _biased_index(rng, len(signals))
        idx_b = _biased_index(rng, len(signals))
        if idx_a == idx_b:
            idx_b = (idx_b + 1) % len(signals)
        a, b = signals[idx_a], signals[idx_b]
        used.add(a)
        used.add(b)
        if rng.random() < 0.2:
            a = net.add_not(a)
        signals.append(net.add_gate(op, a, b))
    # Merge every dangling intermediate into the root so the whole cone
    # contributes to the function (no dead logic).
    root = signals[-1]
    dangling = [s for s in signals[len(support):-1] if s not in used]
    for s in dangling:
        op = ops[rng.integers(len(ops))]
        root = net.add_gate(op, root, s)
    return root


def _biased_index(rng: np.random.Generator, n: int) -> int:
    """Index in [0, n) biased toward the high (recent) end."""
    u = rng.random()
    return min(n - 1, int(n * (u ** 0.5)))


def mutated_copy(net: Netlist, rng: np.random.Generator,
                 num_mutations: int = 1) -> Netlist:
    """Copy a netlist and perturb a few gates (op flips / input rewires).

    This produces the "revised" circuit of an ECO pair or the second,
    non-equivalent cone of an NEQ miter.
    """
    if any(g.op is GateOp.PI for g in net.gates[net.num_pis:]):
        raise ValueError("mutated_copy requires PIs as an id prefix")
    out = Netlist(net.name + "_mut")
    for name in net.pi_names:
        out.add_pi(name)
    gate_indices = [i for i, g in enumerate(net.gates)
                    if g.op.arity == 2]
    if not gate_indices:
        raise ValueError("nothing to mutate")
    targets = set(rng.choice(gate_indices,
                             size=min(num_mutations, len(gate_indices)),
                             replace=False).tolist())
    for i, gate in enumerate(net.gates):
        if gate.op is GateOp.PI:
            continue
        op = gate.op
        fanins = list(gate.fanins)
        if i in targets:
            choice = rng.random()
            if choice < 0.5:
                alternatives = [o for o in _CONE_OPS if o is not op]
                op = alternatives[rng.integers(len(alternatives))]
            elif fanins:
                # Rewire one fanin to a random earlier signal.
                slot = int(rng.integers(len(fanins)))
                fanins[slot] = int(rng.integers(i))
        out.add_gate(op, *fanins)
    for name, node in zip(net.po_names, net.po_nodes):
        out.add_po(name, node)
    return out


def random_support(rng: np.random.Generator, candidates: Sequence[int],
                   size: int) -> List[int]:
    """Pick a random support subset of the candidate nodes."""
    size = min(size, len(candidates))
    return sorted(rng.choice(candidates, size=size, replace=False).tolist())
