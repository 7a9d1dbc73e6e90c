"""Structural construction helpers: SOP-to-gates and word-level blocks.

Both sides of the reproduction use these: the oracle generators build DATA /
DIAG style circuits (adders, scalers, comparators over named buses), and the
learner emits the very same blocks when a template matches (Sec. IV-B) or
when an SOP has been learned (Sec. IV-D).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.logic.cube import Cube
from repro.logic.sop import Sop
from repro.network.netlist import GateOp, Netlist


# -- balanced gate trees -----------------------------------------------------


def reduce_tree(netlist: Netlist, op: GateOp, nodes: Sequence[int],
                empty_value: Optional[int] = None) -> int:
    """Balanced reduction of ``nodes`` under a 2-input ``op``."""
    nodes = list(nodes)
    if not nodes:
        if empty_value is None:
            raise ValueError("empty reduction with no identity node")
        return empty_value
    while len(nodes) > 1:
        nxt = []
        for i in range(0, len(nodes) - 1, 2):
            nxt.append(netlist.add_gate(op, nodes[i], nodes[i + 1]))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt
    return nodes[0]


def build_cube(netlist: Netlist, cube: Cube,
               var_nodes: Sequence[int]) -> int:
    """AND tree of a cube's literals over existing nodes."""
    lits = []
    for var, phase in cube.literals():
        node = var_nodes[var]
        lits.append(node if phase else netlist.add_not(node))
    if not lits:
        return netlist.add_const1()
    return reduce_tree(netlist, GateOp.AND, lits)


def build_sop(netlist: Netlist, sop: Sop, var_nodes: Sequence[int],
              complement: bool = False) -> int:
    """OR tree over cube AND trees; optionally complemented at the root.

    ``complement=True`` realizes the paper's offset-cube alternative
    (Sec. IV-D trick 2): the SOP describes the offset, so the circuit is the
    complement of the cover.
    """
    if sop.is_zero():
        root = netlist.add_const0()
    else:
        terms = [build_cube(netlist, cube, var_nodes) for cube in sop.cubes]
        root = reduce_tree(netlist, GateOp.OR, terms)
    return netlist.add_not(root) if complement else root


def build_factored_node(netlist: Netlist, node,
                        var_nodes: Sequence[int]) -> int:
    """Instantiate a :class:`~repro.logic.factor.FactoredNode` tree."""
    if node.kind == "const0":
        return netlist.add_const0()
    if node.kind == "const1":
        return netlist.add_const1()
    if node.kind == "lit":
        base = var_nodes[node.var]
        return base if node.phase else netlist.add_not(base)
    children = [build_factored_node(netlist, c, var_nodes)
                for c in node.children]
    op = GateOp.AND if node.kind == "and" else GateOp.OR
    return reduce_tree(netlist, op, children)


def build_factored_sop(netlist: Netlist, sop: Sop,
                       var_nodes: Sequence[int],
                       complement: bool = False) -> int:
    """Quick-factor a cover and instantiate the factored form."""
    from repro.logic.factor import factor

    root = build_factored_node(netlist, factor(sop), var_nodes)
    return netlist.add_not(root) if complement else root


def netlist_from_sops(pi_names: Sequence[str],
                      outputs: Sequence[Tuple[str, Sop, bool]],
                      name: str = "learned") -> Netlist:
    """Build a complete netlist from per-output (name, cover, complement)."""
    net = Netlist(name)
    var_nodes = [net.add_pi(n) for n in pi_names]
    for po_name, sop, complemented in outputs:
        net.add_po(po_name, build_sop(net, sop, var_nodes, complemented))
    return net


# -- word-level arithmetic ----------------------------------------------------
#
# Word convention: a "word" is a list of node ids, index 0 = LSB, matching
# the name-based-grouping convention that `name[0]` is the least significant
# bit of `N_name`.


def const_word(netlist: Netlist, value: int, width: int) -> List[int]:
    zero = netlist.add_const0()
    one: Optional[int] = None
    word = []
    for i in range(width):
        if (value >> i) & 1:
            if one is None:
                one = netlist.add_not(zero)
            word.append(one)
        else:
            word.append(zero)
    return word


def full_adder(netlist: Netlist, a: int, b: int,
               cin: int) -> Tuple[int, int]:
    """Returns (sum, carry-out)."""
    axb = netlist.add_xor(a, b)
    s = netlist.add_xor(axb, cin)
    carry = netlist.add_or(netlist.add_and(a, b),
                           netlist.add_and(axb, cin))
    return s, carry


def ripple_add(netlist: Netlist, a: Sequence[int], b: Sequence[int],
               width: Optional[int] = None) -> List[int]:
    """Unsigned ripple-carry addition truncated to ``width`` bits."""
    if width is None:
        width = max(len(a), len(b)) + 1
    zero = netlist.add_const0()
    carry = zero
    out = []
    for i in range(width):
        ai = a[i] if i < len(a) else zero
        bi = b[i] if i < len(b) else zero
        s, carry = full_adder(netlist, ai, bi, carry)
        out.append(s)
    return out


def scale_word(netlist: Netlist, a: Sequence[int], factor: int,
               width: int) -> List[int]:
    """Multiply a word by a non-negative integer constant (shift-and-add)."""
    if factor < 0:
        raise ValueError("negative scale factors are not supported")
    zero = netlist.add_const0()
    acc = [zero] * width
    shift = 0
    f = factor
    while f and shift < width:
        if f & 1:
            shifted = [zero] * shift + list(a)
            acc = ripple_add(netlist, acc, shifted[:width], width)
        f >>= 1
        shift += 1
    return acc[:width]


def linear_combination(netlist: Netlist, words: Sequence[Sequence[int]],
                       coefficients: Sequence[int], constant: int,
                       width: int) -> List[int]:
    """``sum a_i * w_i + b`` truncated to ``width`` bits (the DATA template)."""
    if len(words) != len(coefficients):
        raise ValueError("one coefficient per word required")
    acc = const_word(netlist, constant % (1 << width), width)
    for word, coeff in zip(words, coefficients):
        term = scale_word(netlist, word, coeff % (1 << width), width)
        acc = ripple_add(netlist, acc, term, width)
    return acc[:width]


# -- word-level comparators -----------------------------------------------------


def equals(netlist: Netlist, a: Sequence[int], b: Sequence[int]) -> int:
    """``N_a == N_b`` over zero-extended operands."""
    zero = netlist.add_const0()
    width = max(len(a), len(b))
    bits = []
    for i in range(width):
        ai = a[i] if i < len(a) else zero
        bi = b[i] if i < len(b) else zero
        bits.append(netlist.add_gate(GateOp.XNOR, ai, bi))
    return reduce_tree(netlist, GateOp.AND, bits)


def less_than(netlist: Netlist, a: Sequence[int], b: Sequence[int]) -> int:
    """Unsigned ``N_a < N_b`` (iterative MSB-first compare)."""
    zero = netlist.add_const0()
    width = max(len(a), len(b))
    lt = zero
    eq_so_far = netlist.add_const1()
    for i in reversed(range(width)):
        ai = a[i] if i < len(a) else zero
        bi = b[i] if i < len(b) else zero
        bit_lt = netlist.add_and(netlist.add_not(ai), bi)
        lt = netlist.add_or(lt, netlist.add_and(eq_so_far, bit_lt))
        eq_so_far = netlist.add_and(
            eq_so_far, netlist.add_gate(GateOp.XNOR, ai, bi))
    return lt


def comparator(netlist: Netlist, predicate: str, a: Sequence[int],
               b: Sequence[int]) -> int:
    """Any of the six contest predicates over two words."""
    if predicate == "==":
        return equals(netlist, a, b)
    if predicate == "!=":
        return netlist.add_not(equals(netlist, a, b))
    if predicate == "<":
        return less_than(netlist, a, b)
    if predicate == ">=":
        return netlist.add_not(less_than(netlist, a, b))
    if predicate == ">":
        return less_than(netlist, b, a)
    if predicate == "<=":
        return netlist.add_not(less_than(netlist, b, a))
    raise ValueError(f"unknown predicate {predicate!r}")


def comparator_const(netlist: Netlist, predicate: str, a: Sequence[int],
                     constant: int) -> int:
    """Predicate against an integer constant."""
    width = max(len(a), max(1, constant.bit_length()))
    b = const_word(netlist, constant, width)
    return comparator(netlist, predicate, a, b)


def mux(netlist: Netlist, sel: int, when0: int, when1: int) -> int:
    """2:1 multiplexer: ``sel ? when1 : when0``."""
    return netlist.add_or(netlist.add_and(sel, when1),
                          netlist.add_and(netlist.add_not(sel), when0))
