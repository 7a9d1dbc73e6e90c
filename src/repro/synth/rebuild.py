"""Shared machinery for rebuild-style AIG passes.

All our passes are append-only rebuilds: walk the old AIG in topological
order, translate each node into a fresh structurally hashed AIG (possibly
through a smarter implementation), and let final PO-reachability drop the
garbage.  Structural hashing makes the rebuild itself a cleanup (strash).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.aig.aig import Aig, lit_compl, lit_node, lit_not
from repro.logic.factor import FactoredNode, factor
from repro.logic.minimize import quine_mccluskey
from repro.logic.truthtable import TruthTable


def copy_strash(aig: Aig) -> Aig:
    """Plain rebuild: strash + dead-node removal."""
    new = Aig(pi_names=list(aig.pi_names))
    lit_map = identity_map(aig, new)
    for n in sorted(aig.reachable()):
        f0, f1 = aig.fanins(n)
        lit_map[n] = new.and_(map_lit(lit_map, f0), map_lit(lit_map, f1))
    copy_pos(aig, new, lit_map)
    return new


def identity_map(old: Aig, new: Aig) -> Dict[int, int]:
    """Initial node->literal map covering constant and PIs."""
    if old.num_pis != new.num_pis:
        raise ValueError("PI count mismatch")
    lit_map = {0: 0}
    for k in range(old.num_pis):
        lit_map[k + 1] = new.pi_lit(k)
    return lit_map


def map_lit(lit_map: Dict[int, int], literal: int) -> int:
    mapped = lit_map[lit_node(literal)]
    return lit_not(mapped) if lit_compl(literal) else mapped


def copy_pos(old: Aig, new: Aig, lit_map: Dict[int, int]) -> None:
    for name, po in zip(old.po_names, old.po_lits):
        new.add_po(map_lit(lit_map, po), name)


def build_factored(aig: Aig, node: FactoredNode,
                   leaf_lits: Sequence[int]) -> int:
    """Instantiate a factored expression; leaf variable i -> leaf_lits[i]."""
    if node.kind == "const0":
        return 0
    if node.kind == "const1":
        return 1
    if node.kind == "lit":
        base = leaf_lits[node.var]
        return base if node.phase else lit_not(base)
    child_lits = [build_factored(aig, c, leaf_lits) for c in node.children]
    if node.kind == "and":
        return aig.and_many(child_lits)
    return aig.or_many(child_lits)


def best_two_level(table: TruthTable, exact_limit: int = 6,
                   max_cubes: Optional[int] = None
                   ) -> Optional[Tuple[FactoredNode, bool]]:
    """Minimized, factored implementation of a small truth table.

    Tries both the onset and the offset cover (the paper's trick 2 applied
    at synthesis time) and returns ``(expression, complemented)`` where
    ``complemented`` says the expression realizes the complement.  Returns
    None when both covers blow past ``max_cubes`` (the function is not
    two-level-friendly and resynthesis would not pay off).
    """
    from repro.logic.truthtable import IsopOverflow

    candidates = []
    for complemented, tt in ((False, table), (True, ~table)):
        try:
            if tt.num_vars <= exact_limit:
                sop = quine_mccluskey(tt.minterms(), tt.num_vars)
            else:
                sop = tt.isop(max_cubes=max_cubes)
        except IsopOverflow:
            continue
        expr = factor(sop)
        candidates.append((expr.literal_count(), complemented, expr))
    if not candidates:
        return None
    candidates.sort(key=lambda c: c[0])
    _, complemented, expr = candidates[0]
    return expr, complemented


def cone_nodes(aig: Aig, root: int, leaves: Set[int]) -> List[int]:
    """AND nodes strictly inside the (root, leaves) cone, topo-ordered."""
    inside: Set[int] = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if n in leaves or n in inside or not aig.is_and(n):
            continue
        inside.add(n)
        f0, f1 = aig.fanins(n)
        stack.append(lit_node(f0))
        stack.append(lit_node(f1))
    return sorted(inside)


def cut_truthtable(aig: Aig, root_lit: int, leaves: Sequence[int]) -> TruthTable:
    """Truth table of ``root_lit`` as a function of the cut ``leaves``.

    Simulates the cone on all ``2^k`` leaf assignments; leaves may be any
    AIG nodes (PIs or internal), ``k`` up to ~14.
    """
    k = len(leaves)
    if k > 16:
        raise ValueError("cut too wide for exhaustive tabulation")
    num_bits = 1 << k
    num_words = max(1, num_bits >> 6)
    values: Dict[int, np.ndarray] = {}
    for i, leaf in enumerate(leaves):
        tt = TruthTable.variable(i, k)
        words = tt.words
        if words.shape[0] != num_words:  # k < 6 -> single masked word
            words = np.array([tt.words[0]], dtype=np.uint64)
        values[leaf] = words
    values[0] = np.zeros(num_words, dtype=np.uint64)
    order = cone_nodes(aig, lit_node(root_lit), set(leaves))
    for n in order:
        f0, f1 = aig.fanins(n)
        a = _value_of(values, f0)
        b = _value_of(values, f1)
        values[n] = a & b
    root_words = _value_of(values, root_lit)
    return TruthTable(k, root_words)


def _value_of(values: Dict[int, np.ndarray], literal: int) -> np.ndarray:
    v = values[lit_node(literal)]
    return ~v if lit_compl(literal) else v
