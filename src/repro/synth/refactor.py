"""Large-cut cone resynthesis (ABC's ``refactor``).

Where ``rewrite`` works on enumerated 4-cuts, refactor greedily grows one
larger reconvergence-driven cut (up to ``max_leaves`` inputs) per node,
tabulates the cone function exhaustively, minimizes it two-level and
re-instantiates the quick-factored form when that is cheaper than the
direct translation.
"""

from __future__ import annotations

from typing import List, Set

from repro.aig.aig import Aig, lit_node, lit_not
from repro.synth.rebuild import (best_two_level, build_factored, copy_pos,
                                 cut_truthtable, identity_map, map_lit)


def refactor(aig: Aig, max_leaves: int = 10,
             min_cone: int = 3) -> Aig:
    """Return a refactored, strashed copy."""
    new = Aig(pi_names=list(aig.pi_names))
    lit_map = identity_map(aig, new)
    refs = aig.ref_counts()
    for n in sorted(aig.reachable()):
        f0, f1 = aig.fanins(n)
        before = new.num_nodes
        direct = new.and_(map_lit(lit_map, f0), map_lit(lit_map, f1))
        direct_cost = new.num_nodes - before
        lit_map[n] = direct
        if direct_cost == 0:
            continue
        leaves = _grow_cut(aig, n, max_leaves, refs)
        if len(leaves) < 2 or len(leaves) > max_leaves:
            continue
        cone = _cone_size(aig, n, leaves)
        if cone < min_cone:
            continue
        table = cut_truthtable(aig, 2 * n, leaves)
        impl = best_two_level(table, max_cubes=96)
        if impl is None:
            continue
        expr, complemented = impl
        leaf_lits = [map_lit(lit_map, 2 * leaf) for leaf in leaves]
        before = new.num_nodes
        candidate = build_factored(new, expr, leaf_lits)
        if complemented:
            candidate = lit_not(candidate)
        cost = new.num_nodes - before
        if cost < direct_cost:
            lit_map[n] = candidate
    copy_pos(aig, new, lit_map)
    return new


def _grow_cut(aig: Aig, root: int, max_leaves: int,
              refs: List[int]) -> List[int]:
    """Reconvergence-driven cut growing from ``root``'s fanins."""
    f0, f1 = aig.fanins(root)
    leaves: Set[int] = {lit_node(f0), lit_node(f1)}
    changed = True
    while changed:
        changed = False
        # Prefer expanding leaves whose fanins are already (mostly) leaves.
        best_leaf = None
        best_growth = None
        for leaf in leaves:
            if not aig.is_and(leaf):
                continue
            g0, g1 = aig.fanins(leaf)
            fan = {lit_node(g0), lit_node(g1)}
            growth = len(fan - leaves) - 1
            if len(leaves) + growth > max_leaves:
                continue
            if best_growth is None or growth < best_growth:
                best_growth = growth
                best_leaf = leaf
        if best_leaf is not None and (best_growth <= 0
                                      or len(leaves) < max_leaves):
            g0, g1 = aig.fanins(best_leaf)
            leaves.discard(best_leaf)
            leaves.add(lit_node(g0))
            leaves.add(lit_node(g1))
            changed = True
    leaves.discard(0)  # constants need no leaf variable
    return sorted(leaves)


def _cone_size(aig: Aig, root: int, leaves: List[int]) -> int:
    leaf_set = set(leaves)
    seen: Set[int] = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if n in leaf_set or n in seen or not aig.is_and(n):
            continue
        seen.add(n)
        f0, f1 = aig.fanins(n)
        stack.append(lit_node(f0))
        stack.append(lit_node(f1))
    return len(seen)
