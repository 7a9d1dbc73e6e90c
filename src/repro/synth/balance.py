"""AND-tree balancing (ABC's ``balance``).

Collects maximal multi-input conjunctions along non-complemented AND edges
and rebuilds them as balanced trees, reducing depth and — through strashing
of the sorted operand list — often size.
"""

from __future__ import annotations

from typing import List

from repro.aig.aig import Aig, lit_compl, lit_node
from repro.synth.rebuild import copy_pos, identity_map, map_lit


def balance(aig: Aig) -> Aig:
    """Return a balanced, strashed copy."""
    new = Aig(pi_names=list(aig.pi_names))
    lit_map = identity_map(aig, new)
    refs = aig.ref_counts()
    for n in sorted(aig.reachable()):
        leaves = _collect_and_leaves(aig, n, refs)
        mapped = sorted(map_lit(lit_map, l) for l in leaves)
        lit_map[n] = new.and_many(mapped)
    copy_pos(aig, new, lit_map)
    return new


def _collect_and_leaves(aig: Aig, node: int, refs: List[int]) -> List[int]:
    """Leaves of the maximal single-fanout AND tree rooted at ``node``.

    Only non-complemented edges to single-fanout AND nodes are flattened:
    a multiply referenced subtree stays shared rather than duplicated.
    """
    leaves: List[int] = []
    stack = [aig.fanins(node)[0], aig.fanins(node)[1]]
    while stack:
        literal = stack.pop()
        child = lit_node(literal)
        if (not lit_compl(literal) and aig.is_and(child)
                and refs[child] <= 1):
            f0, f1 = aig.fanins(child)
            stack.append(f0)
            stack.append(f1)
        else:
            leaves.append(literal)
    return leaves
