"""K-feasible cut enumeration with cut truth tables.

Priority-cut enumeration in the style of ABC's cut manager: each node keeps
at most ``max_cuts`` cuts of at most ``k`` leaves, merged bottom-up from the
fanin cut sets.  Each cut carries its local truth table (as a Python int
over ``2^k`` bits in leaf order), which is what the rewrite pass resynthesizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.aig.aig import Aig, lit_compl, lit_node

# Truth tables of the k projection variables, over 2^k bits, for k <= 6.
_PROJ = [
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
]


def projection(var: int, k: int) -> int:
    """Truth table of leaf variable ``var`` over ``2^k`` bits."""
    mask = (1 << (1 << k)) - 1
    return _PROJ[var] & mask


@dataclass(frozen=True)
class Cut:
    """A cut: sorted leaf nodes plus the root function over the leaves."""

    leaves: Tuple[int, ...]
    table: int  # truth table over 2^len(leaves) bits, leaf order = position

    def __len__(self) -> int:
        return len(self.leaves)


_EXPAND_CACHE: Dict[Tuple[int, Tuple[int, ...], int], int] = {}


def _expand_table(table: int, old_leaves: Tuple[int, ...],
                  new_leaves: Tuple[int, ...], k: int) -> int:
    """Re-express a table over a superset leaf list (memoized).

    The cache key uses only the *positions* of the old leaves within the
    new leaf list, so structurally different cuts share entries.
    """
    if old_leaves == new_leaves:
        return table
    pos_map = {leaf: i for i, leaf in enumerate(new_leaves)}
    positions = tuple(pos_map[leaf] for leaf in old_leaves)
    key = (table, positions, len(new_leaves))
    cached = _EXPAND_CACHE.get(key)
    if cached is not None:
        return cached
    bits = 1 << len(new_leaves)
    out = 0
    for m in range(bits):
        old_m = 0
        for i, p in enumerate(positions):
            if (m >> p) & 1:
                old_m |= 1 << i
        if (table >> old_m) & 1:
            out |= 1 << m
    if len(_EXPAND_CACHE) < 1 << 18:
        _EXPAND_CACHE[key] = out
    return out


def enumerate_cuts(aig: Aig, k: int = 4,
                   max_cuts: int = 8) -> Dict[int, List[Cut]]:
    """Cut sets for every reachable node (plus trivial cuts for PIs)."""
    if k > 6:
        raise ValueError("cut size limited to 6 (single-word tables)")
    cuts: Dict[int, List[Cut]] = {}
    cuts[0] = [Cut((), 0)]
    for p in range(1, aig.num_pis + 1):
        cuts[p] = [Cut((p,), projection(0, 1))]
    full_mask = (1 << (1 << k)) - 1
    for n in sorted(aig.reachable()):
        f0, f1 = aig.fanins(n)
        n0, n1 = lit_node(f0), lit_node(f1)
        c0, c1 = lit_compl(f0), lit_compl(f1)
        merged: Dict[Tuple[int, ...], Cut] = {}
        for cut_a in cuts.get(n0, [Cut((n0,), projection(0, 1))]):
            for cut_b in cuts.get(n1, [Cut((n1,), projection(0, 1))]):
                leaves = tuple(sorted(set(cut_a.leaves) | set(cut_b.leaves)))
                if len(leaves) > k:
                    continue
                kk = len(leaves)
                mask = (1 << (1 << kk)) - 1
                ta = _expand_table(cut_a.table, cut_a.leaves, leaves, kk)
                tb = _expand_table(cut_b.table, cut_b.leaves, leaves, kk)
                if c0:
                    ta = ~ta & mask
                if c1:
                    tb = ~tb & mask
                table = ta & tb
                if leaves not in merged:
                    merged[leaves] = Cut(leaves, table)
        # The trivial cut of the node itself.
        ordered = sorted(merged.values(), key=lambda c: len(c))
        ordered = _filter_dominated(ordered)[:max_cuts - 1]
        ordered.append(Cut((n,), projection(0, 1)))
        cuts[n] = ordered
    return cuts


def _filter_dominated(cut_list: List[Cut]) -> List[Cut]:
    """Drop cuts whose leaf set is a superset of another cut's."""
    kept: List[Cut] = []
    for cut in cut_list:
        leaf_set = set(cut.leaves)
        if any(set(k.leaves) <= leaf_set and k.leaves != cut.leaves
               for k in kept):
            continue
        kept.append(cut)
    return kept
