"""Global collapse of small-support output cones (ABC's ``collapse``).

Each PO whose structural support fits under ``max_support`` is tabulated
exhaustively, minimized two-level (onset or offset, whichever factors
smaller) and rebuilt from scratch.  This is the "heavy" command the paper
runs once during postprocessing.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.aig.aig import Aig, lit_node, lit_not
from repro.synth.rebuild import (best_two_level, build_factored,
                                 cut_truthtable, identity_map, map_lit)


def collapse(aig: Aig, max_support: int = 14) -> Aig:
    """Return a copy with every small-support PO cone collapsed.

    POs with wider support are translated structurally; the result is kept
    by the scripts layer only if globally smaller, so collapse is always
    safe to attempt.
    """
    new = Aig(pi_names=list(aig.pi_names))
    lit_map = identity_map(aig, new)
    rebuilt: Dict[int, int] = {}
    pending: List[int] = []
    for po_index, po in enumerate(aig.po_lits):
        support = _structural_support(aig, lit_node(po))
        if 0 < len(support) <= max_support:
            pending.append(po_index)
        elif len(support) == 0:
            # Constant PO: value = simulate on the all-zero assignment.
            pending.append(po_index)
    # Translate everything structurally first (shared logic stays shared).
    for n in sorted(aig.reachable()):
        f0, f1 = aig.fanins(n)
        lit_map[n] = new.and_(map_lit(lit_map, f0), map_lit(lit_map, f1))
    po_lits = [map_lit(lit_map, po) for po in aig.po_lits]
    for po_index in pending:
        po = aig.po_lits[po_index]
        support = _structural_support(aig, lit_node(po))
        if not support:
            po_lits[po_index] = _constant_value(aig, po)
            continue
        table = cut_truthtable(aig, po, support)
        impl = best_two_level(table, max_cubes=512)
        if impl is None:
            continue  # keep the structural translation for this PO
        expr, complemented = impl
        leaf_lits = [new.pi_lit(s - 1) for s in support]
        candidate = build_factored(new, expr, leaf_lits)
        if complemented:
            candidate = lit_not(candidate)
        po_lits[po_index] = candidate
    for name, literal in zip(aig.po_names, po_lits):
        new.add_po(literal, name)
    return new


def _structural_support(aig: Aig, root: int) -> List[int]:
    seen: Set[int] = set()
    pis: Set[int] = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if aig.is_pi(n):
            pis.add(n)
        elif aig.is_and(n):
            f0, f1 = aig.fanins(n)
            stack.append(lit_node(f0))
            stack.append(lit_node(f1))
    return sorted(pis)


def _constant_value(aig: Aig, po_lit: int) -> int:
    import numpy as np

    zeros = np.zeros((aig.num_pis, 1), dtype=np.uint64)
    values = aig.simulate_words(zeros)
    word = values[lit_node(po_lit)][0]
    bit = int(word) & 1
    if po_lit & 1:
        bit ^= 1
    return 1 if bit else 0
