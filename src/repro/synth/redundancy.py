"""SAT-based redundancy removal (don't-care-aware simplification).

The paper's postprocessing cites don't-care-based optimization [19];
this pass captures its core move at prototype scale: a node may be
replaced by one of its own fanins whenever the difference is never
observable at any primary output (an observability don't-care).  fraig
cannot find these — the node and its fanin are *not* equivalent as
functions; only the surrounding logic masks the difference.

Candidates are screened by random simulation of the primary outputs and
confirmed by a bounded SAT miter, then applied by substitution rebuild.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.aig.aig import Aig, lit_compl, lit_node
from repro.sat.equivalence import find_counterexample
from repro.sat.solver import SolveResult
from repro.synth.rebuild import copy_pos, identity_map, map_lit


def remove_redundancies(aig: Aig,
                        rng: Optional[np.random.Generator] = None,
                        sim_words: int = 16,
                        max_conflicts: int = 2000,
                        max_rounds: int = 4,
                        max_checks_per_round: int = 64) -> Aig:
    """Iteratively substitute nodes by fanins when outputs cannot tell."""
    if rng is None:
        rng = np.random.default_rng(2019)
    current = aig
    for _ in range(max_rounds):
        replaced = _one_round(current, rng, sim_words, max_conflicts,
                              max_checks_per_round)
        if replaced is None:
            return current
        current = replaced
    return current


def _one_round(aig: Aig, rng: np.random.Generator, sim_words: int,
               max_conflicts: int, max_checks: int) -> Optional[Aig]:
    """Find and apply one batch of confirmed substitutions, or None."""
    if aig.num_pis == 0 or not aig.po_lits:
        return None
    pi_words = rng.integers(0, 2 ** 64, size=(aig.num_pis, sim_words),
                            dtype=np.uint64)
    values = aig.simulate_words(pi_words)
    po_sig = _po_signature(aig, values)
    reachable = sorted(aig.reachable())
    checks = 0
    # Try high nodes first: killing late logic frees more fanin cone.
    for n in reversed(reachable):
        f0, f1 = aig.fanins(n)
        for keep in (f1, f0):
            if checks >= max_checks:
                return None
            candidate_sub = {n: keep}
            sig = _po_signature_with_sub(aig, pi_words, candidate_sub)
            if not _sig_equal(po_sig, sig):
                continue
            checks += 1
            substituted = _substitute(aig, n, keep)
            verdict, _ = find_counterexample(
                aig, substituted, max_conflicts=max_conflicts)
            if verdict is SolveResult.UNSAT:
                return substituted
    return None


def _po_signature(aig: Aig, values) -> List[bytes]:
    out = []
    for po in aig.po_lits:
        v = values[lit_node(po)]
        out.append((~v if lit_compl(po) else v).tobytes())
    return out


def _po_signature_with_sub(aig: Aig, pi_words: np.ndarray,
                           sub: Dict[int, int]) -> List[bytes]:
    """Output signatures of the AIG with node->fanin-literal substitutions.

    Cheap screening only: recomputes node values with the substitution
    spliced in at simulation level.
    """
    num_words = pi_words.shape[1]
    values: List[np.ndarray] = [None] * aig.num_nodes  # type: ignore
    values[0] = np.zeros(num_words, dtype=np.uint64)
    for k in range(aig.num_pis):
        values[k + 1] = pi_words[k]

    def lit_words(literal: int) -> np.ndarray:
        v = values[lit_node(literal)]
        return ~v if lit_compl(literal) else v

    for n in range(aig.num_pis + 1, aig.num_nodes):
        if n in sub:
            values[n] = lit_words(sub[n])
            continue
        f0, f1 = aig.fanins(n)
        values[n] = lit_words(f0) & lit_words(f1)
    out = []
    for po in aig.po_lits:
        out.append(lit_words(po).tobytes())
    return out


def _sig_equal(a: List[bytes], b: List[bytes]) -> bool:
    return a == b


def _substitute(aig: Aig, node: int, replacement_lit: int) -> Aig:
    """Rebuild with ``node`` replaced by ``replacement_lit``."""
    new = Aig(pi_names=list(aig.pi_names))
    lit_map = identity_map(aig, new)
    for n in sorted(aig.reachable()):
        if n == node:
            lit_map[n] = map_lit(lit_map, replacement_lit)
            continue
        f0, f1 = aig.fanins(n)
        lit_map[n] = new.and_(map_lit(lit_map, f0), map_lit(lit_map, f1))
    copy_pos(aig, new, lit_map)
    return new
