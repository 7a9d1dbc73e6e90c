"""Cut-based local rewriting (ABC's ``rewrite``).

For every AND node the pass enumerates its 4-feasible cuts, resynthesizes
each cut function through exact two-level minimization plus quick factoring,
and keeps whichever implementation — including the direct translation —
adds the fewest nodes to the rebuilt AIG.  Structural hashing makes reuse of
already-built logic free, which is where the size wins come from.

With ``exact=True`` each cut function is additionally resynthesized by
SAT-based exact synthesis, cached per NPN class — the same library trick
ABC's rewrite plays with its precomputed 4-input networks, except our
"library" is computed on demand by :mod:`repro.synth.exact`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.aig.aig import Aig, lit_not
from repro.aig.cuts import Cut, enumerate_cuts
from repro.logic.npn import npn_canon
from repro.logic.truthtable import TruthTable
from repro.synth.rebuild import (best_two_level, build_factored, copy_pos,
                                 identity_map, map_lit)

# Resynthesized implementations of cut functions, keyed by (k, table).
_SYNTH_CACHE: Dict = {}
# Exact chains per (k, NPN-representative table); None = search gave up.
_EXACT_CACHE: Dict = {}


def _implementation(k: int, table: int):
    key = (k, table)
    cached = _SYNTH_CACHE.get(key)
    if cached is None:
        tt = TruthTable(k, np.array([table], dtype=np.uint64)) if k <= 6 \
            else None
        if tt is None:
            raise ValueError("rewrite cuts are limited to 6 leaves")
        cached = best_two_level(tt)
        _SYNTH_CACHE[key] = cached
    return cached


def _exact_implementation(k: int, table: int):
    """Exact chain + the NPN transform needed to instantiate it.

    Returns ``(chain, inverse_transform)`` or None.  The chain realizes
    the NPN representative; the inverse transform says how to wire the
    concrete cut leaves into it (see :func:`_build_exact`).
    """
    from repro.synth.exact import exact_synthesis

    if k > 4:
        return None
    rep, transform = npn_canon(table, k)
    cached = _EXACT_CACHE.get((k, rep))
    if cached is None:
        chain = exact_synthesis(rep, k, max_gates=6,
                                max_conflicts_per_size=8000)
        _EXACT_CACHE[(k, rep)] = chain if chain is not None else "none"
        cached = _EXACT_CACHE[(k, rep)]
    if cached == "none":
        return None
    return cached, transform


def _build_exact(new: Aig, chain, transform, leaf_lits: List[int],
                 k: int) -> int:
    """Instantiate the representative's chain for a concrete cut.

    From ``transform.apply``: ``rep(m) = table(src) ^ out_phase`` with
    ``src[perm[t]] = m[t] ^ phase[perm[t]]``.  Solving for ``table(y)``:
    feed chain input ``t`` with leaf ``perm[t]`` xored by
    ``phase[perm[t]]`` and complement the output by ``out_phase``.
    """
    wired = [0] * k
    for t in range(k):
        src_var = transform.perm[t]
        lit = leaf_lits[src_var]
        if (transform.input_phases >> src_var) & 1:
            lit = lit_not(lit)
        wired[t] = lit
    out = chain.build_into(new, wired)
    if transform.output_phase:
        out = lit_not(out)
    return out


def rewrite(aig: Aig, k: int = 4, max_cuts: int = 8,
            exact: bool = False) -> Aig:
    """Return a rewritten, strashed copy.

    ``exact=True`` additionally tries SAT-based exact synthesis per cut
    function (NPN-cached); slower on first sight of each class, optimal
    node counts afterwards.
    """
    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    reachable = aig.reachable()
    new = Aig(pi_names=list(aig.pi_names))
    lit_map = identity_map(aig, new)
    # Cut leaves of a reachable node are in its TFI, hence reachable too,
    # so skipping unreachable nodes entirely is safe.
    for n in sorted(reachable):
        lit_map[n] = _best_node_impl(aig, new, lit_map, n, cuts[n],
                                     exact=exact)
    copy_pos(aig, new, lit_map)
    return new


def _best_node_impl(aig: Aig, new: Aig, lit_map: Dict[int, int],
                    node: int, node_cuts: List[Cut],
                    exact: bool = False) -> int:
    # Direct translation first: its cost is the baseline.
    f0, f1 = aig.fanins(node)
    before = new.num_nodes
    direct = new.and_(map_lit(lit_map, f0), map_lit(lit_map, f1))
    best_lit = direct
    best_cost = new.num_nodes - before
    if best_cost == 0:
        return best_lit  # already exists; nothing can beat free
    for cut in node_cuts:
        if len(cut.leaves) <= 1:
            continue  # trivial cut is the node itself
        leaf_lits = [map_lit(lit_map, 2 * leaf) for leaf in cut.leaves]
        impl = _implementation(len(cut.leaves), cut.table)
        if impl is not None:
            expr, complemented = impl
            before = new.num_nodes
            candidate = build_factored(new, expr, leaf_lits)
            if complemented:
                candidate = lit_not(candidate)
            cost = new.num_nodes - before
            if cost < best_cost:
                best_cost = cost
                best_lit = candidate
        if exact and best_cost > 0:
            hit = _exact_implementation(len(cut.leaves), cut.table)
            if hit is not None:
                chain, transform = hit
                before = new.num_nodes
                candidate = _build_exact(new, chain, transform, leaf_lits,
                                         len(cut.leaves))
                cost = new.num_nodes - before
                if cost < best_cost:
                    best_cost = cost
                    best_lit = candidate
        if best_cost == 0:
            break
    return best_lit
