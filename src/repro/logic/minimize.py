"""Two-level minimization: exact Quine-McCluskey and heuristic espresso-lite.

The FBDT learner (Sec. IV-D) emits both the onset and the offset leaf cubes,
which is exactly the input the classic cover-based espresso loop wants: the
offset cover lets EXPAND check literal removals exactly without building a
complement.  Quine-McCluskey is provided as the exact reference for small
functions and for the "conquering small functions" trick.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.logic.cube import Cube
from repro.logic.sop import Sop
from repro.logic.truthtable import TruthTable
from repro.obs import context as obs


# -- Quine-McCluskey ----------------------------------------------------------


def prime_implicants(onset: Sequence[int], dcset: Sequence[int],
                     num_vars: int) -> List[Cube]:
    """All prime implicants of (onset, don't-care set) by iterative merging."""
    # A term is (value_bits, dash_mask); merge terms differing in one bit.
    terms: Set[Tuple[int, int]] = {(m, 0) for m in set(onset) | set(dcset)}
    primes: Set[Tuple[int, int]] = set()
    while terms:
        merged: Set[Tuple[int, int]] = set()
        used: Set[Tuple[int, int]] = set()
        by_mask: Dict[int, List[Tuple[int, int]]] = {}
        for t in terms:
            by_mask.setdefault(t[1], []).append(t)
        if obs.profiling():
            # Nominal merge work this round: every (term, free-bit)
            # neighbour probe, independent of set-iteration order.
            obs.pcount("minimize.qm_implicant_pairs",
                       sum(len(group) * (num_vars - bin(mask).count("1"))
                           for mask, group in by_mask.items()))
        for mask, group in by_mask.items():
            group_set = set(group)
            for value, _ in group:
                for v in range(num_vars):
                    bit = 1 << v
                    if bit & mask:
                        continue
                    other = (value ^ bit, mask)
                    if other in group_set and value & bit == 0:
                        merged.add((value, mask | bit))
                        used.add((value, mask))
                        used.add(other)
        primes |= terms - used
        terms = merged
    return [_term_to_cube(value, mask, num_vars) for value, mask in primes]


def _term_to_cube(value: int, dash_mask: int, num_vars: int) -> Cube:
    lits = {}
    for v in range(num_vars):
        if not (dash_mask >> v) & 1:
            lits[v] = (value >> v) & 1
    return Cube(lits)


def petrick_cover(cover_table: Dict[int, List[int]], num_primes: int,
                  max_nodes: int = 200000) -> Optional[List[int]]:
    """Exact minimum set cover by branch-and-bound (Petrick's method).

    ``cover_table`` maps each onset minterm to the prime indices covering
    it.  Returns the indices of a minimum cover, or None when the search
    exceeds ``max_nodes`` (caller falls back to greedy).
    """
    minterms = sorted(cover_table, key=lambda m: len(cover_table[m]))
    best: Optional[List[int]] = None
    nodes = 0

    def covers(chosen: set, minterm: int) -> bool:
        return any(p in chosen for p in cover_table[minterm])

    def search(index: int, chosen: set) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > max_nodes:
            raise _PetrickBudget()
        if best is not None and len(chosen) >= len(best):
            return  # bound
        while index < len(minterms) and covers(chosen, minterms[index]):
            index += 1
        if index == len(minterms):
            best = sorted(chosen)
            return
        # Branch on every prime covering the first uncovered minterm.
        for p in cover_table[minterms[index]]:
            chosen.add(p)
            search(index + 1, chosen)
            chosen.remove(p)

    try:
        search(0, set())
    except _PetrickBudget:
        return None
    return best


class _PetrickBudget(Exception):
    """Internal: Petrick search exceeded its node budget."""


def quine_mccluskey(onset: Sequence[int], num_vars: int,
                    dcset: Sequence[int] = (),
                    exact_cover: bool = False) -> Sop:
    """Minimum-cube cover from prime implicants.

    Default covering is essential-primes + greedy (near-minimal, fast);
    ``exact_cover=True`` runs Petrick's branch-and-bound for a provably
    minimum number of cubes (exponential; small inputs only).
    """
    onset = sorted(set(onset))
    if not onset:
        return Sop.zero(num_vars)
    obs.pcount("minimize.qm_calls")
    primes = prime_implicants(onset, dcset, num_vars)
    # Cover table: which primes cover which onset minterm.
    cover: Dict[int, List[int]] = {m: [] for m in onset}
    for idx, prime in enumerate(primes):
        for m in onset:
            if _cube_covers_minterm(prime, m):
                cover[m].append(idx)
    if exact_cover:
        solution = petrick_cover(cover, len(primes))
        if solution is not None:
            return Sop([primes[i] for i in solution], num_vars).absorb()
    chosen: Set[int] = set()
    uncovered = set(onset)
    # Essential primes first.
    for m, idxs in cover.items():
        if len(idxs) == 1:
            chosen.add(idxs[0])
    for idx in chosen:
        uncovered -= {m for m in uncovered if _cube_covers_minterm(primes[idx], m)}
    # Greedy set cover for the rest (ties by fewer literals).
    while uncovered:
        best = max(
            range(len(primes)),
            key=lambda i: (sum(1 for m in uncovered
                               if _cube_covers_minterm(primes[i], m)),
                           -len(primes[i])))
        gained = {m for m in uncovered if _cube_covers_minterm(primes[best], m)}
        if not gained:
            raise RuntimeError("prime table failed to cover the onset")
        chosen.add(best)
        uncovered -= gained
    return Sop([primes[i] for i in sorted(chosen)], num_vars).absorb()


def _cube_covers_minterm(cube: Cube, minterm: int) -> bool:
    for var, phase in cube.literals():
        if (minterm >> var) & 1 != phase:
            return False
    return True


# -- espresso-lite -----------------------------------------------------------


def espresso_lite(onset: Sop, offset: Sop,
                  max_iterations: int = 4) -> Sop:
    """Heuristic EXPAND / IRREDUNDANT / (REDUCE) loop on a cover pair.

    ``onset`` and ``offset`` must be disjoint covers whose union need not be
    complete — the gap is treated as don't-care, which matches the FBDT
    output where undecided subspaces may remain at timeout.
    """
    if onset.num_vars != offset.num_vars:
        raise ValueError("onset/offset over different universes")
    cover = onset.absorb()
    obs.pcount("minimize.espresso_calls")
    obs.pcount("minimize.cover_cubes_in", len(cover))
    best = cover
    for iteration in range(max_iterations):
        obs.pcount("minimize.espresso_iterations")
        expanded = _expand(cover, offset)
        irredundant = _irredundant(expanded, onset)
        if _cost(irredundant) < _cost(best):
            best = irredundant
        reduced = _reduce(irredundant, onset)
        if reduced == cover and iteration > 0:
            break
        cover = reduced
    obs.pcount("minimize.cover_cubes_out", len(best))
    return best


def _cost(cover: Sop) -> Tuple[int, int]:
    return (len(cover), cover.literal_count())


def _expand(cover: Sop, offset: Sop) -> Sop:
    """Remove literals from each cube while staying disjoint from offset."""
    out: List[Cube] = []
    for cube in sorted(cover.cubes, key=len, reverse=True):
        expanded = cube
        # Try dropping literals one at a time, most-shared variables last.
        for var, phase in list(expanded.literals()):
            candidate = expanded.without(var)
            if not offset.intersects_cube(candidate):
                expanded = candidate
        out.append(expanded)
    return Sop(out, cover.num_vars).absorb()


def _irredundant(cover: Sop, onset: Sop) -> Sop:
    """Drop cubes covered by the union of the remaining cubes."""
    cubes = list(cover.cubes)
    # Try removing smaller cubes first.
    for cube in sorted(cubes, key=len, reverse=True):
        rest = [c for c in cubes if c is not cube]
        if not rest:
            continue
        if Sop(rest, cover.num_vars).covers_cube(cube):
            cubes = rest
    return Sop(cubes, cover.num_vars)


def _reduce(cover: Sop, onset: Sop) -> Sop:
    """Shrink each cube toward the onset it uniquely covers (perturbation)."""
    out: List[Cube] = []
    cubes = list(cover.cubes)
    for i, cube in enumerate(cubes):
        rest = Sop(cubes[:i] + cubes[i + 1:] + out, cover.num_vars)
        care, value = cube.masks()
        for var in range(cover.num_vars):
            bit = 1 << var
            if care & bit:
                continue
            for phase in (0, 1):
                # Keep the shrink to var=phase only if the dropped half
                # (var=1-phase) is still covered by other cubes or lies
                # outside the onset entirely.
                dropped = value if phase else value | bit
                if not onset.intersects(care | bit, dropped) \
                        or rest.covers(care | bit, dropped):
                    care |= bit
                    if phase:
                        value |= bit
                    break
        out.append(Cube.from_masks(care, value))
    return Sop(out, cover.num_vars).absorb()


def minimize_from_leaves(onset: Sop, offset: Sop) -> Sop:
    """Full post-FBDT two-level cleanup: sibling merge then espresso-lite."""
    merged_on = onset.merge_siblings()
    merged_off = offset.merge_siblings()
    return espresso_lite(merged_on, merged_off)


def exact_from_truthtable(table: TruthTable) -> Sop:
    """Exact minimized cover of a small truth table (QM)."""
    return quine_mccluskey(table.minterms(), table.num_vars)
