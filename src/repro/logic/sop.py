"""Sum-of-products covers built from :class:`~repro.logic.cube.Cube`.

The FBDT learner of the paper produces its result as "the disjunction of the
cubes of the leaves" (Sec. IV-D); this module is that representation plus the
cover algebra the minimizer and the circuit builder need: evaluation,
containment/tautology checks via unate recursion, cofactors, absorption and
distance-1 merging.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.logic.cube import Cube


class Sop:
    """A disjunction of cubes over ``num_vars`` variables.

    A cover is immutable once built: ``masks`` holds each cube's
    ``(care, value)`` bitmasks (:meth:`Cube.masks`), which the exact
    containment and tautology checks run on.
    """

    __slots__ = ("cubes", "num_vars", "masks")

    def __init__(self, cubes: Iterable[Cube], num_vars: int):
        self.cubes: List[Cube] = list(cubes)
        self.num_vars = int(num_vars)
        self.masks: List[Tuple[int, int]] = [c.masks() for c in self.cubes]
        for cube, (care, _) in zip(self.cubes, self.masks):
            if care >> self.num_vars:
                raise ValueError(
                    f"cube {cube!r} references variable outside universe "
                    f"of size {self.num_vars}")

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Sop":
        """The constant-0 cover."""
        return cls([], num_vars)

    @classmethod
    def one(cls, num_vars: int) -> "Sop":
        """The constant-1 cover (a single empty cube)."""
        return cls([Cube.empty()], num_vars)

    @classmethod
    def from_minterms(cls, minterms: Iterable[int], num_vars: int) -> "Sop":
        """Cover with one full cube per integer minterm (LSB = variable 0)."""
        cubes = []
        for m in minterms:
            lits = {v: (m >> v) & 1 for v in range(num_vars)}
            cubes.append(Cube(lits))
        return cls(cubes, num_vars)

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Sop":
        """Build from PLA-style positional cube strings."""
        if not rows:
            raise ValueError("need at least one row to infer num_vars")
        num_vars = len(rows[0])
        return cls([Cube.from_string(r) for r in rows], num_vars)

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def is_zero(self) -> bool:
        return not self.cubes

    def is_one(self) -> bool:
        """Tautology check (exact, via unate recursion on bitmasks)."""
        return _tautology(self.masks)

    def literal_count(self) -> int:
        return sum(len(c) for c in self.cubes)

    def support(self) -> Set[int]:
        """Variables syntactically appearing in the cover."""
        out: Set[int] = set()
        for cube in self.cubes:
            out.update(cube.variables)
        return out

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, patterns: np.ndarray) -> np.ndarray:
        """Packed evaluation over a ``(N, num_vars)`` 0/1 array.

        Patterns are packed 64-per-word and each cube becomes an AND of
        literal word-rows (``O(literals * N / 64)`` word ops); see
        :mod:`repro.logic.bitops`.  Bit-identical to
        :meth:`evaluate_scalar`, which property tests assert.
        """
        from repro.logic import bitops

        patterns = np.asarray(patterns)
        if patterns.shape[0] == 0 or not self.cubes:
            return np.zeros(patterns.shape[0], dtype=bool)
        return bitops.sop_eval(
            patterns, [list(cube.literals()) for cube in self.cubes])

    def evaluate_scalar(self, patterns: np.ndarray) -> np.ndarray:
        """Row-major reference evaluation (one pass per cube per row)."""
        patterns = np.asarray(patterns)
        result = np.zeros(patterns.shape[0], dtype=bool)
        for cube in self.cubes:
            result |= cube.evaluate(patterns)
        return result

    def evaluate_words(self, words: np.ndarray,
                       num_rows: int) -> np.ndarray:
        """Packed evaluation over an already-packed ``(V, W)`` array."""
        from repro.logic import bitops

        if not self.cubes:
            return np.zeros(num_rows, dtype=bool)
        return bitops.sop_eval_words(
            words, num_rows,
            [list(cube.literals()) for cube in self.cubes])

    def evaluate_one(self, assignment: Sequence[int]) -> int:
        """Evaluate a single full assignment (sequence indexed by variable)."""
        arr = np.asarray(assignment, dtype=np.uint8).reshape(1, -1)
        return int(self.evaluate(arr)[0])

    # -- algebra ----------------------------------------------------------------

    def cofactor(self, var: int, phase: int) -> "Sop":
        """Shannon cofactor of the cover."""
        cubes = []
        for cube in self.cubes:
            cf = cube.cofactor(var, phase)
            if cf is not None:
                cubes.append(cf)
        return Sop(cubes, self.num_vars)

    def disjoin(self, other: "Sop") -> "Sop":
        if self.num_vars != other.num_vars:
            raise ValueError("covers over different universes")
        return Sop(self.cubes + other.cubes, self.num_vars)

    def conjoin(self, other: "Sop") -> "Sop":
        if self.num_vars != other.num_vars:
            raise ValueError("covers over different universes")
        cubes = []
        for a in self.cubes:
            for b in other.cubes:
                c = a.conjoin(b)
                if c is not None:
                    cubes.append(c)
        return Sop(cubes, self.num_vars).absorb()

    def complement(self) -> "Sop":
        """Exact complement via Shannon recursion (use on small supports)."""
        return Sop(_complement(self.cubes, sorted(self.support())),
                   self.num_vars)

    def covers_cube(self, cube: Cube) -> bool:
        """Exact test: does this cover contain every minterm of ``cube``?"""
        return self.covers(*cube.masks())

    def covers(self, q_care: int, q_value: int) -> bool:
        """:meth:`covers_cube` for the cube with masks ``(q_care,
        q_value)``: cofactor every cube of the cover against it (cubes in
        conflict drop out, the rest lose its variables) and ask whether
        what is left is a tautology."""
        free = ~q_care
        return _tautology([(care & free, value & free)
                           for care, value in self.masks
                           if not care & q_care & (value ^ q_value)])

    def intersects_cube(self, cube: Cube) -> bool:
        """True iff some cube of the cover shares a minterm with ``cube``."""
        return self.intersects(*cube.masks())

    def intersects(self, q_care: int, q_value: int) -> bool:
        """:meth:`intersects_cube` for the cube with masks ``(q_care,
        q_value)``."""
        return any(not care & q_care & (value ^ q_value)
                   for care, value in self.masks)

    # -- light-weight minimization -------------------------------------------

    def absorb(self) -> "Sop":
        """Drop duplicate cubes and cubes contained in another single cube."""
        kept: List[Cube] = []
        kept_masks: List[Tuple[int, int]] = []
        smaller = 0  # kept[:smaller] have fewer literals than ``cube``
        # Larger cubes (fewer literals) first so they absorb smaller ones;
        # a distinct cube with as many literals never contains another.
        for cube in sorted(set(self.cubes), key=len):
            while smaller < len(kept) and len(kept[smaller]) < len(cube):
                smaller += 1
            care, value = cube.masks()
            if not any(not k_care & (~care | (value ^ k_value))
                       for k_care, k_value
                       in itertools.islice(kept_masks, smaller)):
                kept.append(cube)
                kept_masks.append((care, value))
        return Sop(kept, self.num_vars)

    def merge_siblings(self) -> "Sop":
        """Iteratively merge distance-1 same-support cube pairs.

        FBDT leaves are disjoint minterm-like cubes; sibling merging is the
        cheap first-pass reduction before espresso-lite / synthesis.  Each
        cube merges with the first unused later cube of its support group
        whose value differs in one variable, found by value lookup.
        """
        cubes = list(self.absorb().cubes)
        changed = True
        while changed:
            changed = False
            by_support = {}
            for cube in cubes:
                by_support.setdefault(cube.masks()[0], []).append(cube)
            merged: List[Cube] = []
            for care, group in by_support.items():
                # Cubes are distinct after absorb(), so values are too.
                position = {cube.masks()[1]: i for i, cube in enumerate(group)}
                used: Set[int] = set()
                for i, cube in enumerate(group):
                    if i in used:
                        continue
                    value = cube.masks()[1]
                    partner, conflict = len(group), 0
                    rest = care
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        j = position.get(value ^ bit, -1)
                        if i < j < partner and j not in used:
                            partner, conflict = j, bit
                    if conflict:
                        used.update((i, partner))
                        merged.append(Cube.from_masks(care ^ conflict,
                                                      value & ~conflict))
                        changed = True
                    else:
                        merged.append(cube)
            cubes = Sop(merged, self.num_vars).absorb().cubes
        return Sop(cubes, self.num_vars)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sop):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and sorted(map(hash, self.cubes))
                == sorted(map(hash, other.cubes)))

    def __repr__(self) -> str:
        return f"Sop({len(self.cubes)} cubes, {self.num_vars} vars)"


# -- cover recursion helpers --------------------------------------------------


def _tautology(cubes: List[Tuple[int, int]]) -> bool:
    """Unate-recursion tautology check on ``(care, value)`` cube masks.

    Every variable that occurs in one phase only is unate; the cover is a
    tautology iff the cubes free of all unate variables are, so they are
    dropped in one step.  A cover with only binate variables is split on
    the one constrained by the most cubes.
    """
    while True:
        if not cubes:
            return False
        pos = neg = 0
        for care, value in cubes:
            if not care:
                return True
            pos |= value
            neg |= care ^ value
        unate = pos ^ neg
        if not unate:
            break
        cubes = [cube for cube in cubes if not cube[0] & unate]
    bit = _most_constrained(cubes, pos)
    keep = ~bit
    for phase in (0, bit):
        if not _tautology([(care & keep, value & keep)
                           for care, value in cubes
                           if not care & bit or value & bit == phase]):
            return False
    return True


def _most_constrained(cubes: List[Tuple[int, int]], candidates: int) -> int:
    """The lowest bit of ``candidates`` set in the most cube care masks.

    Per-variable counts are kept bit-sliced: ``planes[k]`` holds bit ``k``
    of every variable's count, so one pass of ripple-carry adds counts all
    variables at once and the maximum is read off from the top plane down.
    """
    planes: List[int] = []
    for care, _ in cubes:
        carry = care
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    for plane in reversed(planes):
        if candidates & plane:
            candidates &= plane
    return candidates & -candidates


def _complement(cubes: List[Cube], variables: List[int]) -> List[Cube]:
    """Shannon-recursion complement of a cube list over ``variables``."""
    if any(c.is_empty() for c in cubes):
        return []
    if not cubes:
        return [Cube.empty()]
    if len(cubes) == 1:
        # De Morgan on a single cube.
        return [Cube({var: 1 - phase}) for var, phase in cubes[0].literals()]
    split = None
    for var in variables:
        if any(var in c for c in cubes):
            split = var
            break
    if split is None:
        # Non-empty cover with no literals left is a tautology.
        return []
    rest = [v for v in variables if v != split]
    out: List[Cube] = []
    for phase in (0, 1):
        branch = []
        for cube in cubes:
            cf = cube.cofactor(split, phase)
            if cf is not None:
                branch.append(cf)
        for cube in _complement(branch, rest):
            out.append(cube.with_literal(split, phase))
    return out
