"""Cubes (conjunctions of literals) over an integer-indexed variable universe.

A literal is a pair ``(var, phase)`` with ``var`` a non-negative integer and
``phase`` 1 for the positive literal ``x`` or 0 for the negative literal
``!x``.  A :class:`Cube` is an immutable set of non-conflicting literals and
doubles as a partial assignment / sampling constraint, which is exactly how
the paper uses cubes (``alpha |= c`` in Algorithm 1).

The empty cube is the constant-1 function (the unconstrained cube used at the
FBDT root).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

Literal = Tuple[int, int]


class Cube:
    """An immutable conjunction of literals.

    >>> c = Cube.from_literals([(0, 1), (2, 0)])   # x0 & !x2
    >>> c.phase(0), c.phase(2), c.phase(1)
    (1, 0, None)
    """

    __slots__ = ("_lits", "_hash", "_arrays", "_masks")

    def __init__(self, lits: Optional[Dict[int, int]] = None):
        self._lits: Dict[int, int] = dict(lits) if lits else {}
        for var, phase in self._lits.items():
            if var < 0:
                raise ValueError(f"negative variable index {var}")
            if phase not in (0, 1):
                raise ValueError(f"phase must be 0 or 1, got {phase}")
        self._hash: Optional[int] = None
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._masks: Optional[Tuple[int, int]] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls) -> "Cube":
        """The unconstrained cube (constant 1)."""
        return cls()

    @classmethod
    def from_literals(cls, literals: Iterable[Literal]) -> "Cube":
        """Build a cube from ``(var, phase)`` pairs; conflicts raise."""
        lits: Dict[int, int] = {}
        for var, phase in literals:
            if lits.get(var, phase) != phase:
                raise ValueError(f"conflicting literals on variable {var}")
            lits[var] = phase
        return cls(lits)

    @classmethod
    def from_assignment(cls, values: Iterable[int],
                        variables: Optional[Iterable[int]] = None) -> "Cube":
        """Build the minterm cube fixing ``variables`` (default 0..n-1)."""
        vals = list(values)
        if variables is None:
            variables = range(len(vals))
        return cls({v: int(bool(b)) for v, b in zip(variables, vals)})

    @classmethod
    def from_masks(cls, care: int, value: int) -> "Cube":
        """Inverse of :meth:`masks`."""
        lits: Dict[int, int] = {}
        while care:
            low = care & -care
            lits[low.bit_length() - 1] = 1 if value & low else 0
            care ^= low
        return cls(lits)

    # -- basic queries -----------------------------------------------------

    def phase(self, var: int) -> Optional[int]:
        """Phase of ``var`` in this cube, or None if free."""
        return self._lits.get(var)

    @property
    def variables(self) -> Tuple[int, ...]:
        """Sorted variables constrained by this cube."""
        return tuple(sorted(self._lits))

    def literals(self) -> Iterator[Literal]:
        """Iterate ``(var, phase)`` pairs in sorted variable order."""
        for var in sorted(self._lits):
            yield var, self._lits[var]

    def __len__(self) -> int:
        return len(self._lits)

    def __contains__(self, var: int) -> bool:
        return var in self._lits

    def is_empty(self) -> bool:
        """True for the unconstrained (constant-1) cube."""
        return not self._lits

    def num_minterms(self, num_vars: int) -> int:
        """Number of minterms in a ``num_vars``-dimensional space."""
        free = num_vars - len(self._lits)
        if free < 0:
            raise ValueError("cube constrains more variables than the space")
        return 1 << free

    # -- algebra -----------------------------------------------------------

    def with_literal(self, var: int, phase: int) -> "Cube":
        """Return ``self & lit``; raises on conflict (FBDT child cubes)."""
        existing = self._lits.get(var)
        if existing is not None and existing != phase:
            raise ValueError(f"conflicting literal on variable {var}")
        lits = dict(self._lits)
        lits[var] = phase
        return Cube(lits)

    def without(self, var: int) -> "Cube":
        """Return the cube with ``var`` freed."""
        lits = dict(self._lits)
        lits.pop(var, None)
        return Cube(lits)

    def conjoin(self, other: "Cube") -> Optional["Cube"]:
        """``self & other``, or None if the product is empty."""
        lits = dict(self._lits)
        for var, phase in other._lits.items():
            if lits.get(var, phase) != phase:
                return None
            lits[var] = phase
        return Cube(lits)

    def cofactor(self, var: int, phase: int) -> Optional["Cube"]:
        """Cofactor w.r.t. literal: None if contradicted, else var freed."""
        existing = self._lits.get(var)
        if existing is None:
            return self
        if existing != phase:
            return None
        return self.without(var)

    def contains(self, other: "Cube") -> bool:
        """True iff ``other``'s minterms are a subset of ``self``'s."""
        for var, phase in self._lits.items():
            if other._lits.get(var) != phase:
                return False
        return True

    def intersects(self, other: "Cube") -> bool:
        """True iff the two cubes share at least one minterm."""
        return self.distance(other) == 0

    def distance(self, other: "Cube") -> int:
        """Number of variables on which the cubes conflict."""
        small, large = self._lits, other._lits
        if len(small) > len(large):
            small, large = large, small
        return sum(1 for var, phase in small.items()
                   if large.get(var, phase) != phase)

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """Consensus cube if the distance is exactly 1, else None."""
        conflict: Optional[int] = None
        for var, phase in self._lits.items():
            o = other._lits.get(var)
            if o is not None and o != phase:
                if conflict is not None:
                    return None
                conflict = var
        if conflict is None:
            return None
        lits = dict(self._lits)
        lits.update(other._lits)
        del lits[conflict]
        return Cube(lits)

    def merge(self, other: "Cube") -> Optional["Cube"]:
        """Merge two cubes differing in exactly one variable's phase.

        Returns the single covering cube (the classic ``ab | a!b = a``
        reduction used after FBDT leaf collection), or None if the cubes
        are not mergeable.
        """
        if set(self._lits) != set(other._lits):
            return None
        if self.distance(other) != 1:
            return None
        return self.consensus(other)

    # -- evaluation / sampling ----------------------------------------------

    def lits_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(variables, phases)`` int arrays in sorted var order.

        The vectorized form the packed kernels and the sampling
        constraint application index with (one fancy-index op instead of
        one column op per literal).
        """
        if self._arrays is None:
            vars_sorted = sorted(self._lits)
            self._arrays = (
                np.asarray(vars_sorted, dtype=np.int64),
                np.asarray([self._lits[v] for v in vars_sorted],
                           dtype=np.uint8))
        return self._arrays

    def masks(self) -> Tuple[int, int]:
        """Cached ``(care, value)`` bitmasks: bit ``v`` of ``care`` is set
        iff variable ``v`` is constrained, and then bit ``v`` of ``value``
        is its phase (``value`` is always a subset of ``care``).

        Python ints have arbitrary width, so the masks cover any universe;
        the cover-containment recursion in :mod:`repro.logic.sop` runs on
        them without building cubes.
        """
        if self._masks is None:
            care = value = 0
            for var, phase in self._lits.items():
                bit = 1 << int(var)
                care |= bit
                if phase:
                    value |= bit
            self._masks = (care, value)
        return self._masks

    def evaluate(self, patterns: np.ndarray) -> np.ndarray:
        """Vectorized satisfaction test (scalar reference path).

        ``patterns`` is a ``(N, num_vars)`` 0/1 array; returns a length-N
        boolean array with True where the pattern satisfies the cube.
        Kept as the bit-identical reference for the packed kernels
        (:meth:`match_words` / ``repro.logic.bitops.cube_eval``).
        """
        patterns = np.asarray(patterns)
        result = np.ones(patterns.shape[0], dtype=bool)
        for var, phase in self._lits.items():
            result &= patterns[:, var] == phase
        return result

    def match_words(self, words: np.ndarray, num_rows: int) -> np.ndarray:
        """Packed satisfaction test over a ``(V, ceil(N/64))`` uint64
        array (see :mod:`repro.logic.bitops`); bit-identical to
        :meth:`evaluate` on the unpacked patterns."""
        from repro.logic import bitops

        return bitops.cube_eval_words(words, num_rows,
                                      list(self.literals()))

    def apply_to(self, patterns: np.ndarray) -> np.ndarray:
        """Force the cube's literals into ``patterns`` in place; returns it.

        This implements the ``alpha |= c`` constraint of Algorithm 1:
        arbitrary random patterns become samples of the subspace ``c``.
        """
        if self._lits:
            variables, phases = self.lits_arrays()
            patterns[:, variables] = phases
        return patterns

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return self._lits == other._lits

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._lits.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._lits:
            return "Cube(1)"
        parts = [f"{'' if p else '!'}x{v}" for v, p in self.literals()]
        return "Cube(" + " & ".join(parts) + ")"

    def to_string(self, num_vars: int) -> str:
        """PLA-style positional string, e.g. ``1-0`` for ``x0 & !x2``."""
        chars = []
        for var in range(num_vars):
            phase = self._lits.get(var)
            chars.append("-" if phase is None else str(phase))
        return "".join(chars)

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Inverse of :meth:`to_string`."""
        lits = {}
        for var, ch in enumerate(text):
            if ch == "-":
                continue
            if ch not in "01":
                raise ValueError(f"bad cube character {ch!r}")
            lits[var] = int(ch)
        return cls(lits)
