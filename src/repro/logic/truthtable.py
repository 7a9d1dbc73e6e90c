"""Packed truth tables for small-support Boolean functions.

Bit ``m`` of the table is ``f`` at the minterm whose binary encoding is ``m``
with variable 0 as the least-significant bit.  Tables are stored as numpy
``uint64`` words, so all Boolean operations, cofactors and support checks are
word-parallel.  Intended for supports up to ~22 variables — exactly the
regime of the paper's "conquering small functions" trick (threshold 18) and
of cut/cone resynthesis in the optimization passes.  :meth:`TruthTable.isop`
converts the table once to a ``2^n``-bit Python int and recurses on those.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.logic.cube import Cube
from repro.logic.sop import Sop

# Intra-word cofactor masks: _VAR_MASKS[i] has bit m set iff bit i of m is 1.
_VAR_MASKS = [
    np.uint64(0xAAAAAAAAAAAAAAAA),
    np.uint64(0xCCCCCCCCCCCCCCCC),
    np.uint64(0xF0F0F0F0F0F0F0F0),
    np.uint64(0xFF00FF00FF00FF00),
    np.uint64(0xFFFF0000FFFF0000),
    np.uint64(0xFFFFFFFF00000000),
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _num_words(num_vars: int) -> int:
    return 1 if num_vars <= 6 else 1 << (num_vars - 6)


class TruthTable:
    """A completely specified function of ``num_vars`` variables."""

    __slots__ = ("num_vars", "words")

    def __init__(self, num_vars: int, words: np.ndarray):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = int(num_vars)
        expected = _num_words(self.num_vars)
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (expected,):
            raise ValueError(
                f"expected {expected} words for {num_vars} vars, "
                f"got shape {words.shape}")
        self.words = self._masked(words)

    def _masked(self, words: np.ndarray) -> np.ndarray:
        """Zero the padding bits above 2^num_vars in a sub-word table."""
        if self.num_vars >= 6:
            return words
        keep = np.uint64((1 << (1 << self.num_vars)) - 1)
        out = words.copy()
        out[0] &= keep
        return out

    # -- construction ---------------------------------------------------------

    @classmethod
    def zeros(cls, num_vars: int) -> "TruthTable":
        return cls(num_vars, np.zeros(_num_words(num_vars), dtype=np.uint64))

    @classmethod
    def ones(cls, num_vars: int) -> "TruthTable":
        return cls(num_vars,
                   np.full(_num_words(num_vars), _ALL_ONES, dtype=np.uint64))

    @classmethod
    def variable(cls, var: int, num_vars: int) -> "TruthTable":
        """The projection function ``x_var``."""
        if not 0 <= var < num_vars:
            raise ValueError(f"variable {var} outside universe {num_vars}")
        words = np.zeros(_num_words(num_vars), dtype=np.uint64)
        if var < 6:
            words[:] = _VAR_MASKS[var]
        else:
            stride = 1 << (var - 6)
            idx = np.arange(words.shape[0])
            words[(idx // stride) % 2 == 1] = _ALL_ONES
        return cls(num_vars, words)

    @classmethod
    def from_minterms(cls, minterms: Iterable[int],
                      num_vars: int) -> "TruthTable":
        tt = cls.zeros(num_vars)
        words = tt.words.copy()
        for m in minterms:
            if not 0 <= m < (1 << num_vars):
                raise ValueError(f"minterm {m} out of range")
            words[m >> 6] |= np.uint64(1) << np.uint64(m & 63)
        return cls(num_vars, words)

    @classmethod
    def from_function(cls, fn: Callable[[Sequence[int]], int],
                      num_vars: int) -> "TruthTable":
        """Tabulate ``fn`` over all assignments (LSB = variable 0)."""
        minterms = []
        for m in range(1 << num_vars):
            bits = [(m >> v) & 1 for v in range(num_vars)]
            if fn(bits):
                minterms.append(m)
        return cls.from_minterms(minterms, num_vars)

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "TruthTable":
        """Tabulate from a length-2^n 0/1 sequence indexed by minterm."""
        n = (len(values) - 1).bit_length()
        if len(values) != 1 << n:
            raise ValueError("length must be a power of two")
        return cls.from_minterms(
            (m for m, v in enumerate(values) if v), n)

    @classmethod
    def from_sop(cls, sop: Sop) -> "TruthTable":
        out = cls.zeros(sop.num_vars)
        for cube in sop.cubes:
            term = cls.ones(sop.num_vars)
            for var, phase in cube.literals():
                lit = cls.variable(var, sop.num_vars)
                term &= lit if phase else ~lit
            out |= term
        return out

    @classmethod
    def random(cls, num_vars: int, rng: np.random.Generator) -> "TruthTable":
        words = rng.integers(0, 2 ** 64, size=_num_words(num_vars),
                             dtype=np.uint64)
        return cls(num_vars, words)

    # -- queries ---------------------------------------------------------------

    def get(self, minterm: int) -> int:
        if not 0 <= minterm < (1 << self.num_vars):
            raise ValueError(f"minterm {minterm} out of range")
        return int((self.words[minterm >> 6]
                    >> np.uint64(minterm & 63)) & np.uint64(1))

    def count_ones(self) -> int:
        from repro.logic.bitops import popcount

        return popcount(self.words)

    def is_zero(self) -> bool:
        return not self.words.any()

    def is_one(self) -> bool:
        return self == TruthTable.ones(self.num_vars)

    def minterms(self) -> List[int]:
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return np.nonzero(bits[: 1 << self.num_vars])[0].tolist()

    def depends_on(self, var: int) -> bool:
        return self.cofactor(var, 1) != self.cofactor(var, 0)

    def support(self) -> List[int]:
        return [v for v in range(self.num_vars) if self.depends_on(v)]

    def evaluate_one(self, assignment: Sequence[int]) -> int:
        m = 0
        for var in range(self.num_vars):
            if assignment[var]:
                m |= 1 << var
        return self.get(m)

    # -- operations ------------------------------------------------------------

    def cofactor(self, var: int, phase: int) -> "TruthTable":
        """Cofactor, returned over the same variable universe."""
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable {var} outside universe")
        words = self.words
        if var < 6:
            mask = _VAR_MASKS[var]
            shift = np.uint64(1 << var)
            if phase:
                kept = words & mask
                out = kept | (kept >> shift)
            else:
                kept = words & ~mask
                out = kept | (kept << shift)
            return TruthTable(self.num_vars, out)
        stride = 1 << (var - 6)
        out = words.copy()
        idx = np.arange(words.shape[0])
        hi = (idx // stride) % 2 == 1
        if phase:
            out[~hi] = words[idx[~hi] + stride]
        else:
            out[hi] = words[idx[hi] - stride]
        return TruthTable(self.num_vars, out)

    def compose_permutation(self, perm: Sequence[int],
                            new_num_vars: int) -> "TruthTable":
        """Re-express over a new universe: old var ``v`` -> ``perm[v]``.

        Used to lift a cut-local truth table back into a cone universe and
        vice versa.  Every variable in the support must have a valid image
        (``perm[v] >= 0``); non-support variables may map to -1.
        """
        support = sorted(self.support())
        for v in support:
            if perm[v] < 0 or perm[v] >= new_num_vars:
                raise ValueError(f"support variable {v} has no valid image")
        # Each onset point, projected onto the support, becomes a cube over
        # the image variables (don't-care on all other new variables).
        seen = set()
        cubes = []
        for m in self.minterms():
            key = tuple((m >> v) & 1 for v in support)
            if key in seen:
                continue
            seen.add(key)
            cubes.append(Cube({perm[v]: bit for v, bit in zip(support, key)}))
        return TruthTable.from_sop(Sop(cubes, new_num_vars))

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.num_vars, self.words & other.words)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.num_vars, self.words | other.words)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.num_vars, self.words ^ other.words)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, ~self.words)

    def _check(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("truth tables over different universes")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and bool(np.array_equal(self.words, other.words)))

    def __hash__(self) -> int:
        return hash((self.num_vars, self.words.tobytes()))

    def __repr__(self) -> str:
        if self.num_vars <= 6:
            return f"TruthTable({self.num_vars} vars, 0x{int(self.words[0]):x})"
        return f"TruthTable({self.num_vars} vars, {self.count_ones()} ones)"

    # -- two-level extraction ----------------------------------------------------

    def isop(self, max_cubes=None) -> Sop:
        """Irredundant SOP via the Minato-Morreale procedure.

        ``max_cubes`` aborts with :class:`IsopOverflow` once the budget is
        exceeded; the count sums the cubes of every sub-cover the recursion
        computes (memo hits are free), so it bounds the work as well as the
        cover.  Callers that only want *small* covers (the refactor pass
        with 96, collapse with 512) use this to bail out of exponential
        functions.
        """
        n = self.num_vars
        table = int.from_bytes(
            self.words.astype("<u8", copy=False).tobytes(), "little")
        cubes, _ = _IsopBuilder(n, max_cubes).run(table, table)
        return Sop([Cube.from_masks(care, value) for care, value in cubes], n)


class IsopOverflow(RuntimeError):
    """The ISOP cover exceeded the requested cube budget."""


@lru_cache(maxsize=None)
def _split_masks(num_vars: int
                 ) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
    """The all-ones table of ``num_vars`` variables and, per variable
    ``v``, ``(shift, pos, neg)``: ``pos`` has bit ``m`` set iff bit ``v`` of
    ``m`` is 1, ``neg`` is its complement and ``shift`` is ``2^v``."""
    full = (1 << (1 << num_vars)) - 1
    per_var = []
    for var in range(num_vars):
        shift = 1 << var
        # One period is ``shift`` zeros then ``shift`` ones; dividing the
        # all-ones table by a period of ones repeats a 1 every period.
        pos = (((1 << shift) - 1) << shift) * (full // ((1 << 2 * shift) - 1))
        per_var.append((shift, pos, full ^ pos))
    return full, tuple(per_var)


class _IsopBuilder:
    """Memoized Minato-Morreale recursion on Python-int truth tables.

    Tables are ``2^n``-bit ints over the whole universe (bit ``m`` is the
    value at minterm ``m``), so cofactors and the dependence test are a
    mask and a shift.  Each call returns its cubes as ``(care, value)``
    masks (:meth:`Cube.masks`) together with the table they cover, so no
    sub-cover is ever re-tabulated.
    """

    def __init__(self, num_vars: int, max_cubes: Optional[int]):
        self.full, self.per_var = _split_masks(num_vars)
        self.max_cubes = max_cubes
        self.produced = 0
        self._memo: Dict[Tuple[int, int], Tuple[list, int]] = {}

    def run(self, lower: int, upper: int) -> Tuple[list, int]:
        key = (lower, upper)
        result = self._memo.get(key)
        if result is None:
            result = self._memo[key] = self._compute(lower, upper)
        return result

    def _compute(self, lower: int, upper: int) -> Tuple[list, int]:
        if not lower:
            return [], 0
        if upper == self.full:
            self._account(1)
            return [(0, 0)], upper
        # Split on the lowest variable either bound depends on; one exists
        # because lower <= upper, lower != 0 and upper != 1.
        for var, (shift, pos, neg) in enumerate(self.per_var):
            if ((lower ^ (lower >> shift)) | (upper ^ (upper >> shift))) & neg:
                break
        l0 = lower & neg
        l0 |= l0 << shift
        l1 = lower & pos
        l1 |= l1 >> shift
        u0 = upper & neg
        u0 |= u0 << shift
        u1 = upper & pos
        u1 |= u1 >> shift
        # Cubes that must carry the negative / positive literal.
        c0, t0 = self.run(l0 & ~u1, u0)
        c1, t1 = self.run(l1 & ~u0, u1)
        # Remaining onset coverable without the split literal.
        c_star, t_star = self.run((l0 & ~t0) | (l1 & ~t1), u0 & u1)
        bit = 1 << var
        out = [(care | bit, value) for care, value in c0]
        out += [(care | bit, value | bit) for care, value in c1]
        out += c_star
        self._account(len(out))
        return out, (t0 & neg) | (t1 & pos) | t_star

    def _account(self, n: int) -> None:
        self.produced += n
        if self.max_cubes is not None and self.produced > self.max_cubes:
            raise IsopOverflow(f"ISOP exceeded {self.max_cubes} cubes")
