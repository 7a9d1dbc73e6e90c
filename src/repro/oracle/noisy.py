"""Noisy-oracle wrapper: learning from a fallible teacher.

The paper's related work (Sec. I) sets aside non-deterministic black
boxes [14-16]; this wrapper lets us probe that boundary empirically: each
returned output bit is flipped independently with probability ``p``.
The learner's sampled-constancy leaf tests and majority votes give it a
measure of natural robustness — quantified by
``benchmarks/bench_noise.py``.

The flip pattern is a deterministic function of the input assignment (a
hash-seeded PRNG per row), so the wrapped oracle is still a *function* —
the same query always gets the same corrupted answer, matching the
"malicious omissions/errors" model rather than pure channel noise.
"""

from __future__ import annotations

import numpy as np

from repro.oracle.base import Oracle


class NoisyOracle(Oracle):
    """Flips each output bit with probability ``flip_probability``.

    ``deterministic=True`` derives the flips from a hash of the input row
    (repeatable answers); ``False`` draws fresh noise per query (channel
    noise — strictly harder, and outside any exact-learning model).
    """

    def __init__(self, inner: Oracle, flip_probability: float,
                 seed: int = 0, deterministic: bool = True):
        if not 0.0 <= flip_probability < 0.5:
            raise ValueError("flip probability must be in [0, 0.5)")
        super().__init__(inner.pi_names, inner.po_names)
        self._inner = inner
        self._p = flip_probability
        self._seed = seed
        self._deterministic = deterministic
        self._rng = np.random.default_rng(seed)

    @property
    def flip_probability(self) -> float:
        return self._p

    def _evaluate(self, patterns: np.ndarray) -> np.ndarray:
        clean = self._inner.query(patterns, validate=False)
        if self._p == 0.0:
            return clean
        if self._deterministic:
            flips = self._hash_noise(patterns)
        else:
            flips = (self._rng.random(clean.shape) < self._p)
        return clean ^ flips.astype(np.uint8)

    def _hash_noise(self, patterns: np.ndarray) -> np.ndarray:
        """Per-row repeatable noise: hash each assignment into a seed.

        Uses CRC32 (not Python's salted ``hash``) so the corruption is
        stable across processes for a given seed.
        """
        import zlib

        out = np.zeros((patterns.shape[0], self.num_pos), dtype=bool)
        for i, row in enumerate(patterns):
            digest = zlib.crc32(row.tobytes(), self._seed & 0xFFFFFFFF)
            row_rng = np.random.default_rng(digest)
            out[i] = row_rng.random(self.num_pos) < self._p
        return out
