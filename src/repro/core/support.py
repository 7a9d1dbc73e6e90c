"""Support identification (Sec. IV-C).

Runs unconstrained PatternSampling once for all outputs and extracts each
output's approximate support ``S' = {i : D_i != 0}``.  ``S'`` is an
under-approximation of the true support (Proposition 1 gives only the
one-sided test), which is exactly the semantics the paper works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.sampling import SampleStats, pattern_sampling
from repro.logic.cube import Cube
from repro.oracle.base import Oracle


@dataclass
class SupportInfo:
    """Per-output approximate supports plus the shared sampling stats."""

    supports: List[List[int]]
    stats: SampleStats

    def support_of(self, output: int) -> List[int]:
        return list(self.supports[output])

    def truth_ratio_of(self, output: int) -> float:
        return float(self.stats.truth_ratio[output])


def identify_supports(oracle: Oracle, r: int, rng: np.random.Generator,
                      biases: Sequence[float] = (0.5, 0.15, 0.85),
                      outputs: Optional[Sequence[int]] = None,
                      candidates: Optional[Sequence[int]] = None
                      ) -> SupportInfo:
    """Approximate the support of every (requested) output.

    One shared sampling pass serves all outputs: the oracle returns full
    output assignments per query, so per-output support extraction is free
    once the flip blocks are evaluated.
    """
    stats = pattern_sampling(oracle, Cube.empty(), r, rng, biases=biases,
                             candidates=candidates)
    if outputs is None:
        outputs = range(oracle.num_pos)
    supports = [stats.support(j) if j in set(outputs) else []
                for j in range(oracle.num_pos)]
    return SupportInfo(supports=supports, stats=stats)
