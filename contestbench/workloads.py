"""Workload definitions and the learner configuration under test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

LEARNER_SEED = 2019
"""The learner's own seed, the ``repro learn`` default.  It is pinned,
not taken from ``--seed``: synthesis time on case_2 and case_15 varies
up to threefold between learner seeds, which would swamp the run-to-run
comparison the benchmark exists for."""

TIME_LIMIT_S = 2700.0
"""The contest's per-case budget.  No deadline binds on the chosen
cases at this budget, so gates, billed rows and accuracy repeat exactly
for a given seed and only wall time is noisy."""


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Tuple[str, ...]
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("templates",
             ("case_2", "case_6", "case_15", "case_16", "case_20"),
             "DIAG and DATA cases solved by template matching; synthesis "
             "of the matched circuits takes over 90% of the wall"),
    Workload("small-support",
             ("case_1", "case_4", "case_7", "case_10", "case_13"),
             "ECO/NEQ cases whose supports fit exhaustive enumeration; "
             "QM minimization and per-row sample-bank writes dominate"),
    Workload("deep-tree",
             ("case_17",),
             "wide-support ECO case: FBDT with QM/espresso cleanup, "
             "verify/repair and sample-bank reads; verify damages it"),
)}

EXACT_CATEGORIES = ("DIAG", "DATA")
"""Template categories the learner must solve exactly."""

CONTEST_BAR = 0.9999
"""The contest's accuracy bar (99.99%)."""

BAR_CASES = ("case_7", "case_10", "case_13")
"""Easy ECO/NEQ rows every contestant solved; they must meet the bar."""

SCORING_PATTERNS = 90000
"""Size of the contest 3-way test mix each case is scored on.  At 30,000
patterns the sampling error alone spread deep-tree's accuracy (about
0.65) by 0.8% between seeds; 90,000 brings that under 0.5%."""

SCORING_CHUNK = 10000
"""Patterns drawn and simulated at a time (each chunk is itself a 3-way
mix), so scoring adds little to the process's peak memory."""


def learner_config(profile: bool = False):
    """The configuration ``repro learn`` builds from its defaults, with
    the contest's time budget; ``profile`` arms the cost-model counters
    (traced passes only)."""
    from repro.core.config import (ObsConfig, RegressorConfig,
                                   RobustnessConfig)

    return RegressorConfig(
        time_limit=TIME_LIMIT_S,
        seed=LEARNER_SEED,
        jobs=1,
        enable_sample_bank=True,
        observability=ObsConfig(profile=profile),
        robustness=RobustnessConfig(max_retries=2, verify=True))
