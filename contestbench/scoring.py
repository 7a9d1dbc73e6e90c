"""Output check: score each learned netlist against its golden circuit.

Mirrors :func:`repro.eval.harness.run_case`: accuracy is the contest hit
rate on the 3-way test mix.  A case *fails* when its learn raised, when
the learned netlist's PI/PO names differ from the oracle's, or when it
misses the repository's own floors (DIAG/DATA exact, the easy rows at
the contest bar).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from contestbench.workloads import (BAR_CASES, CONTEST_BAR,
                                    EXACT_CATEGORIES, SCORING_CHUNK,
                                    SCORING_PATTERNS)


class Scorer:
    """Scores learned netlists for one seed.  Each case's test patterns
    are drawn from ``(seed, case number)``, so a case scores the same
    in every pass and whatever workload it sits in."""

    def __init__(self, seed: int):
        self.seed = seed

    def accuracy(self, case, netlist) -> float:
        """Contest hit rate of ``netlist`` on the case's test mix."""
        from repro.eval.accuracy import accuracy
        from repro.eval.patterns import contest_test_patterns

        rng = np.random.default_rng([self.seed,
                                     int(case.case_id.split("_")[1])])
        hits = 0
        for first in range(0, SCORING_PATTERNS, SCORING_CHUNK):
            size = min(SCORING_CHUNK, SCORING_PATTERNS - first)
            pats = contest_test_patterns(case.num_pis, total=size, rng=rng)
            hits += round(accuracy(netlist, case.golden, pats) * size)
        return hits / SCORING_PATTERNS

    def check(self, case, oracle, netlist) -> Tuple[float, Optional[str]]:
        """``(accuracy, failure reason or None)`` for one learned case."""
        if list(netlist.pi_names) != list(oracle.pi_names) \
                or list(netlist.po_names) != list(oracle.po_names):
            return 0.0, "PI/PO names differ from the oracle's"
        acc = self.accuracy(case, netlist)
        if case.category in EXACT_CATEGORIES and acc != 1.0:
            return acc, f"{case.category} case not exact ({acc:.6f})"
        if case.case_id in BAR_CASES and acc < CONTEST_BAR:
            return acc, f"below the contest bar ({acc:.6f})"
        return acc, None
