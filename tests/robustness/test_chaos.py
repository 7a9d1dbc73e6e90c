"""Chaos suite: the learner must survive an adversarial oracle.

The acceptance bar for the execution layer: under transient faults, bit
flips, hangs, budget exhaustion, or per-output crashes, ``learn`` never
raises and always returns a valid netlist covering every primary output.
"""

import numpy as np
import pytest

from repro.core.config import RobustnessConfig, fast_config
from repro.core.regressor import LogicRegressor
from repro.eval import accuracy, contest_test_patterns
from repro.network.simulate import simulate
from repro.oracle.base import Oracle, TransientOracleFault
from repro.oracle.eco import build_eco_netlist
from repro.oracle.netlist_oracle import NetlistOracle
from repro.robustness.faults import FaultModel, FaultyOracle


def chaos_config(**overrides):
    base = dict(
        time_limit=8.0,
        robustness=RobustnessConfig(max_retries=3, retry_base_delay=0.0,
                                    retry_max_delay=0.0))
    base.update(overrides)
    return fast_config(**base)


def assert_valid(result, golden):
    """The contract: a complete, simulatable netlist for every PO."""
    assert result.netlist.num_pos == golden.num_pos
    assert result.netlist.po_names == \
        NetlistOracle(golden).po_names
    patterns = np.random.default_rng(0).integers(
        0, 2, size=(256, golden.num_pis)).astype(np.uint8)
    values = simulate(result.netlist, patterns)
    assert values.shape == (256, golden.num_pos)
    assert len(result.reports) == golden.num_pos


class TestChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ten_percent_transient_faults_tight_deadline(self, seed):
        golden = build_eco_netlist(16, 4, seed=seed, support_low=3,
                                   support_high=6)
        oracle = FaultyOracle(NetlistOracle(golden),
                              FaultModel(transient_rate=0.10),
                              seed=seed)
        result = LogicRegressor(chaos_config(time_limit=4.0)).learn(oracle)
        assert_valid(result, golden)

    def test_full_fault_cocktail(self):
        golden = build_eco_netlist(16, 3, seed=5, support_low=3,
                                   support_high=6)
        model = FaultModel(transient_rate=0.08, bitflip_rate=0.002,
                           hang_rate=0.05, hang_duration=10.0,
                           query_deadline=1.0)
        oracle = FaultyOracle(NetlistOracle(golden), model, seed=5)
        result = LogicRegressor(chaos_config()).learn(oracle)
        assert_valid(result, golden)

    def test_faults_with_retries_still_learn_accurately(self):
        golden = build_eco_netlist(16, 3, seed=6, support_low=3,
                                   support_high=5)
        oracle = FaultyOracle(NetlistOracle(golden),
                              FaultModel(transient_rate=0.10), seed=6)
        result = LogicRegressor(chaos_config()).learn(oracle)
        assert_valid(result, golden)
        patterns = contest_test_patterns(16, total=4000,
                                         rng=np.random.default_rng(1))
        # Transient faults carry no wrong data — with retries in front,
        # the learned function should be exact.
        assert accuracy(result.netlist, golden, patterns) == 1.0


class DyingOracle(Oracle):
    """Healthy until ``die_after`` rows, then permanently faulty —
    beyond what any retry can cure."""

    def __init__(self, inner, die_after):
        super().__init__(inner.pi_names, inner.po_names)
        self._inner = inner
        self._die_after = die_after

    def _evaluate(self, patterns):
        if self._inner.query_count >= self._die_after:
            raise TransientOracleFault("generator is gone")
        return self._inner.query(patterns)


class TestIsolation:
    def test_oracle_death_degrades_remaining_outputs(self):
        golden = build_eco_netlist(16, 4, seed=11, support_low=3,
                                   support_high=6)
        oracle = DyingOracle(NetlistOracle(golden), die_after=3000)
        result = LogicRegressor(chaos_config()).learn(oracle)
        assert_valid(result, golden)
        methods = result.methods_used()
        assert methods.get("degraded", 0) >= 1
        assert any(line.startswith("degraded:")
                   for line in result.step_trace)

    def test_budget_exhaustion_is_caught_at_output_boundary(self):
        golden = build_eco_netlist(16, 4, seed=12, support_low=3,
                                   support_high=6)
        oracle = NetlistOracle(golden, query_budget=3000)
        result = LogicRegressor(chaos_config()).learn(oracle)
        assert_valid(result, golden)
        assert result.methods_used().get("budget-exhausted", 0) >= 1
        assert result.queries <= 3000

    def test_partial_cover_survives_midtree_budget_death(self):
        """Satellite: QueryBudgetExceeded mid-FBDT yields the partial
        cover learned so far instead of propagating."""
        golden = build_eco_netlist(20, 1, seed=14, support_low=9,
                                   support_high=11)
        # Enough budget to get well into the tree, not enough to finish.
        oracle = NetlistOracle(golden, query_budget=2500)
        cfg = chaos_config(exhaustive_threshold=4,
                           subtree_exhaustive_threshold=0)
        result = LogicRegressor(cfg).learn(oracle)
        assert_valid(result, golden)
        report = result.reports[0]
        assert report.method == "budget-exhausted"
        # The partial tree (not a constant fallback) was kept.
        assert report.stats is not None
        assert report.stats.nodes_expanded > 0


class TestChaosMatrix:
    """The scripted scenario matrix behind ``repro chaos``.

    The full seven-scenario sweep runs in CI and ``benchmarks/``; here we
    exercise the matrix machinery itself on a cheap subset.
    """

    def test_clean_scenario_passes(self):
        from repro.robustness.chaos import run_chaos_matrix

        summary = run_chaos_matrix(["clean"], seed=2019)
        assert summary["passed"]
        (outcome,) = summary["scenarios"]
        assert outcome["name"] == "clean"
        assert outcome["passed"]
        assert outcome["failures"] == []

    def test_bitflip_audit_scenario_certifies_or_tags(self):
        from repro.robustness.chaos import run_chaos_matrix

        summary = run_chaos_matrix(["bitflip-audit"], seed=2019)
        assert summary["passed"], summary["scenarios"][0]["failures"]
        statuses = summary["scenarios"][0]["details"]["verification"]
        assert set(statuses) <= {"verified", "repaired", "verify-failed"}

    def test_scenario_outcomes_are_deterministic(self):
        from repro.robustness.chaos import run_chaos_matrix

        a = run_chaos_matrix(["transient"], seed=2019)
        b = run_chaos_matrix(["transient"], seed=2019)
        assert a == b

    def test_unknown_scenario_rejected(self):
        from repro.robustness.chaos import run_chaos_matrix

        with pytest.raises(ValueError, match="unknown"):
            run_chaos_matrix(["no-such-scenario"])


class TestServiceScenarios:
    """The service-layer chaos scenarios (inline ones; the process-mode
    kill/hang scenarios run under ``repro chaos`` in CI)."""

    def test_admission_flood_sheds_structurally(self):
        from repro.robustness.chaos import run_chaos_matrix

        summary = run_chaos_matrix(["service-flood"], seed=2019)
        assert summary["passed"], summary["scenarios"][0]["failures"]
        details = summary["scenarios"][0]["details"]
        assert details["statuses"].count("rejected") == 4
        assert details["stats"]["rejected"] == 4

    def test_corrupt_checkpoint_restarts_from_scratch(self):
        from repro.robustness.chaos import run_chaos_matrix

        summary = run_chaos_matrix(["service-corrupt-checkpoint"],
                                   seed=2019)
        assert summary["passed"], summary["scenarios"][0]["failures"]
        details = summary["scenarios"][0]["details"]
        assert details["resumed"] == ["corrupt-0"]
        assert details["status"] in ("verified", "repaired")

    @pytest.mark.slow
    def test_kill_dash_nine_loses_no_jobs(self):
        from repro.robustness.chaos import run_chaos_matrix

        summary = run_chaos_matrix(["service-kill"], seed=2019)
        assert summary["passed"], summary["scenarios"][0]["failures"]
        details = summary["scenarios"][0]["details"]
        assert len(details["in_flight_at_kill"]) == 3
        assert len(details["statuses"]) == 3
