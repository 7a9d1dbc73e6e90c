"""Parallel per-output learning: determinism and isolation."""

import io

import numpy as np

from repro.core.config import RegressorConfig, RobustnessConfig
from repro.core.regressor import LogicRegressor
from repro.network.blif import write_blif
from repro.oracle.base import Oracle
from repro.oracle.eco import build_eco_netlist
from repro.oracle.netlist_oracle import NetlistOracle
from repro.perf.parallel import (OutputTask, derive_output_rng,
                                 learn_outputs, run_output_task)


def small_config(**kw):
    base = dict(time_limit=60.0, seed=11, r_support=128,
                enable_optimization=False,
                robustness=RobustnessConfig(max_retries=0))
    base.update(kw)
    return RegressorConfig(**base)


def netlist_text(result):
    buf = io.StringIO()
    write_blif(result.netlist, buf)
    return buf.getvalue()


class TestDerivedRng:
    def test_pure_function_of_seed_and_output(self):
        a = derive_output_rng(7, 3).integers(0, 1 << 30, 8)
        b = derive_output_rng(7, 3).integers(0, 1 << 30, 8)
        assert (a == b).all()

    def test_streams_distinct_across_outputs(self):
        a = derive_output_rng(7, 0).integers(0, 1 << 30, 8)
        b = derive_output_rng(7, 1).integers(0, 1 << 30, 8)
        assert (a != b).any()


class TestJobsDeterminism:
    def _learn(self, jobs):
        golden = build_eco_netlist(16, 5, seed=3, support_low=3,
                                   support_high=7)
        return LogicRegressor(small_config(jobs=jobs)).learn(
            NetlistOracle(golden))

    def test_jobs_2_matches_jobs_1_bit_identical(self):
        seq = self._learn(1)
        par = self._learn(2)
        assert netlist_text(seq) == netlist_text(par)
        assert seq.queries == par.queries

    def test_two_sequential_runs_identical(self):
        assert netlist_text(self._learn(1)) == netlist_text(self._learn(1))


class _Unpicklable(Oracle):
    """Pickling this oracle fails: exercises the sequential fallback."""

    def __init__(self, inner):
        super().__init__(inner.pi_names, inner.po_names)
        self._inner = inner
        self._handle = lambda: None  # lambdas do not pickle

    def _evaluate(self, patterns):
        return self._inner.query(patterns, validate=False)


class TestEngine:
    def oracle(self):
        golden = build_eco_netlist(12, 3, seed=5, support_low=2,
                                   support_high=4)
        return NetlistOracle(golden)

    def test_unpicklable_oracle_falls_back_to_sequential(self):
        oracle = _Unpicklable(self.oracle())
        cfg = small_config()
        tasks = [OutputTask(j, list(range(12))) for j in range(3)]
        report = learn_outputs(oracle, tasks, cfg, jobs=2)
        assert "not picklable" in report.note
        assert report.mode == "sequential"
        assert all(r.cover is not None for r in report.results.values())

    def test_worker_results_match_in_process(self):
        cfg = small_config()
        tasks = [OutputTask(j, list(range(12))) for j in range(3)]
        seq = learn_outputs(self.oracle(), tasks, cfg, jobs=1)
        par = learn_outputs(
            self.oracle(),
            [OutputTask(j, list(range(12))) for j in range(3)],
            cfg, jobs=2)
        for j in range(3):
            a, b = seq.results[j].cover, par.results[j].cover
            assert a is not None and b is not None
            patterns = np.random.default_rng(1).integers(
                0, 2, (400, 12)).astype(np.uint8)
            assert (a.evaluate(patterns) == b.evaluate(patterns)).all()

    def test_worker_queries_surface_in_report(self):
        cfg = small_config()
        oracle = self.oracle()
        tasks = [OutputTask(j, list(range(12))) for j in range(3)]
        report = learn_outputs(oracle, tasks, cfg, jobs=2)
        if report.mode.startswith("parallel"):
            # Worker shards billed their own copies, not ours.
            assert oracle.query_count == 0
            assert report.extra_queries > 0

    def test_failing_output_is_isolated(self):
        class OneBadColumn(Oracle):
            def __init__(self, inner):
                super().__init__(inner.pi_names, inner.po_names)
                self._inner = inner

            def _evaluate(self, patterns):
                raise RuntimeError("output oracle down")

        cfg = small_config()
        oracle = OneBadColumn(self.oracle())
        tasks = [OutputTask(0, list(range(12)))]
        report = learn_outputs(oracle, tasks, cfg, jobs=1)
        res = report.results[0]
        assert res.cover is None
        assert res.error_type == "RuntimeError"

    def test_on_result_sees_every_output(self):
        cfg = small_config()
        seen = []
        tasks = [OutputTask(j, list(range(12))) for j in range(3)]
        learn_outputs(self.oracle(), tasks, cfg, jobs=1,
                      on_result=lambda res: seen.append(res.index))
        assert sorted(seen) == [0, 1, 2]


class TestRunOutputTask:
    def test_stats_carry_bank_traffic(self):
        from repro.perf.bank import SampleBank

        golden = build_eco_netlist(10, 2, seed=2, support_low=2,
                                   support_high=3)
        oracle = NetlistOracle(golden)
        bank = SampleBank(10, 2)
        cfg = small_config()
        res = run_output_task(oracle, OutputTask(0, list(range(10))),
                              cfg, bank)
        assert res.cover is not None
        assert res.bank is not None
        assert res.bank.misses > 0
        assert res.cover.stats.bank_misses == res.bank.misses
