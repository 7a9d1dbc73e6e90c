"""Cost-model profiler: jobs-invariance, self-time math, flamegraphs."""

import json

import pytest

from repro.core.config import ObsConfig, RobustnessConfig, fast_config
from repro.core.regressor import LogicRegressor
from repro.obs.profile import (PROFILE_COUNTERS, Profiler, UNATTRIBUTED,
                               aggregate_self_times, collapse_stacks,
                               render_profile, span_self_times)
from repro.obs.report import REPORT_SCHEMA, build_run_report, validate
from repro.oracle.eco import build_eco_netlist
from repro.oracle.netlist_oracle import NetlistOracle


def _learn(jobs, *, profile=True, profile_memory=False, seed=7):
    oracle = NetlistOracle(build_eco_netlist(8, 4, seed=5))
    cfg = fast_config(
        time_limit=30.0, jobs=jobs, seed=seed,
        enable_optimization=False,
        robustness=RobustnessConfig(max_retries=0),
        observability=ObsConfig(enabled=True, profile=profile,
                                profile_memory=profile_memory))
    return LogicRegressor(cfg).learn(oracle), cfg


def _counters_json(result):
    profiler = Profiler.from_instrumentation(result.instrumentation)
    return json.dumps(profiler.counters(), sort_keys=True)


# -- synthetic span trees for exact math -----------------------------------------


def _span(id, name, parent, dur, cpu=None, attrs=None):
    rec = {"type": "span", "id": id, "name": name, "parent": parent,
           "ts": 0.0, "dur": dur}
    if cpu is not None:
        rec["cpu"] = cpu
    if attrs:
        rec["attrs"] = attrs
    return rec


def _toy_trace():
    """run(10ms) -> learn-stage(4ms) -> output f(1ms); self 6/3/1."""
    return [
        _span(1, "run", None, 0.010, cpu=0.008),
        _span(2, "learn", 1, 0.004, cpu=0.003,
              attrs={"kind": "stage"}),
        _span(3, "output", 2, 0.001, cpu=0.001,
              attrs={"output": 0, "po_name": "f"}),
    ]


class TestSelfTimeMath:
    def test_self_time_subtracts_direct_children_only(self):
        rows = {r["name"]: r for r in span_self_times(_toy_trace())}
        assert rows["run"]["wall_self_s"] == pytest.approx(0.006)
        assert rows["learn"]["wall_self_s"] == pytest.approx(0.003)
        assert rows["output"]["wall_self_s"] == pytest.approx(0.001)

    def test_cpu_self_time_mirrors_wall(self):
        rows = {r["name"]: r for r in span_self_times(_toy_trace())}
        assert rows["run"]["cpu_self_s"] == pytest.approx(0.005)
        assert rows["learn"]["cpu_self_s"] == pytest.approx(0.002)

    def test_cpu_absent_yields_none(self):
        records = [_span(1, "run", None, 0.01)]
        assert span_self_times(records)[0]["cpu_self_s"] is None

    def test_negative_self_time_clamps_to_zero(self):
        # Adopted worker spans can overlap their parent's wall time.
        records = [_span(1, "run", None, 0.001),
                   _span(2, "worker", 1, 0.005)]
        rows = {r["name"]: r for r in span_self_times(records)}
        assert rows["run"]["wall_self_s"] == 0.0

    def test_attribution_walks_to_stage_and_output(self):
        rows = {r["name"]: r for r in span_self_times(_toy_trace())}
        assert rows["output"]["stage"] == "learn"
        assert rows["output"]["output"] == 0
        assert rows["run"]["stage"] == UNATTRIBUTED
        assert rows["run"]["output"] == -1

    def test_aggregate_orders_by_wall_self_desc(self):
        agg = aggregate_self_times(_toy_trace())
        assert [e["name"] for e in agg] == ["run", "learn", "output"]
        assert agg[0]["spans"] == 1


class TestCollapsedStacks:
    def test_golden_stacks_from_toy_trace(self):
        assert collapse_stacks(_toy_trace()) == [
            "run 6000",
            "run;learn 3000",
            "run;learn;output:f 1000",
        ]

    def test_cpu_weighting(self):
        assert collapse_stacks(_toy_trace(), weight="cpu") == [
            "run 5000",
            "run;learn 2000",
            "run;learn;output:f 1000",
        ]

    def test_zero_weight_stacks_dropped(self):
        records = [_span(1, "run", None, 0.001),
                   _span(2, "all", 1, 0.001)]
        assert collapse_stacks(records) == ["run;all 1000"]

    def test_repeated_stacks_merge(self):
        records = [_span(1, "run", None, 0.004),
                   _span(2, "step", 1, 0.001),
                   _span(3, "step", 1, 0.001)]
        assert collapse_stacks(records) == ["run 2000", "run;step 2000"]

    def test_cli_collapse_roundtrip(self, tmp_path, capsys):
        from repro.obs.profile import main as profile_main

        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as handle:
            for rec in _toy_trace():
                handle.write(json.dumps(rec) + "\n")
        out = tmp_path / "collapsed.txt"
        assert profile_main(["--collapse", str(trace),
                             "-o", str(out)]) == 0
        assert open(out).read().splitlines() == \
            collapse_stacks(_toy_trace())
        # --table renders without a metrics dump (counters absent).
        assert profile_main(["--table", str(trace)]) == 0
        assert "run" in capsys.readouterr().out

    def test_cli_requires_a_mode(self):
        from repro.obs.profile import main as profile_main

        with pytest.raises(SystemExit):
            profile_main([])


class TestJobsInvariance:
    """Cost counters are nominal work: byte-identical at any --jobs."""

    def test_jobs1_vs_jobs4_identical_counters(self):
        seq, _ = _learn(1)
        par, _ = _learn(4)
        assert seq.gate_count == par.gate_count
        blob = _counters_json(seq)
        assert blob == _counters_json(par)
        assert json.loads(blob)  # armed runs must count something

    def test_jobs1_vs_jobs4_identical_stage_breakdown(self):
        seq, _ = _learn(1)
        par, _ = _learn(4)
        seq_p = Profiler.from_instrumentation(seq.instrumentation)
        par_p = Profiler.from_instrumentation(par.instrumentation)
        assert seq_p.counter_breakdown() == par_p.counter_breakdown()

    def test_same_seed_same_counters(self):
        one, _ = _learn(1)
        two, _ = _learn(1)
        assert _counters_json(one) == _counters_json(two)

    def test_profile_off_counts_nothing(self):
        result, _ = _learn(1, profile=False)
        profiler = Profiler.from_instrumentation(result.instrumentation)
        assert profiler.counters() == {}

    def test_counter_names_stay_sorted_and_known(self):
        assert list(PROFILE_COUNTERS) == sorted(PROFILE_COUNTERS)
        result, _ = _learn(1)
        profiler = Profiler.from_instrumentation(result.instrumentation)
        assert set(profiler.counters()) <= set(PROFILE_COUNTERS)


class TestReportIntegration:
    def test_schema_profile_block_present_and_valid(self):
        result, cfg = _learn(1)
        report = build_run_report(result, cfg)
        assert validate(report, REPORT_SCHEMA) == []
        assert report["schema_version"] == 8
        profile = report["profile"]
        assert profile is not None
        assert profile["counters"]
        assert profile["self_time"]
        assert profile["memory"] is None

    def test_profile_block_null_when_not_armed(self):
        result, cfg = _learn(1, profile=False)
        report = build_run_report(result, cfg)
        assert validate(report, REPORT_SCHEMA) == []
        assert report["profile"] is None

    def test_minimize_stats_on_output_entries(self):
        result, cfg = _learn(1)
        report = build_run_report(result, cfg)
        timed = [out for out in report["outputs"]
                 if "minimize_wall_s" in out]
        assert timed, "no output carried minimize stats"
        for out in timed:
            assert out["minimize_wall_s"] >= 0.0
            assert out["minimize_cubes_out"] <= out["minimize_cubes_in"]

    def test_render_profile_table(self):
        result, cfg = _learn(1)
        report = build_run_report(result, cfg)
        text = render_profile(report["profile"], top=5)
        assert "cost counters (deterministic):" in text
        assert "wall ms" in text


class TestMemoryWatermarks:
    def test_profile_memory_records_stage_peaks(self):
        result, _ = _learn(1, profile_memory=True)
        profiler = Profiler.from_instrumentation(result.instrumentation)
        memory = profiler.memory()
        assert memory is not None
        assert all(peak > 0.0 for peak in memory.values())
        assert "learn" in memory

    def test_profile_memory_off_by_default(self):
        result, _ = _learn(1)
        profiler = Profiler.from_instrumentation(result.instrumentation)
        assert profiler.memory() is None

    def test_profile_memory_requires_profile(self):
        with pytest.raises(ValueError, match="profile_memory"):
            _learn(1, profile=False, profile_memory=True)

    def test_parallel_profile_memory_still_learns(self):
        result, _ = _learn(4, profile_memory=True)
        profiler = Profiler.from_instrumentation(result.instrumentation)
        assert profiler.memory()
        assert result.gate_count > 0


class TestLearnTraceCollapse:
    def test_real_trace_collapses_nonempty(self):
        result, _ = _learn(1)
        profiler = Profiler.from_instrumentation(result.instrumentation)
        lines = profiler.collapse()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
        # Every stack is rooted at the run span.
        assert all(line.startswith("run") for line in lines)
