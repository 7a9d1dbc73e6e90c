"""Observability overhead: instrumented vs bare pipeline wall-clock.

The tracing/metrics layer sits on the oracle hot path (one counter
increment per query batch, a handful per FBDT node), so it must be
near-free.  This bench runs the same learn with observability on and
off and asserts the instrumented run stays within 5% wall-clock of the
bare run.  Both arms learn bit-identical circuits from the same seed.
The overhead is the *median per-pair ratio* over at least 20 pairs,
each pair one learn per arm back to back, with the arm that runs first
alternating between pairs.  A ~0.15 s learn on a shared host swings by
more than 10% from one run to the next, so a comparison of single runs
gates the noise; pairing cancels slow drifts of the host, alternating
cancels any penalty of running first or second, and the median ignores
the odd stalled run.

The profiler arm repeats the comparison with the cost-model profiler
armed (``ObsConfig(profile=True)``): the deterministic kernel counters
must also stay within the 5% budget, and their aggregate totals must be
identical on every round — they count nominal work derived from kernel
inputs, so any run-to-run drift is a determinism bug, not noise.

Standalone snapshot mode (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_obs.py --profile \
        --out BENCH_profile.json
    PYTHONPATH=src python benchmarks/bench_obs.py --profile \
        --check BENCH_profile.json
"""

import json
import statistics
import time

import pytest

from benchmarks.conftest import one_shot
from repro.core.config import ObsConfig, RobustnessConfig, fast_config
from repro.core.regressor import LogicRegressor
from repro.oracle.eco import build_eco_netlist
from repro.oracle.netlist_oracle import NetlistOracle

PAIRS = 20
OVERHEAD_BUDGET = 0.05


def _run(enabled, profile=False):
    oracle = NetlistOracle(build_eco_netlist(16, 12, seed=5))
    cfg = fast_config(time_limit=30.0, seed=7,
                      enable_optimization=False,
                      robustness=RobustnessConfig(max_retries=0),
                      observability=ObsConfig(enabled=enabled,
                                              profile=profile))
    start = time.perf_counter()
    result = LogicRegressor(cfg).learn(oracle)
    return time.perf_counter() - start, result


def _alternating_pairs(base, test):
    """Run ``PAIRS`` back-to-back (base, test) pairs, base first on even
    pairs and test first on odd ones.  Returns the per-arm lists of
    whatever ``base()`` and ``test()`` return."""
    base_runs, test_runs = [], []
    for i in range(PAIRS):
        if i % 2:
            test_runs.append(test())
            base_runs.append(base())
        else:
            base_runs.append(base())
            test_runs.append(test())
    return base_runs, test_runs


def median_pair_overhead(base_times, test_times) -> float:
    """Median over pairs of ``test / base - 1``."""
    return statistics.median(t / b for b, t in zip(base_times, test_times)) \
        - 1.0


def test_tracer_overhead_under_five_percent(benchmark):
    def timed(enabled):
        t, result = _run(enabled)
        return t, result.gate_count

    def compare():
        off_runs, on_runs = _alternating_pairs(lambda: timed(False),
                                               lambda: timed(True))
        gates = {g for _, g in off_runs + on_runs}
        off_times = [t for t, _ in off_runs]
        on_times = [t for t, _ in on_runs]
        return (statistics.median(on_times), statistics.median(off_times),
                median_pair_overhead(off_times, on_times), gates)

    on, off, overhead, gates = one_shot(benchmark, compare)
    benchmark.extra_info.update(
        obs_on_s=round(on, 4), obs_off_s=round(off, 4),
        overhead_pct=round(overhead * 100, 2))
    print(f"\nobs on: {on:.3f}s, off: {off:.3f}s, "
          f"overhead {overhead * 100:+.2f}%")
    # Instrumentation must not change the learned circuit.
    assert len(gates) == 1
    assert overhead < OVERHEAD_BUDGET, \
        f"observability overhead {overhead * 100:.2f}% exceeds 5%"


def test_trace_export_cost_is_negligible(benchmark, tmp_path):
    """Serializing the artifacts is milliseconds, not seconds."""
    _, result = _run(True)
    instr = result.instrumentation
    assert instr is not None

    def export():
        from repro.obs.trace import export_trace

        start = time.perf_counter()
        export_trace(instr.tracer, str(tmp_path / "t.jsonl"))
        return time.perf_counter() - start

    elapsed = one_shot(benchmark, export)
    benchmark.extra_info.update(export_s=round(elapsed, 5))
    assert elapsed < 1.0


FLEET_JOBS = 8
FLEET_ROUNDS = 3


def _drain_fleet(root, telemetry_on):
    """Submit a small mixed-tier fleet and time the drain only."""
    import os

    from repro.network.blif import write_blif
    from repro.service.jobs import JobSpec
    from repro.service.scheduler import JobScheduler, SchedulerPolicy
    from repro.service.spool import Spool

    golden = os.path.join(root, "golden.blif")
    if not os.path.exists(golden):
        with open(golden, "w") as handle:
            write_blif(build_eco_netlist(12, 6, seed=7, support_low=4,
                                         support_high=7), handle)
    spool = Spool(os.path.join(
        root, f"spool-{'on' if telemetry_on else 'off'}-{time.time_ns()}"))
    tiers = ["interactive", "standard", "batch"]
    for i in range(FLEET_JOBS):
        spec = JobSpec(job_id=f"job-{i}", circuit=golden,
                       tier=tiers[i % 3], profile="fast",
                       time_limit=30.0, seed=7)
        spool.submit(spec, circuit_src=golden)
    policy = SchedulerPolicy(inline=True, telemetry=telemetry_on)
    sched = JobScheduler(spool, policy)
    start = time.perf_counter()
    summary = sched.drain(timeout=300)
    elapsed = time.perf_counter() - start
    assert all(info["status"] in ("verified", "repaired", "degraded")
               for info in summary.values())
    return elapsed, spool


def test_fleet_telemetry_overhead_under_five_percent(benchmark,
                                                     tmp_path):
    """The live fleet view must not tax the scheduler.

    The same inline 8-job drain runs with telemetry on and off,
    interleaved after a discarded warmup round; per-arm wall is the
    minimum over three rounds, and the instrumented drain must stay
    within the 5% budget.  Jobs are sized so a drain takes ~1s —
    telemetry's fixed per-refresh cost is a few ms, so degenerately
    tiny fleets would measure artifact-write constants, not the
    steady-state scheduler tax.
    """

    def compare():
        _drain_fleet(str(tmp_path), True)  # warmup: imports, caches
        on_times, off_times = [], []
        on_spool = None
        for _ in range(FLEET_ROUNDS):
            t_off, _ = _drain_fleet(str(tmp_path), False)
            t_on, on_spool = _drain_fleet(str(tmp_path), True)
            off_times.append(t_off)
            on_times.append(t_on)
        return min(on_times), min(off_times), on_spool

    on, off, spool = one_shot(benchmark, compare)
    overhead = on / off - 1.0
    benchmark.extra_info.update(
        fleet_on_s=round(on, 4), fleet_off_s=round(off, 4),
        fleet_overhead_pct=round(overhead * 100, 2))
    print(f"\nfleet drain on: {on:.3f}s, off: {off:.3f}s, "
          f"overhead {overhead * 100:+.2f}%")
    # The instrumented drain actually produced the fleet artifacts.
    import json
    import os
    assert os.path.exists(spool.fleet_status_path())
    status = json.load(open(spool.fleet_status_path()))
    assert status["telemetry"]["records"] == FLEET_JOBS
    assert overhead < OVERHEAD_BUDGET, \
        f"fleet telemetry overhead {overhead * 100:.2f}% exceeds 5%"


# -- cost-model profiler: overhead and counter determinism --------------------


def run_profile_bench() -> dict:
    """Alternating obs-on / profile-on learn pairs from identical seeds.

    ``overhead_pct`` is the median per-pair ratio and the wall metrics
    are per-arm medians (noisy, machine-dependent); the ``counters``
    block is the deterministic cost model and must be bit-identical
    across pairs, jobs counts, and kernel backends.
    """
    from repro.obs.profile import Profiler

    def obs_on():
        t, result = _run(True)
        return t, result.gate_count, None

    def profiled():
        t, result = _run(True, profile=True)
        return t, result.gate_count, Profiler.from_instrumentation(
            result.instrumentation).counters()

    on_runs, prof_runs = _alternating_pairs(obs_on, profiled)
    on_times = [t for t, _, _ in on_runs]
    prof_times = [t for t, _, _ in prof_runs]
    gates = {g for _, g, _ in on_runs + prof_runs}
    counter_runs = [c for _, _, c in prof_runs]
    overhead = median_pair_overhead(on_times, prof_times)
    return {
        "obs_wall_s": round(statistics.median(on_times), 4),
        "profile_wall_s": round(statistics.median(prof_times), 4),
        "overhead_pct": round(overhead * 100, 2),
        "gate_counts": sorted(gates),
        "counters_stable": all(c == counter_runs[0]
                               for c in counter_runs),
        "counters": counter_runs[0],
    }


def check_profile_gates(metrics: dict, snapshot: dict = None) -> list:
    """Acceptance gates, shared by pytest, __main__ and CI."""
    failures = []
    if metrics["overhead_pct"] > OVERHEAD_BUDGET * 100:
        failures.append(
            f"profiler overhead {metrics['overhead_pct']}% exceeds "
            f"{OVERHEAD_BUDGET * 100:.0f}%")
    if len(metrics["gate_counts"]) != 1:
        failures.append("profiling changed the learned circuit: "
                        f"gate counts {metrics['gate_counts']}")
    if not metrics["counters"]:
        failures.append("profiler produced no cost counters")
    if not metrics["counters_stable"]:
        failures.append(
            "deterministic cost counters varied across pairs")
    if snapshot is not None:
        want = snapshot["metrics"]["counters"]
        got = metrics["counters"]
        drift = [name for name in sorted(set(want) | set(got))
                 if want.get(name) != got.get(name)]
        if drift:
            failures.append(
                "deterministic cost counters drifted vs snapshot: "
                + ", ".join(f"{name} {want.get(name)} -> {got.get(name)}"
                            for name in drift))
    return failures


def test_profiler_overhead_and_determinism(benchmark):
    """Profiler on must stay within budget with stable counters."""
    metrics = one_shot(benchmark, run_profile_bench)
    benchmark.extra_info.update(
        obs_wall_s=metrics["obs_wall_s"],
        profile_wall_s=metrics["profile_wall_s"],
        profiler_overhead_pct=metrics["overhead_pct"],
        counter_names=len(metrics["counters"]))
    print(f"\nprofile on: {metrics['profile_wall_s']}s, "
          f"off: {metrics['obs_wall_s']}s, "
          f"overhead {metrics['overhead_pct']:+.2f}%")
    failures = check_profile_gates(metrics)
    assert not failures, failures


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", action="store_true",
                        help="run the cost-model profiler case")
    parser.add_argument("--out", metavar="PATH",
                        help="write the snapshot JSON here")
    parser.add_argument("--check", metavar="PATH",
                        help="gate against an existing snapshot "
                             "(deterministic counters must match "
                             "exactly)")
    args = parser.parse_args()
    if not args.profile:
        parser.error("only --profile is supported standalone; the "
                     "overhead arms need pytest-benchmark")
    snapshot = None
    if args.check:
        with open(args.check) as handle:
            snapshot = json.load(handle)
    metrics = run_profile_bench()
    failures = check_profile_gates(metrics, snapshot)
    out = {"bench": "profile", "gates_passed": not failures,
           "failures": failures, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"written to {args.out}", end="; ")
    print(f"profile on {metrics['profile_wall_s']}s vs "
          f"off {metrics['obs_wall_s']}s "
          f"({metrics['overhead_pct']:+.2f}%), "
          f"{len(metrics['counters'])} counters"
          + ("" if not failures else f"; FAILURES: {failures}"))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
