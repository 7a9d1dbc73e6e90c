"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``learn``     treat a circuit file (BLIF / AAG) as a black box, learn a
                new circuit for it and write the result.
- ``optimize``  run the mini-ABC scripts on a circuit file.
- ``check``     SAT equivalence check between two circuit files.
- ``evaluate``  run the contest suite (Table II) at a chosen budget.
- ``stats``     print size / depth / interface facts about a circuit file.
- ``chaos``     run the seeded fault-scenario matrix (self-verifying
                execution smoke test).
- ``serve``     run the learning service against a spool directory
                (resumes any in-flight jobs, then schedules until
                SIGINT/SIGTERM — or until drained with ``--drain``).
- ``submit``    submit a circuit as a job to a service spool.
- ``status``    show one job (or the whole fleet) from a spool.
- ``cancel``    request cancellation of a spooled job.
- ``fleet``     live service-wide telemetry: aggregated fleet status
                (``fleet status [--watch]``) from per-job flushes.

File formats are chosen by extension: ``.blif``, ``.aag`` for input and
output, plus ``.v`` (write-only structural Verilog).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from repro.aig.aig import Aig
from repro.aig.aiger import read_aag, write_aag
from repro.network.blif import read_blif, write_blif
from repro.network.netlist import Netlist
from repro.network.verilog import write_verilog


def load_circuit(path: str) -> Netlist:
    """Read a netlist by extension."""
    if path.endswith(".blif"):
        with open(path) as handle:
            return read_blif(handle)
    if path.endswith(".aag"):
        with open(path) as handle:
            return read_aag(handle).to_netlist()
    raise SystemExit(f"unsupported input format: {path!r} "
                     "(expected .blif or .aag)")


def save_circuit(net: Netlist, path: str) -> None:
    """Write a netlist by extension."""
    if path.endswith(".blif"):
        with open(path, "w") as handle:
            write_blif(net, handle)
    elif path.endswith(".aag"):
        with open(path, "w") as handle:
            write_aag(Aig.from_netlist(net), handle)
    elif path.endswith(".v"):
        with open(path, "w") as handle:
            write_verilog(net, handle)
    else:
        raise SystemExit(f"unsupported output format: {path!r} "
                         "(expected .blif, .aag or .v)")


def cmd_learn(args: argparse.Namespace) -> int:
    from repro.core.config import (ObsConfig, RegressorConfig,
                                   RobustnessConfig)
    from repro.core.regressor import LogicRegressor
    from repro.eval.accuracy import accuracy
    from repro.eval.patterns import contest_test_patterns
    from repro.oracle.netlist_oracle import NetlistOracle

    golden = load_circuit(args.circuit)
    oracle = NetlistOracle(golden)
    if args.inject_faults:
        from repro.robustness.faults import FaultModel, FaultyOracle

        oracle = FaultyOracle(
            oracle,
            FaultModel(transient_rate=args.inject_faults,
                       bitflip_rate=args.inject_faults / 20.0),
            seed=args.seed)
    config = RegressorConfig(
        time_limit=args.time_limit,
        enable_preprocessing=not args.no_preprocessing,
        enable_optimization=not args.no_optimize,
        seed=args.seed,
        jobs=args.jobs,
        enable_sample_bank=not args.no_sample_bank,
        kernel_backend=args.kernel_backend,
        observability=ObsConfig(
            profile=bool(args.profile_out or args.profile_mem),
            profile_memory=bool(args.profile_mem)),
        robustness=RobustnessConfig(
            max_retries=args.max_retries,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            audit_rate=args.audit_rate,
            verify=not args.no_verify))
    from repro.service.signals import ShutdownRequested, graceful_shutdown
    try:
        with graceful_shutdown():
            result = LogicRegressor(config).learn(oracle)
    except ShutdownRequested as exc:
        # A first SIGINT/SIGTERM lands here between pipeline steps: the
        # checkpoint already holds every completed output, so report
        # where the resumable state lives and flush what observability
        # captured before the signal.
        print(f"interrupted: {exc}")
        if args.checkpoint:
            print(f"resumable checkpoint: {args.checkpoint} (rerun with "
                  f"--checkpoint {args.checkpoint} --resume)")
        _flush_partial_obs(args, exc.instrumentation)
        return 130
    for line in result.step_trace:
        print("  " + line)
    if result.verification is not None:
        ver = result.verification
        statuses = ", ".join(f"{k}={v}" for k, v in
                             sorted(ver.status_counts().items()))
        print(f"verification: {statuses} ({ver.rows_spent} rows, "
              f"target {ver.target * 100:.2f}%)")
    patterns = contest_test_patterns(golden.num_pis, total=args.patterns)
    acc = accuracy(result.netlist, golden, patterns)
    print(f"learned {result.gate_count} gates "
          f"(hidden: {golden.gate_count()}), accuracy {acc * 100:.4f}%, "
          f"{result.queries} queries, {result.elapsed:.1f}s")
    if result.bank_stats is not None:
        bs = result.bank_stats
        served = bs.hits + bs.misses
        rate = (100.0 * bs.hits / served) if served else 0.0
        print(f"sample bank: {bs.hits} rows served from memory / "
              f"{bs.misses} queried ({rate:.1f}% hit rate), "
              f"{bs.rows_recorded} recorded, {bs.rows_evicted} evicted")
    _write_obs_artifacts(args, result, config, acc)
    if args.out:
        save_circuit(result.netlist, args.out)
        print(f"written to {args.out}")
    return 0 if acc >= 0.9999 or args.no_accuracy_gate else 1


def _flush_partial_obs(args: argparse.Namespace, instr) -> None:
    """Best-effort trace/metrics flush for an interrupted learn."""
    if instr is None:
        return
    import json

    if getattr(args, "trace_out", None):
        from repro.obs.trace import export_trace

        for path in export_trace(instr.tracer, args.trace_out):
            print(f"partial trace written to {path}")
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w") as handle:
            json.dump(instr.metrics.to_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"partial metrics written to {args.metrics_out}")


def _write_obs_artifacts(args: argparse.Namespace, result, config,
                         acc: float) -> None:
    """Emit --trace-out / --metrics-out / --report-out / --profile-out
    artifacts."""
    if not (args.trace_out or args.metrics_out or args.report_out
            or args.profile_out):
        return
    instr = result.instrumentation
    if instr is None:
        raise SystemExit("observability is disabled; cannot write "
                         "trace/metrics/report artifacts")
    import json

    if args.profile_out:
        from repro.obs.profile import Profiler, render_profile

        profile = Profiler.from_instrumentation(instr).to_json()
        with open(args.profile_out, "w") as handle:
            json.dump(profile, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"profile written to {args.profile_out}")
        print(render_profile(profile))
    if args.trace_out:
        from repro.obs.trace import export_trace

        for path in export_trace(instr.tracer, args.trace_out):
            print(f"trace written to {path}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(instr.metrics.to_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"metrics written to {args.metrics_out}")
    if args.report_out:
        from repro.obs.report import build_run_report, write_run_report
        from repro.robustness.storage import get_storage

        storage = get_storage()
        report = build_run_report(
            result, config, accuracy=acc,
            storage={"durability": storage.durability,
                     "brownout": False,
                     "counters": storage.counters.to_json()})
        write_run_report(report, args.report_out)
        print(f"run report written to {args.report_out}")


def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.synth.scripts import optimize_netlist

    net = load_circuit(args.circuit)
    optimized, report = optimize_netlist(
        net, time_limit=args.time_limit,
        rng=np.random.default_rng(args.seed))
    print(f"{net.gate_count()} -> {optimized.gate_count()} gates via "
          f"{'/'.join(report.scripts_run)} ({report.elapsed:.1f}s)")
    if args.out:
        save_circuit(optimized, args.out)
        print(f"written to {args.out}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.sat.equivalence import find_counterexample
    from repro.sat.solver import SolveResult

    left = load_circuit(args.left)
    right = load_circuit(args.right)
    result, cex = find_counterexample(
        left, right,
        max_conflicts=args.max_conflicts if args.max_conflicts else None)
    if result is SolveResult.UNSAT:
        print("EQUIVALENT")
        return 0
    if result is SolveResult.SAT:
        print("NOT EQUIVALENT; counterexample: "
              + "".join(str(b) for b in cex))
        return 1
    print("UNDECIDED (conflict budget exhausted)")
    return 2


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.config import RegressorConfig
    from repro.core.regressor import LogicRegressor
    from repro.eval.harness import run_suite
    from repro.eval.reporting import format_table, summarize_by_category
    from repro.oracle.suite import contest_suite

    def ours(oracle):
        config = RegressorConfig(time_limit=args.budget, r_support=512)
        return LogicRegressor(config).learn(oracle).netlist

    case_ids = args.cases.split(",") if args.cases else None
    results = run_suite(contest_suite(case_ids), {"ours": ours},
                        test_patterns=args.patterns, verbose=True)
    print()
    print(format_table(results))
    print()
    print(summarize_by_category(results))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.robustness.chaos import run_chaos_matrix

    names = args.scenarios.split(",") if args.scenarios else None
    try:
        summary = run_chaos_matrix(names, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc))
    for scenario in summary["scenarios"]:
        mark = "PASS" if scenario["passed"] else "FAIL"
        print(f"{mark} {scenario['name']}")
        for failure in scenario["failures"]:
            print(f"     {failure}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"chaos report written to {args.out}")
    total = len(summary["scenarios"])
    passed = sum(1 for s in summary["scenarios"] if s["passed"])
    print(f"{passed}/{total} scenarios passed")
    return 0 if summary["passed"] else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.scheduler import JobScheduler, SchedulerPolicy
    from repro.service.spool import Spool
    from repro.service.telemetry import FleetTelemetry

    spool = Spool(args.spool)
    policy = SchedulerPolicy(
        max_active=args.max_active,
        queue_depth=args.queue_depth,
        poll_interval=args.poll,
        heartbeat_timeout=args.heartbeat_timeout,
        max_job_retries=args.max_job_retries,
        inline=args.inline,
        telemetry=not args.no_telemetry,
        telemetry_interval=args.telemetry_interval)
    try:
        policy.validate()
    except ValueError as exc:
        raise SystemExit(f"invalid service configuration: {exc}")

    def on_event(kind: str, job_id: str, detail: str) -> None:
        line = f"[{kind}] {job_id}"
        if detail:
            line += f" ({detail})"
        print(line, flush=True)

    telemetry = None
    if policy.telemetry:
        slo_policy = None
        if args.slo_config:
            from repro.obs.slo import SloPolicy
            try:
                slo_policy = SloPolicy.load(args.slo_config)
            except (OSError, ValueError, KeyError) as exc:
                raise SystemExit(f"invalid SLO config "
                                 f"{args.slo_config!r}: {exc}")
        telemetry = FleetTelemetry(
            spool, interval=policy.telemetry_interval,
            slo_policy=slo_policy, prom_out=args.prom_out,
            on_event=on_event)
    elif args.prom_out or args.slo_config:
        raise SystemExit("--prom-out/--slo-config require telemetry "
                         "(drop --no-telemetry)")

    sched = JobScheduler(spool, policy, on_event=on_event,
                         telemetry=telemetry)
    resumed = sched.recover()
    if resumed:
        print(f"resumed {len(resumed)} in-flight job(s): "
              + ", ".join(resumed), flush=True)
    if args.drain:
        summary = sched.drain(timeout=args.timeout if args.timeout > 0
                              else None)
        counts: dict = {}
        for info in summary.values():
            counts[info["status"]] = counts.get(info["status"], 0) + 1
        print("drained: " + (", ".join(f"{k}={v}" for k, v in
                                       sorted(counts.items()))
                             or "empty spool"))
        return 0 if spool.all_terminal() else 1
    reason = sched.serve()
    print(f"service stopped ({reason}); in-flight journals left "
          "resumable", flush=True)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import uuid

    from repro.service.client import submit_job
    from repro.service.jobs import JobSpec
    from repro.service.spool import DuplicateJobError, Spool

    spool = Spool(args.spool)
    job_id = args.job_id or f"job-{uuid.uuid4().hex[:8]}"
    spec = JobSpec(
        job_id=job_id, circuit=args.circuit, tenant=args.tenant,
        tier=args.tier, priority=args.priority,
        time_limit=args.time_limit, seed=args.seed,
        max_retries=args.max_retries, audit_rate=args.audit_rate,
        inject_faults=args.inject_faults, profile=args.config_profile,
        fault=args.fault, fault_attempts=args.fault_attempts)
    try:
        spec.validate()
    except ValueError as exc:
        raise SystemExit(f"invalid job: {exc}")
    try:
        submit_job(spool, spec, circuit_src=args.circuit)
    except DuplicateJobError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(f"cannot submit {args.circuit!r}: {exc}")
    print(job_id)
    return 0


def cmd_prof(args: argparse.Namespace) -> int:
    import json

    from repro.obs.profile import render_profile

    with open(args.report) as handle:
        report = json.load(handle)
    profile = report.get("profile")
    if not profile:
        raise SystemExit(
            f"{args.report}: no profile block (schema_version "
            f"{report.get('schema_version')}); rerun the learn with "
            f"--profile-out to arm the cost-model profiler")
    print(render_profile(profile, top=args.top))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import fleet_status, job_status
    from repro.service.spool import Spool

    spool = Spool(args.spool)
    if args.job_id:
        info = job_status(spool, args.job_id)
        if info is None:
            raise SystemExit(f"unknown job {args.job_id!r}")
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
        else:
            print(f"{args.job_id}: {info['status']} "
                  f"(attempt {info['attempt']}, "
                  f"{info['billed_rows']} rows billed)")
            if info["detail"]:
                print(f"  {info['detail']}")
            rejection = info.get("rejection")
            if rejection:
                print(f"  rejected: {rejection.get('reason_code')} — "
                      f"{rejection.get('detail')}")
        return 0
    summary = fleet_status(spool)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if not summary:
        print("spool is empty")
        return 0
    for job_id, info in sorted(summary.items()):
        print(f"{job_id}: {info['status']} (attempt {info['attempt']}, "
              f"{info['billed_rows']} rows billed)")
    return 0


def _render_fleet_status(snapshot: dict) -> str:
    """Human-readable one-screen rendering of a fleet snapshot."""
    lines = []
    slo = snapshot.get("slo") or {}
    overall = slo.get("overall", "unknown")
    jobs = snapshot["jobs"]
    status_bits = ", ".join(f"{k}={v}" for k, v in
                            sorted(jobs["by_status"].items()))
    lines.append(f"fleet: {jobs['total']} jobs "
                 f"({status_bits or 'none'}); health: {overall}")
    totals = snapshot["totals"]
    lines.append(f"totals: {totals['billed_rows']} rows billed / "
                 f"{totals['billed_calls']} calls, "
                 f"{totals['cache_hits']} cache hits, "
                 f"{jobs['retries']} retries")
    for tier, entry in sorted(snapshot["tiers"].items()):
        latency = entry["queue_latency"]
        p95 = latency["p95"]
        burn = entry["budget_burn"]
        lines.append(
            f"  {tier}: {entry['jobs']} jobs, "
            f"{entry['billed_rows']} rows, queue p95 "
            + (f"{p95:.3f}s" if p95 is not None else "n/a")
            + ", budget burn "
            + (f"{burn:.0%}" if burn is not None else "n/a"))
    rules = slo.get("rules") or {}
    degraded = {name: status for name, status in sorted(rules.items())
                if status != "healthy"}
    if degraded:
        lines.append("slo: " + ", ".join(f"{n}={s}" for n, s in
                                         degraded.items()))
    tel = snapshot["telemetry"]
    if tel["corrupt_files"]:
        lines.append(f"telemetry: {tel['corrupt_files']} corrupt "
                     f"file(s), {tel['corrupt_lines']} line(s) skipped")
    return "\n".join(lines)


def cmd_fleet(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.service.spool import Spool, read_json_checked
    from repro.service.telemetry import FleetTelemetry

    spool = Spool(args.spool)

    def load_snapshot() -> dict:
        # Prefer the scheduler's live file; fall back to an offline
        # aggregation so the command works on a spool nobody serves.
        snapshot = read_json_checked(spool.fleet_status_path())
        if snapshot is None:
            snapshot = FleetTelemetry(spool).collect()
        return snapshot

    while True:
        snapshot = load_snapshot()
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(_render_fleet_status(snapshot))
        if not args.watch:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
        print()


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.client import cancel_job
    from repro.service.spool import Spool

    spool = Spool(args.spool)
    if not cancel_job(spool, args.job_id, reason=args.reason):
        raise SystemExit(f"unknown job {args.job_id!r}")
    print(f"cancel requested for {args.job_id} (honored at the "
          "scheduler's next tick)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.synth.lutmap import map_luts

    net = load_circuit(args.circuit)
    aig = Aig.from_netlist(net)
    mapping = map_luts(aig, k=4)
    print(f"name    : {net.name}")
    print(f"inputs  : {net.num_pis}")
    print(f"outputs : {net.num_pos}")
    print(f"gates   : {net.gate_count()} (2-input primitive)")
    print(f"aig     : {aig.size()} ANDs, depth {aig.depth()}")
    print(f"4-luts  : {mapping.num_luts}, depth {mapping.depth}")
    for j in range(min(net.num_pos, 20)):
        support = net.structural_support(j)
        print(f"  {net.po_names[j]}: |support| = {len(support)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn a circuit for a black box")
    learn.add_argument("circuit", help="golden circuit file (.blif/.aag)")
    learn.add_argument("--out", help="write the learned circuit here")
    learn.add_argument("--time-limit", type=float, default=120.0)
    learn.add_argument("--patterns", type=int, default=30000)
    learn.add_argument("--seed", type=int, default=2019)
    learn.add_argument("--no-preprocessing", action="store_true")
    learn.add_argument("--no-optimize", action="store_true")
    learn.add_argument("--no-accuracy-gate", action="store_true",
                       help="exit 0 even below the 99.99%% bar")
    learn.add_argument("--max-retries", type=int, default=2,
                       help="transparent retries per failed oracle query "
                            "(0 disables the retry layer)")
    learn.add_argument("--checkpoint", metavar="PATH",
                       help="persist each completed output to this file")
    learn.add_argument("--resume", action="store_true",
                       help="restore completed outputs from --checkpoint "
                            "instead of re-learning them")
    learn.add_argument("--inject-faults", type=float, default=0.0,
                       metavar="RATE",
                       help="chaos mode: wrap the oracle in a seeded "
                            "fault injector with this transient-fault "
                            "rate (and RATE/20 bit-flip noise)")
    learn.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="learn independent outputs across N worker "
                            "processes (same seed gives a bit-identical "
                            "circuit for any N; default 1)")
    learn.add_argument("--audit-rate", type=float, default=0.0,
                       metavar="RATE",
                       help="re-query this fraction of delivered rows "
                            "through the corruption audit (0 disables; "
                            "poisoned cache entries are invalidated)")
    learn.add_argument("--no-verify", action="store_true",
                       help="skip the post-learning verify-and-repair "
                            "stage")
    learn.add_argument("--no-sample-bank", action="store_true",
                       help="disable the cross-output sample bank "
                            "(every probe hits the oracle)")
    learn.add_argument("--kernel-backend", default="auto",
                       metavar="BACKEND",
                       help="packed logic-kernel backend: 'numpy' "
                            "(default), 'numba' (JIT, falls back to "
                            "numpy when unavailable), or 'auto' "
                            "(honour $REPRO_KERNEL_BACKEND)")
    learn.add_argument("--trace-out", metavar="PATH",
                       help="write the structured trace here (.jsonl "
                            "also gets a Perfetto-loadable sibling "
                            "<stem>.trace.json; other extensions get "
                            "Chrome trace JSON directly)")
    learn.add_argument("--metrics-out", metavar="PATH",
                       help="write the metrics registry dump (JSON)")
    learn.add_argument("--report-out", metavar="PATH",
                       help="write the per-run manifest "
                            "(run_report.json; see "
                            "docs/run_report.schema.json)")
    learn.add_argument("--profile-out", metavar="PATH",
                       help="arm the cost-model profiler and write its "
                            "JSON profile (self-time table + "
                            "deterministic kernel counters) here; also "
                            "prints the top-N table")
    learn.add_argument("--profile-mem", action="store_true",
                       help="with the profiler: also record per-stage "
                            "tracemalloc memory high-water marks "
                            "(implies profiling)")
    learn.set_defaults(fn=cmd_learn)

    opt = sub.add_parser("optimize", help="optimize a circuit file")
    opt.add_argument("circuit")
    opt.add_argument("--out")
    opt.add_argument("--time-limit", type=float, default=60.0)
    opt.add_argument("--seed", type=int, default=2019)
    opt.set_defaults(fn=cmd_optimize)

    check = sub.add_parser("check", help="equivalence-check two circuits")
    check.add_argument("left")
    check.add_argument("right")
    check.add_argument("--max-conflicts", type=int, default=0)
    check.set_defaults(fn=cmd_check)

    ev = sub.add_parser("evaluate", help="run the contest suite")
    ev.add_argument("--budget", type=float, default=60.0)
    ev.add_argument("--cases", type=str, default=None)
    ev.add_argument("--patterns", type=int, default=30000)
    ev.set_defaults(fn=cmd_evaluate)

    stats = sub.add_parser("stats", help="print circuit statistics")
    stats.add_argument("circuit")
    stats.set_defaults(fn=cmd_stats)

    chaos = sub.add_parser("chaos",
                           help="run the seeded fault-scenario matrix")
    chaos.add_argument("--scenarios", type=str, default=None,
                       help="comma-separated subset (default: all); see "
                            "repro.robustness.chaos.SCENARIOS")
    chaos.add_argument("--seed", type=int, default=2019)
    chaos.add_argument("--out", metavar="PATH",
                       help="write the JSON chaos report here")
    chaos.set_defaults(fn=cmd_chaos)

    serve = sub.add_parser(
        "serve", help="run the learning service on a spool directory")
    serve.add_argument("--spool", required=True,
                       help="spool directory (created if missing)")
    serve.add_argument("--drain", action="store_true",
                       help="exit once every spooled job is terminal "
                            "instead of serving forever")
    serve.add_argument("--timeout", type=float, default=0.0,
                       help="with --drain: give up after this many "
                            "seconds (0 = no limit)")
    serve.add_argument("--inline", action="store_true",
                       help="run jobs in-process instead of supervised "
                            "worker processes (tests, debugging)")
    serve.add_argument("--max-active", type=int, default=2,
                       help="concurrent jobs (default 2)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="admission bound on waiting jobs; beyond it "
                            "submissions are shed with a structured "
                            "rejection (default 16)")
    serve.add_argument("--poll", type=float, default=0.05,
                       help="scheduler tick interval, seconds")
    serve.add_argument("--heartbeat-timeout", type=float, default=15.0,
                       help="declare a worker hung after this much "
                            "heartbeat silence (default 15s)")
    serve.add_argument("--max-job-retries", type=int, default=1,
                       help="redispatches after worker loss before a "
                            "job fails terminally (default 1)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the live fleet view (no "
                            "fleet_status.json, SLO evaluation or "
                            "merged trace)")
    serve.add_argument("--telemetry-interval", type=float, default=0.5,
                       help="seconds between fleet-status refreshes "
                            "(default 0.5)")
    serve.add_argument("--prom-out", metavar="PATH",
                       help="also render the fleet metrics as a "
                            "Prometheus text exposition at every "
                            "refresh")
    serve.add_argument("--slo-config", metavar="PATH",
                       help="JSON SLO policy (see repro.obs.slo; "
                            "default: built-in thresholds)")
    serve.set_defaults(fn=cmd_serve)

    submit = sub.add_parser("submit",
                            help="submit a job to a service spool")
    submit.add_argument("--spool", required=True)
    submit.add_argument("circuit", help="golden circuit (.blif/.aag), "
                                        "copied into the spool")
    submit.add_argument("--job-id", default=None,
                        help="explicit id (default: random job-<hex>)")
    submit.add_argument("--tenant", default="anonymous")
    submit.add_argument("--tier", default="standard",
                        choices=["interactive", "standard", "batch"],
                        help="budget/deadline tier (caps --time-limit "
                             "and sets default priority)")
    submit.add_argument("--priority", type=int, default=None,
                        help="override the tier's queue priority")
    submit.add_argument("--time-limit", type=float, default=20.0)
    submit.add_argument("--seed", type=int, default=2019)
    submit.add_argument("--max-retries", type=int, default=2,
                        help="oracle-query retries inside the run")
    submit.add_argument("--audit-rate", type=float, default=0.0)
    submit.add_argument("--inject-faults", type=float, default=0.0)
    submit.add_argument("--config-profile", default=None,
                        choices=["default", "fast"],
                        help="job config scale: 'default' or 'fast' "
                             "(default: fast).  This picks the run's "
                             "RegressorConfig preset — it is unrelated "
                             "to the cost-model profiler "
                             "(repro learn --profile-out)")
    submit.add_argument("--profile", default=None,
                        choices=["default", "fast"],
                        help="legacy alias of --config-profile (job "
                             "config scale, NOT the profiler)")
    submit.add_argument("--fault", default=None,
                        help="chaos injection: crash | hang | "
                             "sleep:<seconds>")
    submit.add_argument("--fault-attempts", type=int, default=1,
                        help="attempts the fault applies to")
    submit.set_defaults(fn=cmd_submit)

    prof = sub.add_parser(
        "prof", help="render the profile block of a run_report.json")
    prof.add_argument("report", help="run_report.json written with "
                                     "--report-out --profile-out")
    prof.add_argument("--top", type=int, default=15,
                      help="rows in the self-time table (default 15)")
    prof.set_defaults(fn=cmd_prof)

    status = sub.add_parser("status",
                            help="show spooled job (or fleet) status")
    status.add_argument("--spool", required=True)
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--json", action="store_true",
                        help="machine-readable output")
    status.set_defaults(fn=cmd_status)

    cancel = sub.add_parser("cancel",
                            help="request cancellation of a spooled job")
    cancel.add_argument("--spool", required=True)
    cancel.add_argument("job_id")
    cancel.add_argument("--reason", default="cancelled by client")
    cancel.set_defaults(fn=cmd_cancel)

    fleet = sub.add_parser("fleet",
                           help="live service-wide telemetry")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="aggregated fleet status (health, tiers, "
                       "totals) from fleet_status.json or an offline "
                       "aggregation of the spool")
    fleet_status.add_argument("--spool", required=True)
    fleet_status.add_argument("--json", action="store_true",
                              help="machine-readable output")
    fleet_status.add_argument("--watch", action="store_true",
                              help="re-render every --interval seconds "
                                   "until interrupted")
    fleet_status.add_argument("--interval", type=float, default=2.0)
    fleet_status.set_defaults(fn=cmd_fleet)
    return parser


def _validate_learn_args(parser: argparse.ArgumentParser,
                         args: argparse.Namespace) -> None:
    """Reject out-of-range flags and nonsensical combos with a usage
    error (exit 2) before any oracle work starts."""
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1 (got {args.jobs})")
    if args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0 "
                     f"(got {args.max_retries})")
    if not 0.0 <= args.audit_rate <= 1.0:
        parser.error(f"--audit-rate must be in [0, 1] "
                     f"(got {args.audit_rate})")
    if not 0.0 <= args.inject_faults < 1.0:
        parser.error(f"--inject-faults must be in [0, 1) "
                     f"(got {args.inject_faults})")
    if args.time_limit <= 0:
        parser.error(f"--time-limit must be positive "
                     f"(got {args.time_limit})")
    if args.patterns < 1:
        parser.error(f"--patterns must be >= 1 (got {args.patterns})")
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint (there is nothing "
                     "to resume from)")
    if args.kernel_backend not in ("auto", "numpy", "numba"):
        parser.error(f"--kernel-backend must be 'auto', 'numpy' or "
                     f"'numba' (got {args.kernel_backend!r})")


def _validate_submit_args(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> None:
    """Resolve the job-config profile from its two spellings.

    ``--profile`` predates the cost-model profiler and reads like a
    profiling switch; ``--config-profile`` is the unambiguous name.
    Giving both with different values is a usage error, never a silent
    pick.
    """
    if (args.profile is not None and args.config_profile is not None
            and args.profile != args.config_profile):
        parser.error(
            f"--profile {args.profile!r} conflicts with "
            f"--config-profile {args.config_profile!r}; they are the "
            f"same setting (the job config scale) — pass one")
    args.config_profile = args.config_profile or args.profile or "fast"


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "learn":
        _validate_learn_args(parser, args)
    elif args.command == "submit":
        _validate_submit_args(parser, args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
