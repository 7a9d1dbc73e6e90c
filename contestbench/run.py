"""Contest-suite benchmark: learn a workload of Table II cases, check the
circuits, print the metrics.

Usage (from the repository root)::

    python3 contestbench/run.py --workload templates --seed 2019 \\
        --seconds 25 --trace 0

Load is closed-loop: one process learns one case at a time with
``jobs=1``, each from emptied program caches, as a fresh ``repro learn``
would.  A *pass* learns every case of the workload once; passes
repeat until ``--seconds`` is used up (at least two, so the
deterministic metrics can be compared between passes).  ``--seed``
draws the scoring patterns; the learner's own seed stays pinned (see
``workloads.LEARNER_SEED``).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 2
SETUP_PROBES = 7

REFERENCE_CALIB_S = 0.065
"""Host-speed marker (:func:`host_speed_s`) of the reference host, the
2-core machine that measured the baseline.  Time metrics are wall
seconds rescaled to that host: ``wall * REFERENCE_CALIB_S / calib``,
with ``calib`` the mean of the markers taken just before and just after
the timed work.  On the shared reference host raw wall seconds moved by
up to 35% within minutes, beyond any usable regression bound; rescaled,
ten runs of one workload spread 3-15% and two sets of runs agreed
within 13%."""

END_TO_END_UNITS = {
    "learn_s": "s", "gates": "count", "accuracy_mean": "fraction",
    "billed_rows": "rows", "oracle_calls": "count",
    "peak_rss_mb": "MB", "setup_s": "s",
}
REPORTED_ONLY_UNITS = {"contest_bar_frac": "fraction",
                       "failed_frac": "fraction"}
"""End-to-end metrics printed for the reader but kept out of the JSON
result: both are 0 on healthy runs of some workloads."""


@dataclass
class CaseRecord:
    case_id: str
    wall_s: float
    calib_s: float = REFERENCE_CALIB_S
    gates: int = 0
    billed_rows: int = 0
    oracle_calls: int = 0
    accuracy: float = 0.0
    failure: Optional[str] = None

    def signature(self) -> tuple:
        return (self.case_id, self.gates, self.billed_rows,
                self.oracle_calls, self.accuracy, self.failure)


@dataclass
class PassResult:
    cases: List[CaseRecord] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.cases)

    @property
    def learn_s(self) -> float:
        """Learn seconds rescaled to the reference host speed."""
        return sum(rescale(c.wall_s, c.calib_s) for c in self.cases)

    @property
    def calib_s(self) -> float:
        return statistics.median(c.calib_s for c in self.cases)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if c.failure is not None)

    def totals(self) -> Dict[str, float]:
        from contestbench.workloads import CONTEST_BAR

        n = len(self.cases)
        return {
            "gates": sum(c.gates for c in self.cases),
            "accuracy_mean": sum(c.accuracy for c in self.cases) / n,
            "contest_bar_frac": sum(1 for c in self.cases
                                    if c.accuracy >= CONTEST_BAR) / n,
            "billed_rows": sum(c.billed_rows for c in self.cases),
            "oracle_calls": sum(c.oracle_calls for c in self.cases),
        }

    def signature(self) -> tuple:
        return tuple(c.signature() for c in self.cases)


def rescale(wall_s: float, calib_s: float) -> float:
    return wall_s * REFERENCE_CALIB_S / calib_s


def host_speed_s() -> float:
    """Median wall seconds of three runs of a fixed pure-Python + numpy
    loop: the host-speed marker that time metrics are rescaled by."""
    import numpy as np

    def loop() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        words = np.arange(1 << 18, dtype=np.uint64)
        for _ in range(32):
            words = words * np.uint64(6364136223846793005) \
                + np.uint64(1442695040888963407)
            acc ^= int(np.bitwise_count(words >> np.uint64(7)).sum())
        return time.perf_counter() - start

    return statistics.median(loop() for _ in range(3))


def measure_setup(workload: str) -> List[float]:
    """Rescaled set-up seconds of ``SETUP_PROBES`` fresh interpreters
    (each imports ``repro`` and builds the workload's golden netlists
    and oracles)."""
    samples = []
    before = host_speed_s()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True)
        after = host_speed_s()
        samples.append(rescale(float(proc.stdout.split()[-1]),
                               (before + after) / 2))
        before = after
    return samples


def clear_program_caches() -> List[str]:
    """Empty the program's process-wide memos, the module-level dicts
    named ``*_CACHE`` in the loaded ``repro`` modules.  A learn that
    follows starts as cold as ``repro learn`` in a fresh process.
    Returns the names emptied."""
    cleared = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
                cleared.append(f"{name}.{attr}")
    return cleared


def run_pass(cases: List[Any], learn: Callable[[Any, Any], Any],
             scorer, recorder=None) -> PassResult:
    """Learn every case once from cold program caches, taking the
    host-speed marker between learns; score each case outside the timed
    region."""
    out = PassResult()
    before = host_speed_s()
    for case in cases:
        oracle = case.oracle()
        clear_program_caches()
        scope = nullcontext()
        if recorder is not None:
            recorder.case = case.case_id
            scope = recorder.span("learn", "learn")
        with scope:
            start = time.perf_counter()
            try:
                result = learn(case, oracle)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed case is data
                result = None
                error = f"learn raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        after = host_speed_s()
        record = CaseRecord(case.case_id, elapsed, (before + after) / 2,
                            failure=error)
        before = after
        if result is not None:
            record.gates = result.netlist.gate_count()
            record.billed_rows = result.queries
            record.oracle_calls = oracle.query_calls
            try:
                record.accuracy, record.failure = scorer.check(
                    case, oracle, result.netlist)
            except Exception as exc:  # noqa: BLE001 - a failed case is data
                record.failure = f"scoring raised {type(exc).__name__}: {exc}"
            if recorder is not None:  # traced passes read the results
                out.results.append(result)
        out.cases.append(record)
    return out


def learner(profile: bool = False) -> Callable[[Any, Any], Any]:
    from repro.core.regressor import LogicRegressor

    from contestbench.workloads import learner_config

    def learn(case, oracle):
        return LogicRegressor(learner_config(profile)).learn(oracle)
    return learn


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_pass(index: int, label: str, p: PassResult) -> None:
    totals = p.totals()
    print(f"pass {index} ({label}): learn_s={p.learn_s:.3f} "
          f"wall_s={p.wall_s:.3f} calib_s={p.calib_s:.4f} "
          f"gates={totals['gates']} "
          f"billed_rows={totals['billed_rows']} "
          f"oracle_calls={totals['oracle_calls']} "
          f"accuracy_mean={totals['accuracy_mean']:.6f} "
          f"failed={p.failed}/{len(p.cases)}", flush=True)
    for c in p.cases:
        status = "ok" if c.failure is None else f"FAILED: {c.failure}"
        print(f"  {c.case_id:8s} wall_s={c.wall_s:.3f} calib_s="
              f"{c.calib_s:.4f} gates={c.gates} "
              f"billed_rows={c.billed_rows} accuracy={c.accuracy:.6f} "
              f"{status}", flush=True)


def end_to_end(passes: List[PassResult], setup: List[float]
               ) -> Dict[str, float]:
    attempted = sum(len(p.cases) for p in passes)
    metrics: Dict[str, float] = {
        "learn_s": statistics.median(p.learn_s for p in passes)}
    metrics.update(passes[0].totals())
    metrics["failed_frac"] = sum(p.failed for p in passes) / attempted
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = statistics.median(setup)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from repro.oracle.suite import build_case
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"repro was imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from contestbench.scoring import Scorer
    from contestbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    cases = [build_case(cid) for cid in workload.cases]
    setup = measure_setup(workload.name)
    scorer = Scorer(args.seed)
    print(f"workload {workload.name}: "
          f"{', '.join(c.case_id for c in cases)} "
          f"(seed {args.seed}, {args.seconds:g} s)", flush=True)
    if args.trace:
        return run_traced(args, workload, cases, scorer)

    learn = learner()
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(cases, learn, scorer))
        print_pass(len(passes), "timed", passes[-1])
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES \
                and now - start + (now - pass_start) > args.seconds:
            break
    metrics = end_to_end(passes, setup)
    print(f"{len(passes)} passes; learn_s is the median over passes, "
          f"rescaled from wall_s (median "
          f"{statistics.median(p.wall_s for p in passes):.3f} s) by the "
          f"host-speed marker (median "
          f"{statistics.median(p.calib_s for p in passes):.4f} s, "
          f"reference {REFERENCE_CALIB_S} s); setup_s the median of "
          f"{len(setup)} fresh interpreters "
          f"({', '.join(f'{s:.3f}' for s in setup)})")
    units = {**END_TO_END_UNITS, **REPORTED_ONLY_UNITS}
    for name, unit in units.items():
        print(f"  {name:18s} {metrics[name]:.6g} {unit}")
    return finish(passes, {k: metrics[k] for k in END_TO_END_UNITS},
                  END_TO_END_UNITS)


def run_traced(args, workload, cases, scorer) -> int:
    from contestbench.tracing import (Recorder, layer_metrics, patched,
                                      write_spans)

    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    per_pass: List[Dict[str, float]] = []
    recorder = Recorder()
    plain = learner()
    profiled = learner(profile=True)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(run_pass(cases, plain, scorer))
        print_pass(len(untraced), "untraced", untraced[-1])
        first = len(recorder.spans)
        with patched(recorder):
            traced.append(run_pass(cases, profiled, scorer, recorder))
        print_pass(len(traced), "traced", traced[-1])
        per_pass.append(layer_metrics(recorder.spans[first:],
                                      traced[-1].results,
                                      traced[-1].wall_s))
        traced[-1].results.clear()
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["traced_learn_s"] = statistics.median(p.learn_s for p in traced)
    metrics["untraced_learn_s"] = statistics.median(
        p.learn_s for p in untraced)
    metrics["trace_overhead_s"] = (metrics["traced_learn_s"]
                                   - metrics["untraced_learn_s"])
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}"
    write_spans(recorder.spans, f"{stem}.spans.jsonl",
                f"{stem}.trace.json")
    print(f"{len(traced)} traced passes ({len(recorder.spans)} spans "
          f"written to {stem}.spans.jsonl and {stem}.trace.json)")
    units = {name: layer_unit(name) for name in metrics}
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:.6g} {unit}")
    return finish(untraced + traced, metrics, units)


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_frac"):
        return "fraction"
    if "rows" in suffix:
        return "rows"
    if suffix == "scan_words":
        return "words"
    return "count"


def finish(passes: List[PassResult], metrics: Dict[str, float],
           units: Dict[str, str]) -> int:
    """Print the JSON result line; non-zero exit when two passes at one
    seed disagree on the deterministic metrics."""
    attempted = sum(len(p.cases) for p in passes)
    failed = sum(p.failed for p in passes)
    deterministic = all(p.signature() == passes[0].signature()
                        for p in passes)
    if not deterministic:
        print("NON-DETERMINISTIC: gates, billed rows, oracle calls or "
              "accuracy differ between passes at one seed", flush=True)
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if deterministic else 1


if __name__ == "__main__":
    sys.exit(main())
