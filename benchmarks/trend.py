"""Continuous perf-regression observatory over checked-in bench snapshots.

The repo keeps one JSON snapshot per gated benchmark at the root
(``BENCH_fbdt_batched.json``, ``BENCH_service.json``,
``BENCH_profile.json``).  This module turns those point-in-time files
into a trend: an append-only ``BENCH_history.jsonl`` where every line
is digest-checked and chained to its predecessor, plus a direction-aware
regression check of the current snapshots against the median of the
last K history entries.

Gating is per-metric, not one-size-fits-all:

- **exact** — deterministic cost counters (the profiler's nominal work
  model) must equal the baseline bit-for-bit; any drift is either a
  determinism bug or an intentional algorithm change that warrants a
  fresh ``append``.
- **ratio** / **abs** — noisy metrics (wall-clock ratios, row counts,
  overhead percentages) regress only when they move past the baseline
  median by a relative/absolute tolerance *in the bad direction*;
  improvements always pass and are reported as notes.
- **info** — recorded and printed, never gated (absolute wall seconds
  are machine-dependent).

Usage (standalone, no pytest; run from the repo root)::

    python -m benchmarks.trend append            # baseline all snapshots
    python -m benchmarks.trend check             # CI gate (exit 1 = regression)
    python -m benchmarks.trend show [bench]      # recent history table

History lines never reference wall-clock time of day; ``seq`` plus the
digest chain give a tamper-evident total order without making the file
nondeterministic to regenerate.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys
from dataclasses import dataclass

try:
    # The hardened append (O_APPEND single write + fsync barrier +
    # torn-tail healing) from the robustness storage layer.
    from repro.robustness.storage import append_line as _append_line
except ImportError:  # standalone use without src/ on sys.path
    _append_line = None

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY_NAME = "BENCH_history.jsonl"
DEFAULT_K = 5

EXACT = "exact"    # deterministic: any drift from the baseline fails
RATIO = "ratio"    # tolerance is relative to the baseline median
ABS = "abs"        # tolerance is an absolute delta
INFO = "info"      # recorded and shown, never gated

LOWER = "lower"    # lower is better (counts, seconds, overhead)
HIGHER = "higher"  # higher is better (speedup ratios, accuracy)


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: where it lives and how it may move.

    ``path`` is a ``/``-joined route into the snapshot's ``metrics``
    dict ("/" rather than "." because profiler counter names contain
    dots).  A trailing ``/*`` expands to every key under the prefix, in
    both the snapshot and the history window, so counters added or
    removed by a code change are gated without editing this table.
    """

    path: str
    kind: str = RATIO
    better: str = LOWER
    tolerance: float = 0.1


BENCHES = {
    "fbdt_batched": ("BENCH_fbdt_batched.json", (
        MetricSpec("batched/oracle_calls", RATIO, LOWER, 0.10),
        MetricSpec("batched/oracle_rows", RATIO, LOWER, 0.10),
        MetricSpec("batched/accuracy", ABS, HIGHER, 0.05),
        MetricSpec("batched/wall_s", INFO),
    )),
    "service": ("BENCH_service.json", (
        MetricSpec("cache/hits", EXACT, HIGHER),
        MetricSpec("cold/billed_rows", RATIO, LOWER, 0.15),
        MetricSpec("warm/billed_rows", RATIO, LOWER, 0.15),
        MetricSpec("cold/scheduler/redispatches", EXACT, LOWER),
        MetricSpec("cold/elapsed_s", INFO),
        MetricSpec("warm/elapsed_s", INFO),
        # strict-vs-lax fsync cost on an isolated mini-fleet; the hard
        # <10% gate lives in bench_service.check_gates, this is trend
        # visibility only (wall-noise sensitive).
        MetricSpec("durability/overhead_pct", INFO),
    )),
    "profile": ("BENCH_profile.json", (
        MetricSpec("counters/*", EXACT, LOWER),
        # The hard <5% budget lives in bench_obs.check_profile_gates;
        # this wide, direction-aware band only catches runaway drift
        # (single-round wall noise swings +/-20 points).
        MetricSpec("overhead_pct", ABS, LOWER, 25.0),
        MetricSpec("obs_wall_s", INFO),
        MetricSpec("profile_wall_s", INFO),
    )),
}


class TrendError(ValueError):
    """History file is corrupt, rewritten, or otherwise untrustworthy."""


class TornTailError(TrendError):
    """Only the *final* line is bad: a crash tore the last append.

    Unlike mid-file corruption (which means tampering and stays fatal),
    a torn tail is the expected debris of a kill or ENOSPC mid-append.
    It is reported — never silently skipped — and ``check --repair``
    truncates the file at ``offset`` to recover the valid prefix.
    """

    def __init__(self, path: str, lineno: int, offset: int,
                 reason: str):
        self.path = path
        self.lineno = lineno
        self.offset = offset
        self.reason = reason
        super().__init__(
            f"{path}:{lineno}: torn final line ({reason}) — likely a "
            f"crash or ENOSPC mid-append; run `python -m "
            f"benchmarks.trend check --repair` to truncate the torn "
            f"tail (byte {offset}) and keep the valid prefix")


def _digest(record: dict) -> str:
    payload = {key: value for key, value in record.items()
               if key != "digest"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _lookup(metrics, path: str):
    node = metrics
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _expand(spec: MetricSpec, snapshot_metrics: dict,
            records: list) -> list:
    """Resolve a spec to concrete paths (wildcards over both sides)."""
    if not spec.path.endswith("/*"):
        return [spec.path]
    prefix = spec.path[:-2]
    keys = set()
    node = _lookup(snapshot_metrics, prefix)
    if isinstance(node, dict):
        keys.update(node)
    for rec in records:
        for path in rec["metrics"]:
            if path.startswith(prefix + "/"):
                keys.add(path[len(prefix) + 1:])
    return [f"{prefix}/{key}" for key in sorted(keys)]


def load_history(path: str) -> list:
    """Parse and verify the append-only log; raises TrendError.

    A bad *final* line raises :class:`TornTailError` (with the byte
    offset to truncate at) instead of the generic failure: the tail is
    the only place a crash mid-append can tear, so only there is
    repair — as opposed to tamper-rejection — on the table.
    """
    records = []
    if not os.path.exists(path):
        return records
    with open(path, "rb") as handle:
        raw = handle.read()
    entries = []  # (lineno, byte offset, text)
    pos = 0
    for lineno, chunk in enumerate(raw.split(b"\n"), 1):
        entries.append((lineno, pos,
                        chunk.decode("utf-8", "replace").strip()))
        pos += len(chunk) + 1
    while entries and not entries[-1][2]:
        entries.pop()  # trailing newline / blank tail
    entries = [entry for entry in entries if entry[2]]
    prev = ""
    for index, (lineno, offset, line) in enumerate(entries):
        final = index == len(entries) - 1
        try:
            rec = json.loads(line)
        except ValueError:
            if final:
                raise TornTailError(path, lineno, offset,
                                    "not valid JSON")
            raise TrendError(f"{path}:{lineno}: not valid JSON")
        if not isinstance(rec, dict) or rec.get("digest") != _digest(rec):
            if final:
                raise TornTailError(path, lineno, offset,
                                    "digest mismatch")
            raise TrendError(
                f"{path}:{lineno}: digest mismatch — the line was "
                f"edited after being appended")
        if rec.get("prev", "") != prev:
            raise TrendError(
                f"{path}:{lineno}: chain broken — history is "
                f"append-only; earlier lines were removed or "
                f"reordered")
        if rec.get("seq") != len(records) + 1:
            raise TrendError(
                f"{path}:{lineno}: bad seq {rec.get('seq')} "
                f"(expected {len(records) + 1})")
        prev = rec["digest"]
        records.append(rec)
    return records


def repair_torn_tail(exc: TornTailError) -> str:
    """Truncate the history at the torn line; returns a description."""
    with open(exc.path, "r+b") as handle:
        handle.truncate(exc.offset)
    return (f"repaired {exc.path}: dropped torn final line "
            f"{exc.lineno} ({exc.reason}); history truncated to byte "
            f"{exc.offset}")


def append_snapshot(bench: str, snapshot: dict,
                    history_path: str) -> dict:
    """Flatten one snapshot's gated metrics onto the history log."""
    _, specs = BENCHES[bench]
    records = load_history(history_path)
    snap_metrics = snapshot.get("metrics", {})
    flat = {}
    for spec in specs:
        for path in _expand(spec, snap_metrics, []):
            value = _lookup(snap_metrics, path)
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                flat[path] = value
    record = {
        "bench": bench,
        "seq": len(records) + 1,
        "prev": records[-1]["digest"] if records else "",
        "gates_passed": bool(snapshot.get("gates_passed", False)),
        "metrics": flat,
    }
    record["digest"] = _digest(record)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if _append_line is not None:
        _append_line(history_path, line, writer="history")
    else:
        with open(history_path, "a") as handle:
            handle.write(line + "\n")
    return record


def check_bench(bench: str, snapshot: dict, records: list,
                k: int = DEFAULT_K, specs=None):
    """Compare one snapshot against the median of its last K entries.

    Returns ``(failures, notes)`` — failures are regressions beyond
    tolerance (or any drift on exact metrics); notes cover
    improvements, informational metrics and bootstrap cases.
    """
    specs = specs if specs is not None else BENCHES[bench][1]
    mine = [rec for rec in records if rec["bench"] == bench]
    failures, notes = [], []
    if not mine:
        notes.append(f"{bench}: no history yet — run "
                     f"`python -m benchmarks.trend append {bench}` "
                     f"to start the baseline")
        return failures, notes
    window = mine[-k:]
    snap_metrics = snapshot.get("metrics", {})
    for spec in specs:
        for path in _expand(spec, snap_metrics, window):
            value = _lookup(snap_metrics, path)
            baseline_vals = [rec["metrics"][path] for rec in window
                             if path in rec["metrics"]]
            if value is None:
                if spec.kind == EXACT and baseline_vals:
                    failures.append(
                        f"{bench}:{path}: deterministic metric "
                        f"vanished from the snapshot but history "
                        f"still tracks it")
                else:
                    notes.append(f"{bench}:{path}: missing from "
                                 f"snapshot; skipped")
                continue
            if not baseline_vals:
                notes.append(f"{bench}:{path}: first observation "
                             f"({value}); no baseline yet")
                continue
            baseline = statistics.median(baseline_vals)
            if spec.kind == INFO:
                notes.append(f"{bench}:{path}: {value} "
                             f"(baseline {baseline}; informational)")
                continue
            if spec.kind == EXACT:
                if value != baseline:
                    failures.append(
                        f"{bench}:{path}: deterministic metric "
                        f"drifted: {value} vs baseline {baseline} "
                        f"(exact gate; append a new baseline if the "
                        f"change is intentional)")
                continue
            slack = abs(baseline) * spec.tolerance \
                if spec.kind == RATIO else spec.tolerance
            if spec.better == LOWER:
                limit, bad = baseline + slack, value > baseline + slack
            else:
                limit, bad = baseline - slack, value < baseline - slack
            if bad:
                failures.append(
                    f"{bench}:{path}: regressed beyond tolerance: "
                    f"{value} vs baseline {baseline} "
                    f"({spec.better} is better; limit "
                    f"{round(limit, 6)})")
            elif (value < baseline) == (spec.better == LOWER) \
                    and value != baseline:
                notes.append(f"{bench}:{path}: improved: {value} vs "
                             f"baseline {baseline}")
    return failures, notes


def _resolve_benches(names, root: str, require: bool):
    """Map CLI bench names to (name, snapshot_path); validate."""
    chosen = names or sorted(BENCHES)
    resolved, failures = [], []
    for name in chosen:
        if name not in BENCHES:
            failures.append(f"unknown bench {name!r} "
                            f"(known: {', '.join(sorted(BENCHES))})")
            continue
        path = os.path.join(root, BENCHES[name][0])
        if not os.path.exists(path):
            if require or names:
                failures.append(f"{name}: snapshot {path} missing — "
                                f"run its bench with --out first")
            continue
        resolved.append((name, path))
    return resolved, failures


def cmd_append(args) -> int:
    resolved, failures = _resolve_benches(args.benches, args.root,
                                          require=False)
    for name, path in resolved:
        with open(path) as handle:
            snapshot = json.load(handle)
        record = append_snapshot(name, snapshot, args.history)
        print(f"appended {name} seq={record['seq']} "
              f"({len(record['metrics'])} metrics) to {args.history}")
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_check(args) -> int:
    try:
        records = load_history(args.history)
    except TornTailError as exc:
        if not getattr(args, "repair", False):
            print(f"ERROR: {exc}", file=sys.stderr)
            return 1
        print(f"  note: {repair_torn_tail(exc)}")
        try:
            records = load_history(args.history)
        except TrendError as inner:
            print(f"ERROR: {inner}", file=sys.stderr)
            return 1
    except TrendError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    resolved, failures = _resolve_benches(args.benches, args.root,
                                          require=True)
    for name, path in resolved:
        with open(path) as handle:
            snapshot = json.load(handle)
        bench_failures, notes = check_bench(name, snapshot, records,
                                            k=args.k)
        for note in notes:
            print(f"  note: {note}")
        failures.extend(bench_failures)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        print(f"trend check FAILED ({len(failures)} regressions)",
              file=sys.stderr)
        return 1
    print(f"trend check passed ({len(resolved)} benches, "
          f"{len(records)} history entries)")
    return 0


def cmd_show(args) -> int:
    try:
        records = load_history(args.history)
    except TrendError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    shown = [rec for rec in records
             if not args.benches or rec["bench"] in args.benches]
    if not shown:
        print("no history entries")
        return 0
    for rec in shown[-args.k * len(BENCHES):]:
        keys = sorted(rec["metrics"])
        head = ", ".join(f"{key}={rec['metrics'][key]}"
                         for key in keys[:4])
        more = f" (+{len(keys) - 4} more)" if len(keys) > 4 else ""
        print(f"seq {rec['seq']:>3}  {rec['bench']:<14} {head}{more}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.trend",
        description="append-only bench history and regression gate")
    parser.add_argument("command", choices=["append", "check", "show"])
    parser.add_argument("benches", nargs="*",
                        help="bench names (default: all with a "
                             "checked-in snapshot)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="directory holding the BENCH_*.json "
                             "snapshots (default: repo root)")
    parser.add_argument("--history", default=None,
                        help=f"history log path (default: "
                             f"<root>/{HISTORY_NAME})")
    parser.add_argument("--k", type=int, default=DEFAULT_K,
                        help="baseline window: median of the last K "
                             "entries per bench (default 5)")
    parser.add_argument("--repair", action="store_true",
                        help="check only: truncate a *torn final line* "
                             "(crash/ENOSPC mid-append) and proceed on "
                             "the valid prefix; mid-file corruption "
                             "stays fatal")
    args = parser.parse_args(argv)
    if args.history is None:
        args.history = os.path.join(args.root, HISTORY_NAME)
    return {"append": cmd_append, "check": cmd_check,
            "show": cmd_show}[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
