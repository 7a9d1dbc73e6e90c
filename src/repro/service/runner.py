"""Per-job execution: spec in, terminal status + artifacts out.

:func:`execute_job` is the single code path every job takes regardless
of how it was dispatched (inline for deterministic tests, in a child
process for the real service).  It owns the job's isolation contract:

- the learn *always* runs against the job's own checkpoint with
  ``resume=True``, so any attempt — first, retry, or crash-resume —
  restores completed outputs instead of re-billing them;
- the terminal status is classified from the run's own verification
  certificate (``verified`` / ``repaired`` / ``degraded``), and any
  structural error (unreadable circuit, broken spec) is a terminal
  ``failed`` with the exception in the journal — never a scheduler hang;
- billing is recorded per attempt in the state journal *before* the
  terminal transition, so a crash between the two loses (never
  double-counts) rows;
- the cross-job cache is consulted before and fed after the learn, and
  a cache failure can only cost the speedup, not the job.

:func:`job_child_main` is the ``multiprocessing`` entry point: it adds
the liveness heartbeat (a spool file the scheduler watches by mtime),
orphan detection (the parent pid changing means the service was killed;
the child exits promptly and leaves a ``running`` journal for crash
recovery), and honors the spec's chaos fault before touching the learn.
"""

from __future__ import annotations

import io
import os
import sys
import threading
import time
from typing import Optional, Tuple

import numpy as np

from repro.robustness.storage import get_storage
from repro.service.cache import CrossJobCache, problem_fingerprint
from repro.service.jobs import TERMINAL_STATUSES, JobSpec, JobStatus
from repro.service.signals import ShutdownRequested, graceful_shutdown
from repro.service.spool import Spool

#: Exit codes the scheduler interprets (anything else is a crash too,
#: but these make the journals legible).
EXIT_OK = 0
EXIT_SHUTDOWN = 130  # graceful stop; journal left ``running`` for resume
EXIT_FAULT_CRASH = 43  # injected crash fault
EXIT_ORPHANED = 44  # parent (the service) died; resume will pick us up


class SimulatedWorkerCrash(RuntimeError):
    """Inline-mode stand-in for a hard worker death (see faults)."""


def _load_circuit(path: str):
    """Read the golden netlist (.blif or ascii AIGER)."""
    if path.endswith((".aag", ".aig")):
        from repro.network.aig import read_aiger
        with open(path) as handle:
            return read_aiger(handle)
    from repro.network.blif import read_blif
    with open(path) as handle:
        return read_blif(handle)


def _apply_fault(spec: JobSpec, attempt: int, *,
                 allow_hard_faults: bool) -> None:
    """Honor the spec's chaos injection for this attempt.

    ``sleep:<s>`` applies every attempt (it models a slow worker);
    ``crash``/``hang`` apply only while ``attempt < fault_attempts``.
    Hard faults are only taken literally in a child process
    (``allow_hard_faults``); inline they degrade to an exception so a
    test scheduler exercises the retry path without killing pytest.
    """
    fault = spec.fault
    if fault is None:
        return
    if fault.startswith("sleep:"):
        time.sleep(float(fault.split(":", 1)[1]))
        return
    if attempt >= spec.fault_attempts:
        return
    if fault == "crash":
        if allow_hard_faults:
            os._exit(EXIT_FAULT_CRASH)
        raise SimulatedWorkerCrash(
            f"injected crash fault (attempt {attempt})")
    if fault == "hang":
        if allow_hard_faults:
            # Stall forever *without* heartbeats: job_child_main only
            # starts beating after the fault hook, so the scheduler's
            # heartbeat timeout is what reaps us.
            while True:
                time.sleep(3600)
        raise SimulatedWorkerCrash(
            f"injected hang fault (attempt {attempt}, inline)")


def _build_config(spec: JobSpec, spool: Spool):
    from repro.core.config import (RegressorConfig, RobustnessConfig,
                                   fast_config)
    robustness = RobustnessConfig(
        max_retries=spec.max_retries,
        retry_base_delay=0.01,
        retry_max_delay=0.1,
        checkpoint_path=spool.checkpoint_path(spec.job_id),
        resume=True,
        audit_rate=spec.audit_rate,
    )
    if spec.profile == "fast":
        config = fast_config(time_limit=spec.effective_time_limit,
                             seed=spec.seed)
        config.robustness = robustness
        return config
    return RegressorConfig(time_limit=spec.effective_time_limit,
                           seed=spec.seed, jobs=1,
                           robustness=robustness)


def classify_result(result) -> Tuple[str, str]:
    """Map a :class:`LearnResult` onto a terminal job status."""
    report = result.verification
    if report is not None and report.outputs and report.all_certified():
        repaired = any(v.status == "repaired" for v in report.outputs)
        status = JobStatus.REPAIRED if repaired else JobStatus.VERIFIED
        return status, (f"{len(report.outputs)} outputs certified "
                        f"({result.queries} rows billed)")
    counts = report.status_counts() if report is not None else {}
    pieces = [f"{name}={n}" for name, n in sorted(counts.items())]
    if result.degradations:
        pieces.append(f"degradations={len(result.degradations)}")
    return JobStatus.DEGRADED, ("uncertified outputs: "
                                + (", ".join(pieces) or "no certificate"))


def execute_job(spool: Spool, job_id: str, *, attempt: int = 0,
                cache: Optional[CrossJobCache] = None,
                allow_hard_faults: bool = False,
                apply_fault: bool = True) -> str:
    """Run one job to a terminal status; returns the status.

    Raises :class:`SimulatedWorkerCrash` (inline hard faults) and lets
    :class:`ShutdownRequested` propagate — both are *worker-loss*
    signals the scheduler handles; every other exception is absorbed
    into a terminal ``failed`` journal entry (structural errors are the
    job's fault and retrying would not help).
    """
    spec = spool.read_spec(job_id)
    if spec is None:
        spool.transition(job_id, JobStatus.FAILED,
                         detail="spec.json missing or corrupt",
                         force=True)
        return JobStatus.FAILED
    spool.transition(job_id, JobStatus.RUNNING,
                     detail=f"attempt {attempt}", attempt=attempt,
                     pid=os.getpid())
    if apply_fault:
        _apply_fault(spec, attempt, allow_hard_faults=allow_hard_faults)
    try:
        return _execute_admitted(spool, job_id, spec, attempt, cache)
    except (ShutdownRequested, SimulatedWorkerCrash):
        raise
    except Exception as exc:  # structural failure -> terminal
        spool.transition(job_id, JobStatus.FAILED,
                         detail=f"{type(exc).__name__}: {exc}",
                         force=True)
        return JobStatus.FAILED


def _execute_admitted(spool: Spool, job_id: str, spec: JobSpec,
                      attempt: int, cache: Optional[CrossJobCache]) -> str:
    from repro.core.regressor import LogicRegressor
    from repro.eval.accuracy import accuracy
    from repro.eval.patterns import contest_test_patterns
    from repro.network.blif import write_blif
    from repro.obs.report import build_run_report, write_run_report
    from repro.oracle.netlist_oracle import NetlistOracle
    from repro.service.telemetry import (flush_job_telemetry,
                                         queue_latency_seconds)

    golden = _load_circuit(spec.circuit)
    oracle = NetlistOracle(golden)
    if spec.inject_faults > 0:
        from repro.robustness.faults import FaultModel, FaultyOracle
        oracle = FaultyOracle(
            oracle,
            FaultModel(transient_rate=spec.inject_faults,
                       bitflip_rate=spec.inject_faults / 20.0),
            seed=spec.seed)

    fingerprint = problem_fingerprint(oracle.pi_names, oracle.po_names,
                                      spec.seed)
    prefill = None
    if cache is not None:
        try:
            prefill = cache.load(fingerprint, oracle.num_pis,
                                 oracle.num_pos)
        except Exception:
            prefill = None  # the cache may only save queries

    config = _build_config(spec, spool)
    result = LogicRegressor(config).learn(oracle, bank_prefill=prefill)

    buffer = io.StringIO()
    write_blif(result.netlist, buffer)
    get_storage().atomic_write_text(spool.result_path(job_id),
                                    buffer.getvalue(), writer="result")

    test_rows = min(2000, 1 << min(oracle.num_pis, 16))
    patterns = contest_test_patterns(
        oracle.num_pis, total=test_rows,
        rng=np.random.default_rng(spec.seed + 7))
    acc = accuracy(result.netlist, golden, patterns)

    exported = 0
    if cache is not None and result.sample_bank is not None:
        if spool.brownout_active():
            # Storage pressure: the cache export is a non-essential
            # write — shed it and count the drop.
            get_storage().counters.note_drop("cache")
        else:
            try:
                rows = result.sample_bank.export_rows()
                if rows is not None:
                    exported = cache.store(fingerprint, *rows)
            except Exception:
                exported = 0
    cross_job = {
        "hits": 0,
        "misses": 0,
        "fingerprint": fingerprint,
        "prefilled_rows": 0 if prefill is None else int(
            prefill[0].shape[0]),
        "exported_rows": int(exported),
    }
    if cache is not None:
        try:
            cross_job.update(cache.stats())
        except Exception:
            pass
    job_section = {
        "id": spec.job_id,
        "tenant": spec.tenant,
        "tier": spec.tier,
        "priority": spec.effective_priority,
        "attempt": int(attempt),
    }
    queue_latency = queue_latency_seconds(spool.read_state(job_id))
    fleet_section = {
        "job_id": spec.job_id,
        "tier": spec.tier,
        "attempt": int(attempt),
        "queue_latency_seconds": queue_latency or 0.0,
    }
    storage = get_storage()
    storage_section = {
        "durability": storage.durability,
        "brownout": spool.brownout_active(),
        "counters": storage.counters.to_json(),
    }
    try:
        report = build_run_report(result, config, accuracy=acc,
                                  job=job_section, cross_job=cross_job,
                                  fleet=fleet_section,
                                  storage=storage_section)
        write_run_report(report, spool.report_path(job_id))
    except Exception as exc:
        # The learn succeeded; a report bug must not fail the job, but
        # it must be visible in the journal detail below.
        report = None
        report_note = f" (run report failed: {type(exc).__name__})"
    else:
        report_note = ""

    spool.record_billing(job_id, attempt, int(oracle.query_count),
                         int(getattr(oracle, "query_calls", 0)))
    status, detail = classify_result(result)
    try:
        # Flushed before the terminal transition: the aggregator defers
        # corrupt-line accounting while the journal still says running,
        # so a kill -9 exactly here can tear only this attempt's line.
        flush_job_telemetry(spool, job_id, spec=spec, attempt=attempt,
                            instr=result.instrumentation,
                            status=status, elapsed=result.elapsed,
                            queue_latency=queue_latency,
                            cache=cross_job)
    except Exception:
        pass  # telemetry must never fail a finished job
    spool.transition(job_id, status,
                     detail=f"{detail}; accuracy {acc:.4f}{report_note}",
                     attempt=attempt)
    return status


def job_child_main(spool_root: str, job_id: str, attempt: int,
                   heartbeat_interval: float, parent_pid: int) -> None:
    """``multiprocessing.Process`` target for one job attempt."""
    spool = Spool(spool_root)
    spec = spool.read_spec(job_id)
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            spool.touch_heartbeat(job_id)
            if os.getppid() != parent_pid:
                # The service died under us: exit now (leaving the
                # ``running`` journal) so the restarted service finds a
                # dead worker, not a zombie billing against a ghost.
                os._exit(EXIT_ORPHANED)

    # Chaos faults fire *before* the first heartbeat so an injected hang
    # is visible to the scheduler as silence, exactly like a real one.
    if spec is not None:
        spool.transition(job_id, JobStatus.RUNNING,
                         detail=f"attempt {attempt}", attempt=attempt,
                         pid=os.getpid())
        _apply_fault(spec, attempt, allow_hard_faults=True)
    spool.touch_heartbeat(job_id)
    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    cache = CrossJobCache(spool.cache_dir)
    try:
        with graceful_shutdown():
            # apply_fault=False: the fault already fired above, before
            # heartbeats, where an injected hang reads as true silence.
            execute_job(spool, job_id, attempt=attempt, cache=cache,
                        allow_hard_faults=True, apply_fault=False)
    except ShutdownRequested:
        stop.set()
        # Journal stays ``running``; recovery re-queues and resumes.
        sys.exit(EXIT_SHUTDOWN)
    except BaseException as exc:  # pragma: no cover - defensive
        stop.set()
        try:
            if spool.status(job_id) not in TERMINAL_STATUSES:
                spool.transition(
                    job_id, JobStatus.FAILED,
                    detail=f"worker error {type(exc).__name__}: {exc}",
                    force=True)
        except Exception:
            pass
        sys.exit(1)
    stop.set()
    sys.exit(EXIT_OK)
