"""Parallel per-output learning with deterministic results.

The problem decomposes per output (Sec. IV), so independent outputs can
be learned concurrently.  :func:`learn_outputs` runs a list of
:class:`OutputTask` either in-process (``jobs=1``, the paper's
single-threaded contract) or across supervised worker processes
(:mod:`repro.robustness.supervisor`), each holding its own *oracle shard* — a pickled copy of the
execution-layer oracle chain — and a private fork of the sample bank.

Determinism is by construction, not by luck:

- every output draws from its own seeded RNG stream
  (:func:`derive_output_rng`), never from a shared generator whose state
  would depend on scheduling order;
- every output reads a private :meth:`SampleBank.fork` of the bank as it
  stood *before* the fan-out, so no output observes rows produced by a
  sibling racing in another worker;
- results are keyed by output index and folded back in a fixed order.

Consequently the same seed yields a bit-identical circuit for any
``jobs`` value — provided neither wall-clock deadlines nor the query
budget bind (a timeout or budget cliff is inherently racy; the run still
degrades gracefully, it just may degrade differently).
"""

from __future__ import annotations

import pickle
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import RegressorConfig
from repro.core.fbdt import LearnedCover, cleanup_cover, learn_output
from repro.obs import context as obs_ctx
from repro.obs.accounting import billing_meter
from repro.obs.context import Instrumentation
from repro.oracle.base import Oracle, QueryBudgetExceeded
from repro.perf.bank import BankedOracle, BankStats, SampleBank

_RNG_STREAM = 0x51AB
"""Domain separator so per-output streams never collide with the
pipeline's shared preprocessing generator."""


def derive_output_rng(seed: int, output: int) -> np.random.Generator:
    """The per-output RNG stream: a pure function of (seed, output)."""
    return np.random.default_rng([seed, _RNG_STREAM, output])


@dataclass
class OutputTask:
    """One unit of step-4 work: learn output ``index`` within a slice."""

    index: int
    support: List[int]
    soft_seconds: float = float("inf")
    hard_seconds: float = float("inf")


@dataclass
class OutputResult:
    """What came back for one output (cover, or a reason there is none)."""

    index: int
    cover: Optional[LearnedCover] = None
    error: str = ""
    error_type: str = ""
    budget_exhausted: bool = False
    queries: int = 0
    """Rows billed to the oracle that served this task.  Counted against
    a worker's private shard in parallel mode (the caller's oracle never
    saw them); 0 relevance in-process, where the shared oracle was
    billed directly."""

    hard_overrun: bool = False
    bank: Optional[BankStats] = None
    obs: Optional[dict] = None
    """The task's private :class:`~repro.obs.context.Instrumentation`
    payload (trace records + metrics dump).  Folded back into the
    caller's active instrumentation in task order — the same order for
    any ``jobs`` value — then cleared."""


@dataclass
class EngineReport:
    """Aggregate outcome of one :func:`learn_outputs` call."""

    results: Dict[int, OutputResult] = field(default_factory=dict)
    extra_queries: int = 0
    """Worker-shard query rows invisible to the caller's oracle meter."""

    mode: str = "sequential"
    note: str = ""
    supervisor: Optional[dict] = None
    """:class:`~repro.robustness.supervisor.SupervisorStats` dump when
    the supervised pool ran (crashes, hangs, redispatches, quarantines);
    None for sequential runs."""


def run_output_task(oracle: Oracle, task: OutputTask,
                    config: RegressorConfig,
                    bank: Optional[SampleBank]) -> OutputResult:
    """Learn one output deterministically against ``oracle``.

    Failures are absorbed into the result (``error``/``error_type``),
    matching the sequential pipeline's per-output isolation.
    """
    rng = derive_output_rng(config.seed, task.index)
    local_bank = bank.fork() if bank is not None else None
    exec_oracle: Oracle = oracle
    if local_bank is not None:
        exec_oracle = BankedOracle(oracle, local_bank)
    # Meter billed rows at the marked billing meter (the base oracle),
    # not at the top of whatever wrapper stack we were handed: rows a
    # retry cache absorbs are requested of the stack but never billed,
    # and ``extra_queries`` must match what a sequential run would have
    # billed for the same work.
    meter = billing_meter(oracle)
    obs_cfg = getattr(config, "observability", None)
    child = Instrumentation(
        profile=getattr(obs_cfg, "profile", False),
        profile_memory=getattr(obs_cfg, "profile_memory", False)) \
        if obs_cfg is not None and obs_cfg.enabled else None
    start_rows = meter.query_count
    start_time = time.monotonic()

    def attempt() -> OutputResult:
        try:
            cover = learn_output(exec_oracle, task.index, task.support,
                                 config, rng,
                                 deadline=start_time + task.soft_seconds,
                                 bank=local_bank)
        except QueryBudgetExceeded as exc:
            return OutputResult(
                task.index, error=str(exc),
                error_type="QueryBudgetExceeded", budget_exhausted=True,
                queries=meter.query_count - start_rows,
                bank=local_bank.stats if local_bank is not None else None)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            return OutputResult(
                task.index, error=f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__,
                queries=meter.query_count - start_rows,
                bank=local_bank.stats if local_bank is not None else None)
        if local_bank is not None:
            cover.stats.bank_hits = local_bank.stats.hits
            cover.stats.bank_misses = local_bank.stats.misses
        # Pre-pay the two-level minimization here: it is pure per-output
        # work, and in parallel mode this moves the pipeline's dominant
        # sequential cost (espresso at assembly) onto the workers.
        cleanup_cover(cover)
        elapsed = time.monotonic() - start_time
        return OutputResult(
            task.index, cover=cover,
            budget_exhausted=cover.stats.budget_exhausted,
            queries=meter.query_count - start_rows,
            hard_overrun=elapsed >= task.hard_seconds,
            bank=local_bank.stats if local_bank is not None else None)

    if child is None:
        return attempt()
    # A private child instrumentation even in-process: sequential and
    # worker execution then produce identical per-task payloads, folded
    # back identically — the keystone for jobs-invariant aggregates.
    po_name = oracle.po_names[task.index] \
        if task.index < oracle.num_pos else ""
    # Worker shards run outside the parent's tracemalloc session, so
    # arm one per task when memory profiling is on; the "learn" stage
    # watermark then folds back via the gauge (max semantics).
    own_tracemalloc = (child.profile_memory
                       and not tracemalloc.is_tracing())
    if own_tracemalloc:
        tracemalloc.start()
    try:
        with obs_ctx.use(child):
            child.stage_stack.append("learn")
            try:
                with obs_ctx.output_scope(task.index, po_name):
                    res = attempt()
            finally:
                child.stage_stack.pop()
                if child.profile_memory and tracemalloc.is_tracing():
                    obs_ctx._record_stage_peak(child, "learn")
    finally:
        if own_tracemalloc:
            tracemalloc.stop()
    res.obs = child.payload()
    return res


def learn_outputs(oracle: Oracle, tasks: List[OutputTask],
                  config: RegressorConfig, *, jobs: int,
                  bank: Optional[SampleBank] = None,
                  slice_provider: Optional[
                      Callable[[int, int], Tuple[float, float]]] = None,
                  on_result: Optional[
                      Callable[[OutputResult], None]] = None
                  ) -> EngineReport:
    """Learn every task's output; in-process or across worker shards.

    ``slice_provider(idx, total)`` (sequential mode only) recomputes a
    task's ``(soft, hard)`` second budget at start time, preserving the
    DeadlineManager's leftover-donation semantics; parallel tasks run
    with the budgets already on them.  ``on_result`` fires as each
    result lands (checkpoint hook); arrival order is nondeterministic in
    parallel mode, so callers must not derive anything order-sensitive
    from it.
    """
    report = EngineReport()
    if jobs <= 1 or len(tasks) <= 1:
        _run_sequential(oracle, tasks, config, bank, slice_provider,
                        on_result, report)
        _fold_back_obs(report, tasks)
        return report
    try:
        payload = pickle.dumps((oracle, config, bank))
    except Exception as exc:  # noqa: BLE001 - unpicklable oracle chain
        report.note = (f"oracle not picklable "
                       f"({type(exc).__name__}); fell back to "
                       "sequential learning")
        _run_sequential(oracle, tasks, config, bank, slice_provider,
                        on_result, report)
        _fold_back_obs(report, tasks)
        return report
    # Imported lazily: the supervisor module needs OutputTask/Result
    # from here, so a top-level import would be circular.
    from repro.robustness.supervisor import (SupervisorPolicy,
                                             run_supervised)

    rob = config.robustness
    policy = SupervisorPolicy(heartbeat_interval=rob.heartbeat_interval,
                              heartbeat_timeout=rob.heartbeat_timeout,
                              fault_plan=rob.worker_fault_plan)

    report.mode = f"parallel x{jobs}"
    try:
        # The supervised pool (not ProcessPoolExecutor): one dead or
        # hung worker costs at most its own task — re-dispatched once,
        # then quarantined — never the whole fan-out.
        results, sup_stats = run_supervised(
            payload, tasks, jobs, policy, on_result=on_result)
        report.supervisor = sup_stats.as_dict()
        for res in results.values():
            report.results[res.index] = res
            report.extra_queries += res.queries
    except (OSError, PermissionError) as exc:
        # Process pools can be unavailable (sandboxes, exhausted PIDs);
        # the work still has to happen.
        report.note = (f"process pool unavailable "
                       f"({type(exc).__name__}: {exc}); fell back to "
                       "sequential learning")
        report.mode = "sequential"
        report.extra_queries = 0
        missing = [t for t in tasks if t.index not in report.results]
        _run_sequential(oracle, missing, config, bank, slice_provider,
                        on_result, report)
    if bank is not None:
        for res in report.results.values():
            if res.bank is not None:
                bank.stats.merge(res.bank)
    _fold_back_obs(report, tasks)
    return report


def _fold_back_obs(report: EngineReport, tasks: List[OutputTask]) -> None:
    """Adopt per-task instrumentation payloads in *task order*.

    Task order is the same for every ``jobs`` value (arrival order is
    not), so the folded-back trace structure and metric aggregates are
    jobs-invariant.  With no active parent instrumentation the payloads
    stay attached to the results for the caller to inspect.
    """
    parent = obs_ctx.active()
    if parent is None:
        return
    for task in tasks:
        res = report.results.get(task.index)
        if res is not None and res.obs is not None:
            parent.adopt(res.obs)
            res.obs = None


def _run_sequential(oracle: Oracle, tasks: List[OutputTask],
                    config: RegressorConfig,
                    bank: Optional[SampleBank],
                    slice_provider, on_result,
                    report: EngineReport) -> None:
    total = len(tasks)
    for idx, task in enumerate(tasks):
        if slice_provider is not None:
            task.soft_seconds, task.hard_seconds = \
                slice_provider(idx, total)
        res = run_output_task(oracle, task, config, bank)
        res.queries = 0  # billed directly to the caller's oracle
        report.results[res.index] = res
        if bank is not None and res.bank is not None:
            bank.stats.merge(res.bank)
            res.bank = None  # merged; avoid double counting upstream
        if on_result is not None:
            on_result(res)
