"""A supervised worker pool: heartbeats, wall timeouts, and quarantine.

``concurrent.futures.ProcessPoolExecutor`` treats one dead worker as a
dead pool: every in-flight future gets ``BrokenProcessPool`` and PR 2's
engine could only fall back to fully-sequential learning — one crash
cost the whole fan-out.  This module replaces the pool for the parallel
path with explicit per-worker supervision:

- each worker is a ``multiprocessing.Process`` with a private task queue
  and a shared message queue back to the supervisor;
- while learning, a worker thread emits a **heartbeat** every
  ``heartbeat_interval`` seconds; a worker silent for
  ``heartbeat_timeout`` seconds is declared hung, terminated, and
  replaced;
- a task also carries a **wall timeout** (its hard deadline slice plus
  ``task_wall_grace``), catching workers that beat happily while a task
  loops forever;
- a task whose worker crashed or hung is **re-dispatched once** to a
  fresh worker with its time budget scaled by
  ``redispatch_budget_factor`` — the retry must be cheaper than the
  attempt that already failed;
- a task that kills two workers is a **poison task**: it is quarantined
  as an :class:`~repro.perf.parallel.OutputResult` with
  ``error_type="PoisonTask"``, which the regressor's existing fold-back
  turns into a degraded constant-majority cover.  The other outputs are
  untouched, and the engine mode stays ``parallel xN``.

Fault injection for tests and the chaos matrix rides the same protocol:
a ``fault_plan`` maps a task index to ``"crash"`` (the worker hard-exits
on pickup) or ``"hang"`` (the worker stalls *before* starting its
heartbeat thread, so the heartbeat timeout is what fires).  Faults apply
only to a task's first attempt — the re-dispatch then succeeds, which is
exactly the scenario the acceptance criteria exercise.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from queue import Empty
from typing import Callable, Dict, List, Optional, Tuple

from repro.perf.parallel import OutputResult, OutputTask

_HANG_SLEEP = 3600.0
"""How long an injected hang sleeps; the supervisor terminates the
worker long before this elapses."""


@dataclass
class SupervisorPolicy:
    """Knobs of the supervised pool."""

    heartbeat_interval: float = 0.25
    """Seconds between worker heartbeats while a task runs."""

    heartbeat_timeout: float = 15.0
    """A busy worker silent this long is declared hung."""

    task_wall_grace: float = 5.0
    """Seconds added to a task's hard deadline before the supervisor
    kills the worker outright (guards against heartbeat-alive loops)."""

    max_redispatches: int = 1
    """Fresh-worker retries per task after a crash/hang."""

    redispatch_budget_factor: float = 0.5
    """Scale on the re-dispatched task's soft/hard second budgets."""

    fault_plan: Optional[Dict[int, str]] = None
    """Test/chaos injection: task index -> ``"crash"`` | ``"hang"``,
    applied to the first attempt only."""

    def validate(self) -> None:
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be > 0")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval")
        if self.task_wall_grace < 0:
            raise ValueError("task_wall_grace must be non-negative")
        if self.max_redispatches < 0:
            raise ValueError("max_redispatches must be non-negative")
        if not 0.0 < self.redispatch_budget_factor <= 1.0:
            raise ValueError(
                "redispatch_budget_factor must be in (0, 1]")


@dataclass
class SupervisorStats:
    """What the supervisor saw (surfaced via the engine report)."""

    workers_spawned: int = 0
    workers_crashed: int = 0
    workers_hung: int = 0
    wall_timeouts: int = 0
    redispatches: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "workers_spawned": self.workers_spawned,
            "workers_crashed": self.workers_crashed,
            "workers_hung": self.workers_hung,
            "wall_timeouts": self.wall_timeouts,
            "redispatches": self.redispatches,
            "quarantined": self.quarantined,
        }


def _supervised_worker(worker_id: int, payload: bytes, task_q,
                       msg_q, heartbeat_interval: float) -> None:
    """Worker main: pick up tasks, learn, beat, report."""
    import threading

    from repro.perf.parallel import run_output_task

    oracle, config, bank = pickle.loads(payload)
    while True:
        item = task_q.get()
        if item is None:
            return
        task, fault = item
        if fault == "crash":
            # Hard exit, no cleanup — indistinguishable from a segfault
            # as far as the supervisor is concerned.
            os._exit(43)
        if fault == "hang":
            # Stall *before* the heartbeat thread exists, so the
            # supervisor's heartbeat timeout (not the wall timeout) is
            # the mechanism under test.
            time.sleep(_HANG_SLEEP)
            continue
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(heartbeat_interval):
                msg_q.put(("hb", worker_id))

        msg_q.put(("hb", worker_id))
        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        try:
            res = run_output_task(oracle, task, config, bank)
        except BaseException as exc:  # noqa: BLE001 - keep worker alive
            res = OutputResult(
                task.index, error=f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__)
        finally:
            stop.set()
        msg_q.put(("done", worker_id, res))


class _WorkerHandle:
    """Supervisor-side state of one worker process."""

    def __init__(self, ctx, worker_id: int, payload: bytes, msg_q,
                 heartbeat_interval: float):
        self.worker_id = worker_id
        self.task_q = ctx.SimpleQueue()
        self.proc = ctx.Process(
            target=_supervised_worker,
            args=(worker_id, payload, self.task_q, msg_q,
                  heartbeat_interval),
            daemon=True)
        self.proc.start()
        self.busy: Optional[Tuple[OutputTask, int]] = None  # task, attempt
        self.last_beat = time.monotonic()
        self.task_start = 0.0

    def dispatch(self, task: OutputTask, attempt: int,
                 fault: Optional[str]) -> None:
        self.busy = (task, attempt)
        now = time.monotonic()
        self.last_beat = now
        self.task_start = now
        self.task_q.put((task, fault))

    def wall_limit(self, grace: float) -> Optional[float]:
        task = self.busy[0]
        if task.hard_seconds == float("inf"):
            return None
        return task.hard_seconds + grace

    def shutdown(self) -> None:
        try:
            if self.proc.is_alive():
                self.task_q.put(None)
                self.proc.join(timeout=1.0)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=1.0)
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass


def run_supervised(payload: bytes, tasks: List[OutputTask], jobs: int,
                   policy: SupervisorPolicy,
                   on_result: Optional[
                       Callable[[OutputResult], None]] = None
                   ) -> Tuple[Dict[int, OutputResult], SupervisorStats]:
    """Run every task under supervision across ``jobs`` workers.

    Always returns a result for every task index — a cover, an error
    result from the worker, or a ``PoisonTask`` quarantine record.
    Raises ``OSError`` only if the *initial* pool cannot be brought up
    at all (the caller's sequential fallback handles that).
    """
    import multiprocessing as mp

    policy.validate()
    stats = SupervisorStats()
    results: Dict[int, OutputResult] = {}
    plan = dict(policy.fault_plan or {})
    ctx = mp.get_context()
    msg_q = ctx.Queue()
    pending: List[Tuple[OutputTask, int]] = [(t, 0) for t in tasks]
    pending.reverse()  # pop() then serves in task order
    attempts_failed: Dict[int, int] = {}

    next_id = 0
    workers: Dict[int, _WorkerHandle] = {}

    def spawn() -> _WorkerHandle:
        nonlocal next_id
        handle = _WorkerHandle(ctx, next_id, payload, msg_q,
                               policy.heartbeat_interval)
        workers[handle.worker_id] = handle
        next_id += 1
        stats.workers_spawned += 1
        return handle

    def feed(handle: _WorkerHandle) -> None:
        if not pending:
            return
        task, attempt = pending.pop()
        fault = plan.get(task.index) if attempt == 0 else None
        handle.dispatch(task, attempt, fault)

    def land(res: OutputResult) -> None:
        results[res.index] = res
        if on_result is not None:
            on_result(res)

    def casualty(handle: _WorkerHandle, reason: str) -> None:
        """A worker died or was killed while holding a task."""
        task, attempt = handle.busy
        handle.busy = None
        handle.shutdown()
        del workers[handle.worker_id]
        attempts_failed[task.index] = attempt + 1
        if attempt < policy.max_redispatches:
            stats.redispatches += 1
            factor = policy.redispatch_budget_factor
            retry = OutputTask(
                task.index, task.support,
                soft_seconds=task.soft_seconds * factor,
                hard_seconds=task.hard_seconds * factor)
            pending.append((retry, attempt + 1))
        else:
            stats.quarantined += 1
            land(OutputResult(
                task.index,
                error=(f"poison task: killed "
                       f"{attempts_failed[task.index]} workers "
                       f"({reason})"),
                error_type="PoisonTask"))

    try:
        for _ in range(min(jobs, len(tasks))):
            handle = spawn()
            feed(handle)
        while len(results) < len(tasks):
            try:
                msg = msg_q.get(timeout=0.05)
            except Empty:
                msg = None
            if msg is not None:
                kind, worker_id = msg[0], msg[1]
                handle = workers.get(worker_id)
                if handle is None:
                    continue  # stale beat from a terminated worker
                if kind == "hb":
                    handle.last_beat = time.monotonic()
                elif kind == "done":
                    res = msg[2]
                    handle.busy = None
                    land(res)
                    if pending:
                        feed(handle)
            # Tick: sweep busy workers for crashes, silence, overruns.
            now = time.monotonic()
            for handle in list(workers.values()):
                if handle.busy is None:
                    if pending:
                        feed(handle)
                    continue
                if not handle.proc.is_alive():
                    stats.workers_crashed += 1
                    casualty(handle, "worker crashed")
                elif now - handle.last_beat > policy.heartbeat_timeout:
                    stats.workers_hung += 1
                    handle.proc.terminate()
                    casualty(handle, "heartbeat timeout")
                else:
                    wall = handle.wall_limit(policy.task_wall_grace)
                    if wall is not None and now - handle.task_start > wall:
                        stats.wall_timeouts += 1
                        handle.proc.terminate()
                        casualty(handle, "wall timeout")
            # Keep the pool at strength while work remains.
            want = min(jobs, len(pending)
                       + sum(1 for h in workers.values() if h.busy))
            while len(workers) < want:
                feed(spawn())
    finally:
        for handle in list(workers.values()):
            handle.shutdown()
        try:
            msg_q.close()
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass
    return results, stats
