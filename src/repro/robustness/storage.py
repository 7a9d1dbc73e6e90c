"""The hardened storage layer: every durable byte goes through here.

Before this module existed the repo had four independent
``temp + os.replace`` implementations (spool journals, the cross-job
cache, telemetry appends, checkpoints) plus a bare ``open(.., "a")`` for
the benchmark history — none of which called ``fsync``, and none of
which could be made to fail on purpose.  "Atomic because we call
``os.replace``" is a claim, not a contract, until (a) the rename is
durable and (b) every crash- and fault-point around it has been
exercised.  This module supplies both halves:

- :class:`Storage` — the one true writer.  ``atomic_write_bytes`` /
  ``atomic_write_json`` do write-temp → fsync(file) → rename →
  fsync(dir); ``append_line`` / ``append_record`` do a single
  ``write(2)`` on an ``O_APPEND`` descriptor (healing a torn tail by
  prefixing a newline) followed by an fsync barrier.  The fsyncs are the
  ``durability="strict"`` policy; ``durability="lax"`` skips them so
  tests and benchmarks stay fast while exercising identical code paths.
  Digest framing (:func:`payload_digest`) is part of the layer: JSON
  artifacts and JSONL lines carry a sha256 of their canonical encoding,
  so readers can tell a torn or tampered artifact from a valid one.

- :class:`FaultyStorage` — the injectable shim (same family as
  :mod:`repro.robustness.faults`).  A seeded :class:`StorageFaultModel`
  injects ENOSPC, EIO and torn/short writes at configurable rates,
  optionally restricted to a set of writers; ``crash_at``/``fail_at``
  deterministically raise :class:`SimulatedCrash` or an ``OSError`` at
  the N-th syscall-equivalent step (write-temp, fsync-file, rename,
  fsync-dir, append, fsync-append), which is what the crash-point
  exploration harness (:mod:`repro.robustness.crashpoints`) sweeps.

:class:`SimulatedCrash` deliberately subclasses ``BaseException``: a
real ``kill -9`` is not catchable, so the simulated one must pierce the
``except Exception`` swallowers on best-effort paths (telemetry flush,
cache export) exactly like the real thing — and the atomic writer must
*not* clean up its temp file on the way out, because a real crash
leaves that debris behind for recovery to cope with.

Every write is attributed to a *writer* name (``"journal"``,
``"cache"``, ``"telemetry"``, ``"history"``, ...); per-writer op /
fault / drop counters feed the ``storage`` block of
``fleet_status.json`` and the run report, and drive the disk-pressure
brownout documented in ``docs/ROBUSTNESS.md``.

The process-wide default instance honours the ``REPRO_DURABILITY``
environment variable (``strict`` unless set to ``lax``); worker child
processes inherit it through the environment.  ``use_storage`` swaps
the default within a scope — how chaos scenarios and the crash-point
harness inject faults under production call paths.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import random
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

DURABILITY_ENV = "REPRO_DURABILITY"
DURABILITY_MODES = ("strict", "lax")

#: Syscall-equivalent steps of one atomic replace, in order.
ATOMIC_STEPS = ("write-temp", "fsync-file", "rename", "fsync-dir")
#: Syscall-equivalent steps of one durable append, in order.
APPEND_STEPS = ("append", "fsync-append")


def payload_digest(obj: Any) -> str:
    """sha256 over the canonical JSON encoding of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SimulatedCrash(BaseException):
    """The process 'died' at a storage step (crash-point injection).

    A ``BaseException`` on purpose: best-effort writers swallow
    ``Exception``, and a kill must not be swallowable.
    """


class StorageCounters:
    """Per-writer op / fault / drop tallies for one storage instance."""

    def __init__(self) -> None:
        self.ops: Dict[str, int] = {}
        self.faults: Dict[str, Dict[str, int]] = {}
        self.drops: Dict[str, int] = {}

    def note_op(self, writer: str) -> None:
        self.ops[writer] = self.ops.get(writer, 0) + 1

    def note_fault(self, writer: str, kind: str) -> None:
        per = self.faults.setdefault(writer, {})
        per[kind] = per.get(kind, 0) + 1

    def note_drop(self, writer: str) -> None:
        """One payload intentionally shed (brownout / swallowed fault)."""
        self.drops[writer] = self.drops.get(writer, 0) + 1

    def fault_total(self, kind: Optional[str] = None) -> int:
        return sum(n for per in self.faults.values()
                   for k, n in per.items()
                   if kind is None or k == kind)

    def to_json(self) -> Dict[str, Any]:
        return {
            "ops": dict(sorted(self.ops.items())),
            "faults": {w: dict(sorted(per.items()))
                       for w, per in sorted(self.faults.items())},
            "drops": dict(sorted(self.drops.items())),
        }


class Storage:
    """The hardened writer: atomic replaces and durable appends.

    ``durability="strict"`` (the default) adds the fsync barriers that
    make ``os.replace`` survive power loss; ``"lax"`` skips them (same
    code path, same step hooks minus the fsync points) for tests and
    benchmarks.  Subclasses override :meth:`_point` (called immediately
    *before* each syscall-equivalent step) and :meth:`_write` to inject
    faults.
    """

    def __init__(self, durability: str = "strict"):
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}")
        self.durability = durability
        self.counters = StorageCounters()
        #: Wall seconds spent inside fsync barriers (and how many),
        #: accumulated in-situ so the durability-overhead probe does
        #: not depend on noisy cross-run wall deltas.
        self.fsync_calls = 0
        self.fsync_seconds = 0.0

    # -- injection hooks -----------------------------------------------------

    def _point(self, writer: str, step: str, path: str) -> None:
        """Called before each syscall-equivalent step; faults go here."""

    def _write(self, fd: int, data: bytes, writer: str) -> None:
        """The payload transfer; overridden to tear writes."""
        os.write(fd, data)

    def _fsync(self, fd: int) -> None:
        started = time.perf_counter()
        os.fsync(fd)
        self.fsync_seconds += time.perf_counter() - started
        self.fsync_calls += 1

    def barrier_stats(self) -> Dict[str, Any]:
        """fsync barrier tallies for this storage instance."""
        return {"fsync_calls": self.fsync_calls,
                "fsync_seconds": round(self.fsync_seconds, 6)}

    # -- atomic replace ------------------------------------------------------

    def atomic_write_bytes(self, path: str, data: bytes, *,
                           writer: str = "unknown",
                           suffix: str = ".tmp") -> None:
        """write-temp → fsync(file) → rename → fsync(dir), all or nothing.

        On failure the temp file is unlinked and the destination is
        untouched — except on :class:`SimulatedCrash`, which (like the
        real kill it stands in for) runs no cleanup and leaves the temp
        debris behind.
        """
        self.counters.note_op(writer)
        path = os.path.abspath(path)
        directory = os.path.dirname(path)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=suffix)
        try:
            try:
                self._point(writer, "write-temp", path)
                self._write(fd, data, writer)
                if self.durability == "strict":
                    self._point(writer, "fsync-file", path)
                    self._fsync(fd)
            finally:
                os.close(fd)
            self._point(writer, "rename", path)
            os.replace(tmp, path)
            if self.durability == "strict":
                self._point(writer, "fsync-dir", path)
                self._fsync_dir(directory)
        except SimulatedCrash:
            raise  # a real crash leaves the temp file on disk
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def atomic_write_json(self, path: str, data: dict, *,
                          writer: str = "unknown", digest: bool = True,
                          indent: Optional[int] = None,
                          sort_keys: bool = False,
                          trailing_newline: bool = False,
                          suffix: str = ".json.tmp") -> None:
        """Serialise + digest-stamp + atomic replace.

        ``indent`` / ``sort_keys`` / ``trailing_newline`` preserve the
        byte formats of the callers this layer consolidated (spool
        journals are pretty-printed, checkpoints compact).
        """
        if digest:
            data = dict(data)
            data.pop("digest", None)
            data["digest"] = payload_digest(data)
        text = json.dumps(data, indent=indent, sort_keys=sort_keys)
        if trailing_newline:
            text += "\n"
        self.atomic_write_bytes(path, text.encode("utf-8"),
                                writer=writer, suffix=suffix)

    def atomic_write_text(self, path: str, text: str, *,
                          writer: str = "unknown",
                          suffix: str = ".tmp") -> None:
        self.atomic_write_bytes(path, text.encode("utf-8"),
                                writer=writer, suffix=suffix)

    # -- durable append ------------------------------------------------------

    def append_line(self, path: str, line: str, *,
                    writer: str = "unknown") -> None:
        """One line, one ``write(2)``, then the durability barrier.

        If a previous writer was killed mid-append the tail has no
        newline; we prefix one so only the torn line stays corrupt and
        ours parses cleanly (torn-tail self-healing).
        """
        data = line if line.endswith("\n") else line + "\n"
        if self._tail_unterminated(path):
            data = "\n" + data
        self.counters.note_op(writer)
        self._point(writer, "append", path)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            self._write(fd, data.encode("utf-8"), writer)
            if self.durability == "strict":
                self._point(writer, "fsync-append", path)
                self._fsync(fd)
        finally:
            os.close(fd)

    def append_record(self, path: str, record: Dict[str, Any], *,
                      writer: str = "unknown") -> None:
        """Digest-stamp ``record`` and append it as one JSONL line."""
        record = dict(record)
        record.pop("digest", None)
        record["digest"] = payload_digest(record)
        self.append_line(path, json.dumps(record, sort_keys=True),
                         writer=writer)

    @staticmethod
    def _tail_unterminated(path: str) -> bool:
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    def _fsync_dir(self, directory: str) -> None:
        try:
            dfd = os.open(directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds
        try:
            self._fsync(dfd)
        except OSError:
            pass
        finally:
            os.close(dfd)


# -- checked readers (fault-free: readers are already defensive) -------------

def read_json_checked(path: str) -> Optional[dict]:
    """Read a digested JSON file; ``None`` if missing/torn/tampered."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    stored = data.pop("digest", None)
    if stored != payload_digest(data):
        return None
    return data


def read_records(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """``(records, corrupt_lines)`` from a digest-per-line JSONL file.

    A line is corrupt when it fails to parse or its digest does not
    match its payload — a torn tail from a killed writer, a partial
    line an active writer is still writing, or tampering.  Corrupt
    lines are skipped, never fatal.
    """
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError:
        return [], 0
    records: List[Dict[str, Any]] = []
    corrupt = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError:
            corrupt += 1
            continue
        if not isinstance(data, dict):
            corrupt += 1
            continue
        stored = data.pop("digest", None)
        if stored != payload_digest(data):
            corrupt += 1
            continue
        records.append(data)
    return records, corrupt


# -- fault injection ---------------------------------------------------------

class StorageFaultModel:
    """Seeded random storage-fault rates, optionally writer-scoped.

    ``writers=None`` faults everything; a set of names restricts
    injection to those writers — how the chaos scenarios fill the disk
    under telemetry and the cache while journal writes keep working
    (the brownout thresholds fire on *headroom*, before hard-full, so
    essential writers are protected in the scenario being modelled).
    """

    def __init__(self, enospc_rate: float = 0.0, eio_rate: float = 0.0,
                 torn_rate: float = 0.0,
                 writers: Optional[Iterable[str]] = None):
        self.enospc_rate = float(enospc_rate)
        self.eio_rate = float(eio_rate)
        self.torn_rate = float(torn_rate)
        self.writers = None if writers is None else frozenset(writers)
        self.validate()

    def validate(self) -> None:
        for name in ("enospc_rate", "eio_rate", "torn_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def applies_to(self, writer: str) -> bool:
        return self.writers is None or writer in self.writers

    def any_rate(self) -> bool:
        return bool(self.enospc_rate or self.eio_rate or self.torn_rate)


class FaultyStorage(Storage):
    """A :class:`Storage` that misbehaves on schedule.

    Three independent mechanisms, combinable:

    - ``model``: seeded random ENOSPC / EIO / torn writes at the
      model's rates, at payload-transfer steps, for the model's
      writers.  A fixed number of RNG draws per step keeps fault
      *schedules* reproducible across code changes (the
      :class:`~repro.robustness.faults.FaultyOracle` convention).
    - ``crash_at=i``: raise :class:`SimulatedCrash` at the i-th step
      point (0-indexed across the storage instance's lifetime); with
      ``torn=True`` a crash at a payload step first writes a prefix of
      the data — the torn-write crash.
    - ``fail_at=(i, kind)``: raise ``OSError(ENOSPC|EIO)`` at the i-th
      step point — the transient-fault exploration axis.

    ``trace`` records every step visited as ``(writer, step,
    basename)``; a fault-free pass over a workload yields the step
    universe the crash-point harness then sweeps.
    """

    #: fault kinds understood by ``fail_at``
    FAIL_KINDS = {"enospc": errno.ENOSPC, "eio": errno.EIO}

    def __init__(self, model: Optional[StorageFaultModel] = None, *,
                 seed: int = 0, durability: str = "strict",
                 crash_at: Optional[int] = None, torn: bool = False,
                 fail_at: Optional[Tuple[int, str]] = None):
        super().__init__(durability=durability)
        self.model = model
        self.rng = random.Random(seed)
        self.crash_at = crash_at
        self.torn = bool(torn)
        if fail_at is not None and fail_at[1] not in self.FAIL_KINDS:
            raise ValueError(f"unknown fault kind {fail_at[1]!r}")
        self.fail_at = fail_at
        self.trace: List[Tuple[str, str, str]] = []
        self._step_index = 0
        self._tear_next = False
        self._tear_then_crash = False

    def _raise_os(self, writer: str, kind: str) -> None:
        self.counters.note_fault(writer, kind)
        code = self.FAIL_KINDS[kind]
        raise OSError(code, f"simulated {kind.upper()}: "
                            f"{os.strerror(code)}")

    def _point(self, writer: str, step: str, path: str) -> None:
        index = self._step_index
        self._step_index += 1
        self.trace.append((writer, step, os.path.basename(path)))
        payload_step = step in ("write-temp", "append")
        if self.crash_at is not None and index == self.crash_at:
            if self.torn and payload_step:
                # Crash *during* the transfer: leave a torn prefix.
                self._tear_next = True
                self._tear_then_crash = True
                return
            self.counters.note_fault(writer, "crash")
            raise SimulatedCrash(
                f"crash-point {index}: {writer}/{step}")
        if self.fail_at is not None and index == self.fail_at[0]:
            self._raise_os(writer, self.fail_at[1])
        if self.model is not None and self.model.any_rate() \
                and self.model.applies_to(writer) and payload_step:
            # Fixed draw count per step: reproducible schedules.
            draws = (self.rng.random(), self.rng.random(),
                     self.rng.random())
            if draws[0] < self.model.enospc_rate:
                self._raise_os(writer, "enospc")
            if draws[1] < self.model.eio_rate:
                self._raise_os(writer, "eio")
            if draws[2] < self.model.torn_rate:
                # Partial transfer then EIO: the caller sees the
                # failure, but the bytes already hit the file — on an
                # append that is exactly a torn tail.
                self._tear_next = True

    def _write(self, fd: int, data: bytes, writer: str) -> None:
        if not self._tear_next:
            os.write(fd, data)
            return
        self._tear_next = False
        cut = max(1, len(data) // 2) if len(data) > 1 else 1
        os.write(fd, data[:cut])
        if self._tear_then_crash:
            self._tear_then_crash = False
            self.counters.note_fault(writer, "crash")
            raise SimulatedCrash(
                f"crash mid-write ({cut}/{len(data)} bytes)")
        self._raise_os(writer, "eio")


# -- process-wide default ----------------------------------------------------

_default_storage: Optional[Storage] = None


def default_durability() -> str:
    """The durability mode the environment asks for (strict unless lax)."""
    mode = os.environ.get(DURABILITY_ENV, "strict").strip().lower()
    return mode if mode in DURABILITY_MODES else "strict"


def get_storage() -> Storage:
    """The process-wide storage (lazily built from the environment)."""
    global _default_storage
    if _default_storage is None:
        _default_storage = Storage(durability=default_durability())
    return _default_storage


def set_storage(storage: Optional[Storage]) -> Optional[Storage]:
    """Replace the process-wide storage; returns the previous one.

    ``None`` resets to lazy re-resolution from the environment.
    """
    global _default_storage
    previous = _default_storage
    _default_storage = storage
    return previous


@contextlib.contextmanager
def use_storage(storage: Storage):
    """Scope the process-wide storage — fault injection entry point."""
    previous = set_storage(storage)
    try:
        yield storage
    finally:
        set_storage(previous)


def _resolve(storage: Optional[Storage]) -> Storage:
    return storage if storage is not None else get_storage()


# -- module-level conveniences (the call sites' vocabulary) ------------------

def atomic_write_bytes(path: str, data: bytes, *,
                       writer: str = "unknown", suffix: str = ".tmp",
                       storage: Optional[Storage] = None) -> None:
    _resolve(storage).atomic_write_bytes(path, data, writer=writer,
                                         suffix=suffix)


def atomic_write_json(path: str, data: dict, *, writer: str = "unknown",
                      digest: bool = True, indent: Optional[int] = None,
                      sort_keys: bool = False,
                      trailing_newline: bool = False,
                      suffix: str = ".json.tmp",
                      storage: Optional[Storage] = None) -> None:
    _resolve(storage).atomic_write_json(
        path, data, writer=writer, digest=digest, indent=indent,
        sort_keys=sort_keys, trailing_newline=trailing_newline,
        suffix=suffix)


def atomic_write_text(path: str, text: str, *, writer: str = "unknown",
                      suffix: str = ".tmp",
                      storage: Optional[Storage] = None) -> None:
    _resolve(storage).atomic_write_text(path, text, writer=writer,
                                        suffix=suffix)


def append_line(path: str, line: str, *, writer: str = "unknown",
                storage: Optional[Storage] = None) -> None:
    _resolve(storage).append_line(path, line, writer=writer)


def append_record(path: str, record: Dict[str, Any], *,
                  writer: str = "unknown",
                  storage: Optional[Storage] = None) -> None:
    _resolve(storage).append_record(path, record, writer=writer)


# -- disk pressure -----------------------------------------------------------

class DiskPressureMonitor:
    """Samples used-space fraction for the spool's filesystem.

    ``probe`` (an injectable ``() -> (total_bytes, free_bytes)``) is how
    tests and chaos scenarios simulate a filling disk without filling
    one.  When the process-wide storage has seen an ENOSPC since the
    last sample, pressure is elevated to at least 0.99 — the filesystem
    is proving it is full regardless of what ``statvfs`` claims.
    """

    def __init__(self, path: str, probe=None,
                 storage: Optional[Storage] = None):
        self.path = str(path)
        self.probe = probe
        self._storage = storage
        self._enospc_seen = 0

    def sample(self) -> Dict[str, Any]:
        if self.probe is not None:
            total, free = self.probe()
        else:
            try:
                import shutil
                usage = shutil.disk_usage(self.path)
                total, free = usage.total, usage.free
            except OSError:
                total, free = 0, 0
        pressure = 0.0 if total <= 0 else max(
            0.0, min(1.0, 1.0 - free / total))
        storage = self._storage if self._storage is not None \
            else get_storage()
        enospc = storage.counters.fault_total("enospc")
        if enospc > self._enospc_seen:
            pressure = max(pressure, 0.99)
        self._enospc_seen = enospc
        return {
            "total_bytes": int(total),
            "free_bytes": int(free),
            "pressure": round(float(pressure), 6),
        }
