"""The cross-output sample bank: never pay twice for the same answer.

Every oracle answer is a *full* output assignment, but the per-output
learner historically used one column and threw the rest away.  The bank
keeps every answered ``(pattern, full output row)`` pair in a
memory-bounded ring so later consumers — support identification for an
output learned after its siblings, TruthRatio probes, constant-leaf
detection, FBDT cube filtering — can drain matching rows before spending
new query budget ("Sampling and Learning for Boolean Function" argues
sample reuse across sub-problems is the main lever on query complexity).

Two access paths:

- **exact-row reuse** — :class:`BankedOracle` wraps any oracle, serves
  previously answered assignments from the bank and forwards only the
  misses (skipped for very large batches, where the per-row hashing would
  cost more than it saves);
- **subspace drains** — :meth:`SampleBank.take` returns stored rows
  satisfying a constraining cube, which is what the FBDT's leaf probes
  want.

Determinism: bank contents are a pure function of the query sequence, so
sequential runs are reproducible.  For parallel per-output learning the
regressor freezes the bank after preprocessing and gives each output a
private :meth:`fork` — reads then depend only on the (deterministic)
preprocessing traffic plus the output's own queries, never on sibling
outputs racing in other workers.
"""

from __future__ import annotations

import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.logic import bitops
from repro.logic.cube import Cube
from repro.obs import context as obs
from repro.oracle.base import Oracle


@dataclass
class BankStats:
    """Per-bank traffic counters (surfaced in the CLI report)."""

    hits: int = 0
    """Rows served from the bank instead of the oracle."""

    misses: int = 0
    """Rows that had to be queried because the bank could not supply
    them (exact-row misses plus the fresh remainder of subspace
    drains)."""

    rows_recorded: int = 0
    """Distinct rows ever written into the ring."""

    rows_evicted: int = 0
    """Rows overwritten by the FIFO ring after it filled up."""

    take_calls: int = 0
    """Subspace drains served (:meth:`SampleBank.take`)."""

    rows_invalidated: int = 0
    """Rows dropped by corruption auditing (:meth:`SampleBank.invalidate`)."""

    def merge(self, other: "BankStats") -> None:
        """Fold a child bank's counters into this one (fork → parent)."""
        self.hits += other.hits
        self.misses += other.misses
        self.rows_recorded += other.rows_recorded
        self.rows_evicted += other.rows_evicted
        self.take_calls += other.take_calls
        self.rows_invalidated += other.rows_invalidated


class SampleBank:
    """A memory-bounded FIFO store of answered ``(pattern, outputs)`` rows.

    Rows live in fixed pre-allocated arrays addressed as a ring; a dict
    from pattern bytes to slot gives O(1) exact lookups and keeps the
    store duplicate-free.  ``max_rows`` bounds memory at
    ``max_rows * (num_pis + num_pos)`` bytes plus the index.
    """

    def __init__(self, num_pis: int, num_pos: int,
                 max_rows: int = 1 << 16):
        if max_rows <= 0:
            raise ValueError("max_rows must be positive")
        self.num_pis = num_pis
        self.num_pos = num_pos
        self.max_rows = max_rows
        self._pat = np.zeros((max_rows, num_pis), dtype=np.uint8)
        # Packed mirror of _pat: variable-major uint64 words (bit s of
        # word s>>6 is slot s), kept in sync by record() so subspace
        # drains match cubes in O(literals * max_rows / 64) word ops
        # instead of a column comparison per literal per stored row.
        self._pat_words = np.zeros(
            (num_pis, bitops.words_for(max_rows)), dtype=np.uint64)
        self._out = np.zeros((max_rows, num_pos), dtype=np.uint8)
        self._keys: list = [None] * max_rows
        self._index: Dict[bytes, int] = {}
        self._valid = np.zeros(max_rows, dtype=bool)
        self._size = 0
        self._write = 0
        self._frozen = False
        self._ever_invalidated = False
        self.stats = BankStats()

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def frozen(self) -> bool:
        return self._frozen

    def nbytes(self) -> int:
        """Bytes currently occupied by stored rows."""
        return self._size * (self.num_pis + self.num_pos)

    def export_rows(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Snapshot every valid ``(pattern, outputs)`` row, or ``None``
        when empty — what the cross-job cache persists after a run."""
        if self._size == 0:
            return None
        idx = np.flatnonzero(self._valid)
        return self._pat[idx].copy(), self._out[idx].copy()

    # -- lifecycle -----------------------------------------------------------

    def freeze(self) -> None:
        """Make the bank read-only; ``record`` becomes a no-op."""
        self._frozen = True

    def fork(self) -> "SampleBank":
        """A writable private copy seeded with this bank's rows.

        Fork stats start at zero so per-output reuse is attributable;
        fold them back with ``parent.stats.merge(child.stats)``.
        """
        child = SampleBank(self.num_pis, self.num_pos,
                           max_rows=self.max_rows)
        child._pat = self._pat.copy()
        child._pat_words = self._pat_words.copy()
        child._out = self._out.copy()
        child._keys = list(self._keys)
        child._index = dict(self._index)
        child._valid = self._valid.copy()
        child._size = self._size
        child._write = self._write
        child._ever_invalidated = self._ever_invalidated
        return child

    # -- writes --------------------------------------------------------------

    def record(self, patterns: np.ndarray, outputs: np.ndarray) -> None:
        """Store answered rows (duplicates are skipped, oldest evicted).

        Batches larger than the ring only keep their tail — the head
        would be immediately evicted anyway.  Slots are assigned row by
        row; the arrays are then written once per contiguous run of new
        slots.
        """
        if self._frozen:
            return
        evicted_before = self.stats.rows_evicted
        n = patterns.shape[0]
        if n > self.max_rows:
            patterns = patterns[n - self.max_rows:]
            outputs = outputs[n - self.max_rows:]
            n = self.max_rows
        start = self._write
        rows = array.array("q")  # batch rows given new slots, compactly
        slot = start
        for row in range(n):
            key = patterns[row].tobytes()
            if key in self._index:
                continue
            old = self._keys[slot]
            if old is not None:
                del self._index[old]
                self.stats.rows_evicted += 1
            else:
                self._size += 1
            self._keys[slot] = key
            self._index[key] = slot
            rows.append(row)
            slot = (slot + 1) % self.max_rows
        self._write = slot
        self.stats.rows_recorded += len(rows)
        # At most max_rows new slots from start: one run, or two when
        # the ring wraps.
        head = min(len(rows), self.max_rows - start)
        self._write_run(start, patterns, outputs, rows[:head])
        self._write_run(0, patterns, outputs, rows[head:])
        obs.count("bank.rows_evicted",
                  self.stats.rows_evicted - evicted_before)

    _RUN_CHUNK = 4096
    """Slots written per step of :meth:`_write_run`; bounds the gathered
    and packed temporaries at ``_RUN_CHUNK * num_pis`` bytes."""

    def _write_run(self, first: int, patterns: np.ndarray,
                   outputs: np.ndarray, rows: array.array) -> None:
        """Write ``patterns[rows]`` and ``outputs[rows]`` into slots
        ``first, first + 1, ...`` and repack the affected words of the
        packed mirror from ``_pat``."""
        for offset in range(0, len(rows), self._RUN_CHUNK):
            picks = np.frombuffer(rows[offset:offset + self._RUN_CHUNK],
                                  dtype=np.int64)
            lo = first + offset
            hi = lo + len(picks)
            self._pat[lo:hi] = patterns[picks]
            self._out[lo:hi] = outputs[picks]
            self._valid[lo:hi] = True
            # Whole words touched by [lo, hi); the slots they share with
            # older rows are repacked from _pat unchanged.
            w_lo, w_hi = lo >> 6, (hi + 63) >> 6
            block = self._pat[w_lo << 6:min(w_hi << 6, self.max_rows)]
            bits = np.packbits(block.T, axis=1, bitorder="little")
            pad = 8 * (w_hi - w_lo) - bits.shape[1]
            if pad:
                bits = np.pad(bits, ((0, 0), (0, pad)))
            self._pat_words[:, w_lo:w_hi] = \
                np.ascontiguousarray(bits).view(np.uint64)

    def invalidate(self, patterns: np.ndarray) -> int:
        """Drop any stored rows matching ``patterns``; return the count.

        This is corruption recovery: the auditing layer calls it when a
        majority vote proves a delivered answer was poisoned, so the
        stale row can never be replayed into a later split or probe.
        Invalidation works even on a frozen bank — correctness always
        outranks the read-only fan-out snapshot.  The slot becomes a
        tombstone (re-usable by ``record``) rather than being compacted,
        which keeps the ring pointers untouched.
        """
        removed = 0
        for row in range(patterns.shape[0]):
            slot = self._index.pop(patterns[row].tobytes(), None)
            if slot is None:
                continue
            self._keys[slot] = None
            self._valid[slot] = False
            self._size -= 1
            removed += 1
        if removed:
            self._ever_invalidated = True
            self.stats.rows_invalidated += removed
            obs.count("bank.rows_invalidated", removed)
        return removed

    # -- reads ---------------------------------------------------------------

    def lookup(self, patterns: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact-row lookup: ``(hit mask, outputs)``.

        Rows whose mask entry is False carry unspecified output values.
        Does not touch the stats — the caller decides what counts as
        traffic.
        """
        n = patterns.shape[0]
        mask = np.zeros(n, dtype=bool)
        out = np.empty((n, self.num_pos), dtype=np.uint8)
        index = self._index
        for row in range(n):
            slot = index.get(patterns[row].tobytes())
            if slot is not None:
                mask[row] = True
                out[row] = self._out[slot]
        return mask, out

    def take(self, cube: Cube, limit: int
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Up to ``limit`` stored rows satisfying ``cube``.

        Returns ``(patterns, outputs)`` slices (copies).  Served rows
        count as hits.
        """
        self.stats.take_calls += 1
        obs.count("bank.take_calls")
        if limit <= 0 or self._size == 0:
            empty = np.empty((0, self.num_pis), dtype=np.uint8)
            return empty, np.empty((0, self.num_pos), dtype=np.uint8)
        # Packed match against the word mirror: only the cube's literal
        # rows are touched, 64 slots per word op.
        lits = list(cube.literals())
        obs.pcount("bank.scan_words",
                   max(1, len(lits)) * self._pat_words.shape[1])
        if not self._ever_invalidated:
            # Fast path: no tombstones, occupied slots are a prefix (or
            # the whole ring once wrapped).  Empty slots beyond _size
            # hold all-zero patterns that an all-negative cube would
            # match, so the unpacked mask is sliced to the prefix.
            slots = self._size if self._size < self.max_rows \
                else self.max_rows
            mask = bitops.cube_eval_words(self._pat_words, slots, lits)
        else:
            # Tombstoned slots hold stale (possibly poisoned) rows: mask
            # them out explicitly instead of trusting the prefix
            # invariant.
            mask = bitops.cube_eval_words(self._pat_words, self.max_rows,
                                          lits) & self._valid
        picks = np.flatnonzero(mask)[:limit]
        self.stats.hits += picks.shape[0]
        obs.count("bank.rows_hit", int(picks.shape[0]))
        return self._pat[picks].copy(), self._out[picks].copy()


class BankedOracle(Oracle):
    """Serve exact repeats from ``bank``, forward misses, record answers.

    Budget metering stays on ``inner`` — this wrapper never bills the
    real oracle for rows the bank absorbed.  Per-row hashing is skipped
    for batches above ``lookup_limit`` rows (fused sampling megablocks),
    which are simply forwarded and recorded.
    """

    obs_layer = "bank"

    def __init__(self, inner: Oracle, bank: SampleBank,
                 lookup_limit: int = 8192):
        super().__init__(inner.pi_names, inner.po_names)
        self._inner = inner
        self._bank = bank
        self._lookup_limit = lookup_limit

    @property
    def inner(self) -> Oracle:
        return self._inner

    @property
    def bank(self) -> SampleBank:
        return self._bank

    def _evaluate(self, patterns: np.ndarray) -> np.ndarray:
        bank = self._bank
        if patterns.shape[0] > self._lookup_limit:
            out = self._inner.query(patterns, validate=False)
            bank.stats.misses += patterns.shape[0]
            obs.count("bank.rows_missed", patterns.shape[0])
            bank.record(patterns, out)
            return out
        mask, out = bank.lookup(patterns)
        hits = int(mask.sum())
        misses = patterns.shape[0] - hits
        bank.stats.hits += hits
        bank.stats.misses += misses
        obs.count("bank.rows_hit", hits)
        obs.count("bank.rows_missed", misses)
        if misses == 0:
            return out
        miss_rows = np.ascontiguousarray(patterns[~mask])
        answers = self._inner.query(miss_rows, validate=False)
        out[~mask] = answers
        bank.record(miss_rows, answers)
        return out


def banked_probe(oracle: Oracle, cube: Cube, num: int,
                 rng: np.random.Generator, biases,
                 bank: Optional[SampleBank],
                 fresh_fraction: float = 0.25) -> np.ndarray:
    """The FBDT's constant-leaf probe: bank rows first, fresh rows after.

    Returns a ``(num, num_pos)`` output block for the subspace ``cube``.
    At least ``ceil(num * fresh_fraction)`` rows are always freshly
    sampled so a stale bank cannot starve the tree of new evidence.
    Fresh answers are recorded into ``bank`` (idempotent when ``oracle``
    is already a :class:`BankedOracle` over the same bank).
    """
    from repro.core.sampling import random_patterns

    if bank is None:
        probes = random_patterns(num, oracle.num_pis, rng, biases, cube)
        return oracle.query(probes, validate=False)
    if num <= 0:
        return np.empty((0, oracle.num_pos), dtype=np.uint8)
    fresh_min = max(1, int(np.ceil(num * fresh_fraction)))
    banked_pat, banked_out = bank.take(cube, num - fresh_min)
    want = num - banked_out.shape[0]
    if want <= 0:
        return banked_out
    probes = random_patterns(want, oracle.num_pis, rng, biases, cube)
    fresh = oracle.query(probes, validate=False)
    if not isinstance(oracle, BankedOracle):
        bank.stats.misses += want
        bank.record(probes, fresh)
    if banked_out.shape[0] == 0:
        return fresh
    return np.concatenate([banked_out, fresh], axis=0)
