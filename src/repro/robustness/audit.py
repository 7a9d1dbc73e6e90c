"""Corruption auditing: deterministically spot-check delivered rows.

PR 1's retry layer only cures *loud* faults — a transient raises, a
timeout raises, and the retry re-asks.  Silent corruption (bit-flip
noise in the generator's answers) sails straight through, poisons the
:class:`~repro.perf.bank.SampleBank` and the retry memo cache, and biases
every FBDT split downstream.  :class:`AuditingOracle` closes that gap:
it re-queries a seeded fraction of delivered rows, majority-votes any
disagreement, corrects the outgoing block in place, and tells the
caching layers above it to drop any stale copy of a proven-poisoned
assignment.

Determinism across ``--jobs``: audit selection is a *pure per-row hash*
of ``(seed, pattern bytes)`` — never a sequential RNG.  Delivered rows
are identical between a sequential run and any worker sharding, so the
audited set, the disagreement counts, and the billed audit rows are
identical at any ``--jobs`` value.  A sequence-dependent selector would
break the engine's bit-for-bit reproducibility contract.

Auditing is deliberately *non-fatal*: if an audit re-query itself faults
(or would exceed the budget), the audit for that batch is abandoned and
the already-delivered rows pass through unaudited.  A safety net must
never make the run worse than having no net at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.obs import context as obs
from repro.oracle.base import Oracle, OracleFault, QueryBudgetExceeded

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_HASH_SPACE = np.uint64(1 << 30)


def row_select_hash(patterns: np.ndarray, seed: int) -> np.ndarray:
    """A vectorized FNV-1a style hash of each pattern row, folded with
    ``seed``.

    Pure function of ``(seed, row content)`` — the keystone for
    jobs-independent audit selection.  Rows are bit-packed first so the
    per-column loop runs over ``ceil(num_pis / 8)`` bytes, not
    ``num_pis`` bits.
    """
    packed = np.packbits(np.ascontiguousarray(patterns), axis=1)
    h = np.full(patterns.shape[0], _FNV_OFFSET, dtype=np.uint64)
    h ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    h *= _FNV_PRIME
    for col in range(packed.shape[1]):
        h ^= packed[:, col].astype(np.uint64)
        h *= _FNV_PRIME
    # Final avalanche so low-entropy patterns still spread.
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return h


@dataclass
class AuditPolicy:
    """Knobs of the corruption audit."""

    rate: float = 0.05
    """Fraction of delivered rows to re-query (hash-selected)."""

    votes: int = 3
    """Total copies voted on when a re-check disagrees (the original
    delivery, the re-check, and ``votes - 2`` tie-breakers).  Must be
    odd and at least 3 so a per-bit majority always exists."""

    seed: int = 0
    """Folded into the row-selection hash; derived from the run seed so
    different runs audit different subsets."""

    def validate(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("audit rate must be in [0, 1]")
        if self.votes < 3 or self.votes % 2 == 0:
            raise ValueError("votes must be odd and >= 3")


@dataclass
class AuditCounters:
    """What the audit actually observed (tests, accounting, report)."""

    rows_audited: int = 0
    """Delivered rows that were re-queried."""

    rows_disagreed: int = 0
    """Audited rows whose re-check differed in at least one bit."""

    rows_poisoned: int = 0
    """Disagreeing rows where the majority vote overturned the
    originally delivered value — proven corruption, corrected in the
    outgoing block and invalidated upstream."""

    audit_rows_queried: int = 0
    """Extra oracle rows spent on re-checks and tie-breakers (the audit
    overhead, billed like any other query)."""

    audits_aborted: int = 0
    """Audit batches abandoned because the re-query itself faulted or
    the budget ran out; the delivery passed through unaudited."""

    def as_dict(self) -> Dict[str, int]:
        return {
            "rows_audited": self.rows_audited,
            "rows_disagreed": self.rows_disagreed,
            "rows_poisoned": self.rows_poisoned,
            "audit_rows_queried": self.audit_rows_queried,
            "audits_aborted": self.audits_aborted,
        }


class AuditingOracle(Oracle):
    """Re-query a hash-selected fraction of delivered rows and correct
    proven corruption by per-bit majority vote.

    Sits *below* the retry/bank layers and directly above the billing
    oracle, so the caching layers store the post-audit (corrected)
    values, and audit re-queries are billed as real traffic.  Layers
    that may hold a pre-audit copy of a poisoned assignment register an
    invalidator via :meth:`add_invalidator`.
    """

    obs_layer = "audit"

    def __init__(self, inner: Oracle, policy: AuditPolicy = None):
        policy = policy or AuditPolicy()
        policy.validate()
        super().__init__(inner.pi_names, inner.po_names)
        self._inner = inner
        self._policy = policy
        self._threshold = np.uint64(int(policy.rate * float(_HASH_SPACE)))
        self._invalidators: List[Callable[[np.ndarray], int]] = []
        self.counters = AuditCounters()

    @property
    def inner(self) -> Oracle:
        return self._inner

    @property
    def policy(self) -> AuditPolicy:
        return self._policy

    def add_invalidator(self,
                        invalidate: Callable[[np.ndarray], int]) -> None:
        """Register a cache-drop hook called with proven-poisoned
        patterns (e.g. ``SampleBank.invalidate``,
        ``RetryingOracle.invalidate``)."""
        self._invalidators.append(invalidate)

    def _evaluate(self, patterns: np.ndarray) -> np.ndarray:
        out = self._inner.query(patterns, validate=False)
        if self._threshold == 0 or patterns.shape[0] == 0:
            return out
        h = row_select_hash(patterns, self._policy.seed)
        picks = np.flatnonzero((h % _HASH_SPACE) < self._threshold)
        if picks.shape[0] == 0:
            return out
        out = out.copy()  # never mutate an inner layer's buffer
        self._audit_rows(patterns, out, picks)
        return out

    def _audit_rows(self, patterns: np.ndarray, out: np.ndarray,
                    picks: np.ndarray) -> None:
        c = self.counters
        audit_pat = np.ascontiguousarray(patterns[picks])
        try:
            recheck = self._inner.query(audit_pat, validate=False)
        except (OracleFault, QueryBudgetExceeded):
            c.audits_aborted += 1
            obs.count("audit.aborted")
            return
        c.rows_audited += picks.shape[0]
        c.audit_rows_queried += picks.shape[0]
        obs.count("audit.rows_audited", int(picks.shape[0]))
        disagree = np.flatnonzero(
            np.any(out[picks] != recheck, axis=1))
        if disagree.shape[0] == 0:
            return
        c.rows_disagreed += disagree.shape[0]
        obs.count("audit.rows_disagreed", int(disagree.shape[0]))
        # Majority vote: the original delivery, the re-check, and
        # votes - 2 tie-breaker copies of just the disagreeing rows.
        sus_pat = np.ascontiguousarray(audit_pat[disagree])
        ballots = [out[picks][disagree], recheck[disagree]]
        try:
            for _ in range(self._policy.votes - 2):
                ballots.append(
                    self._inner.query(sus_pat, validate=False))
                c.audit_rows_queried += sus_pat.shape[0]
        except (OracleFault, QueryBudgetExceeded):
            c.audits_aborted += 1
            obs.count("audit.aborted")
            return
        stack = np.stack(ballots).astype(np.int32)
        majority = (stack.sum(axis=0) * 2
                    > stack.shape[0]).astype(np.uint8)
        poisoned = np.flatnonzero(
            np.any(out[picks][disagree] != majority, axis=1))
        if poisoned.shape[0]:
            c.rows_poisoned += poisoned.shape[0]
            obs.count("audit.rows_poisoned", int(poisoned.shape[0]))
            bad_pat = np.ascontiguousarray(sus_pat[poisoned])
            for invalidate in self._invalidators:
                invalidate(bad_pat)
        # Correct the outgoing block to the majority (covers both the
        # "delivery was poisoned" and the "re-check was noisy" cases).
        out[picks[disagree]] = majority
