"""Retry with exponential backoff, and a cache that stops double-billing.

A transient oracle fault should cost a retry, not the run.
:class:`RetryingOracle` re-asks a failed batch up to ``max_retries``
times with exponentially growing, jittered delays; only
:class:`~repro.oracle.base.OracleFault` subclasses are retried —
contract violations (bad shapes) and genuine budget exhaustion are
re-raised immediately, since re-asking cannot cure either.

The wrapper also memoizes answered assignments.  Together with the
base-class rule that failed queries are never billed, the cache
guarantees a retried or repeated assignment is paid for at most once:
rows already answered are served from memory without touching the inner
oracle at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.obs import context as obs
from repro.oracle.base import Oracle, OracleFault, QueryBudgetExceeded


class RetryExhausted(OracleFault):
    """All retry attempts failed; carries the last underlying fault."""

    def __init__(self, attempts: int, last: BaseException):
        super().__init__(
            f"query failed after {attempts} attempts: "
            f"{type(last).__name__}: {last}")
        self.attempts = attempts
        self.last = last


@dataclass
class RetryPolicy:
    """Backoff schedule for :class:`RetryingOracle`."""

    max_retries: int = 3
    """Retries after the first attempt (so ``max_retries + 1`` attempts
    total before giving up)."""

    base_delay: float = 0.05
    """Delay before the first retry, seconds."""

    max_delay: float = 2.0
    """Cap on any single delay."""

    jitter: float = 0.5
    """Each delay is scaled by ``1 + jitter * U[0, 1)`` to de-correlate
    retry storms."""

    retry_on: Tuple[type, ...] = (OracleFault,)
    """Exception classes worth re-asking about.  ``QueryBudgetExceeded``
    is never retried even if listed — an exhausted budget stays
    exhausted."""

    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    """Injectable for tests; the backoff schedule is observable without
    real waiting."""

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = self.base_delay * (2.0 ** attempt)
        return min(self.max_delay, raw) * (1.0 + self.jitter * rng.random())


class RetryingOracle(Oracle):
    """Serve queries through ``inner`` with retries and memoization.

    Budget metering stays on ``inner``: this wrapper never bills, it only
    decides what still needs asking.  Its own ``query_count`` counts rows
    *requested* of it, so ``query_count - inner.query_count`` is the
    number of rows the cache absorbed.
    """

    obs_layer = "retry"

    def __init__(self, inner: Oracle, policy: RetryPolicy = None,
                 seed: int = 0, cache: bool = True,
                 max_cache_rows: int = 1 << 18):
        policy = policy or RetryPolicy()
        policy.validate()
        super().__init__(inner.pi_names, inner.po_names)
        self._inner = inner
        self._policy = policy
        self._rng = np.random.default_rng(seed)
        self._cache: Dict[bytes, np.ndarray] = {} if cache else None
        self._max_cache_rows = max_cache_rows
        self._cache_frozen = False
        self.retries_performed = 0
        self.faults_seen = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidated = 0

    @property
    def inner(self) -> Oracle:
        return self._inner

    @property
    def policy(self) -> RetryPolicy:
        return self._policy

    @property
    def cache_frozen(self) -> bool:
        return self._cache_frozen

    @property
    def cache_entries(self) -> int:
        """Memoized assignments currently resident."""
        return 0 if self._cache is None else len(self._cache)

    def counters(self) -> Dict[str, int]:
        """All retry/memo counters, report-ready (schema v3 `caches`)."""
        return {
            "retries_performed": self.retries_performed,
            "faults_seen": self.faults_seen,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidated": self.cache_invalidated,
            "entries": self.cache_entries,
        }

    def freeze_cache(self) -> None:
        """Stop inserting new answers; existing entries still serve.

        Mirrors :meth:`SampleBank.freeze`: the regressor freezes the
        cache before fanning outputs out, so a sequential run and every
        worker shard (whose pickled copy inherits the frozen flag) see
        the *same* cache snapshot — the keystone for identical query
        accounting at any ``--jobs`` value."""
        self._cache_frozen = True

    def invalidate(self, patterns: np.ndarray) -> int:
        """Forget memoized answers for ``patterns``; return the count.

        Corruption recovery: when the auditing layer proves a delivered
        answer was poisoned, the memoized copy must not keep serving it.
        Works even on a frozen cache — correctness outranks the
        read-only fan-out snapshot.  The next request for such a row is
        re-asked (and re-billed, since the poisoned answer was wrong).
        """
        if self._cache is None:
            return 0
        removed = 0
        for row in range(patterns.shape[0]):
            if self._cache.pop(patterns[row].tobytes(), None) is not None:
                removed += 1
        if removed:
            self.cache_invalidated += removed
            obs.count("retry.cache_invalidated", removed)
        return removed

    def _evaluate(self, patterns: np.ndarray) -> np.ndarray:
        if self._cache is None:
            return self._ask(patterns)
        keys = [row.tobytes() for row in patterns]
        miss_idx: List[int] = []
        miss_keys: List[bytes] = []
        # Each missed key's position in miss_keys (and so in answers).
        seen_this_batch: Dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key in self._cache:
                self.cache_hits += 1
            elif key in seen_this_batch:
                self.cache_hits += 1
            else:
                seen_this_batch[key] = len(miss_keys)
                miss_idx.append(i)
                miss_keys.append(key)
        batch_hits = patterns.shape[0] - len(miss_idx)
        self.cache_misses += len(miss_idx)
        if batch_hits:
            obs.count("retry.cache_hit_rows", batch_hits)
        out = np.empty((patterns.shape[0], self.num_pos), dtype=np.uint8)
        if miss_idx:
            answers = self._ask(patterns[miss_idx])
            room = 0 if self._cache_frozen \
                else self._max_cache_rows - len(self._cache)
            for k, (key, row) in enumerate(zip(miss_keys, answers)):
                if k < room:
                    self._cache[key] = row
        for i, key in enumerate(keys):
            if key in self._cache:
                out[i] = self._cache[key]
            else:  # cache frozen or full: not stored, answered this batch
                out[i] = answers[seen_this_batch[key]]
        return out

    def _ask(self, patterns: np.ndarray) -> np.ndarray:
        policy = self._policy
        attempts = policy.max_retries + 1
        last: BaseException = None
        for attempt in range(attempts):
            try:
                # Rows reaching the inner oracle were validated at this
                # wrapper's own boundary; skip re-validating them.
                return self._inner.query(patterns, validate=False)
            except QueryBudgetExceeded:
                raise  # re-asking cannot restore an exhausted budget
            except policy.retry_on as exc:
                self.faults_seen += 1
                obs.count("retry.faults_seen",
                          fault=type(exc).__name__)
                last = exc
                if attempt + 1 < attempts:
                    self.retries_performed += 1
                    obs.count("retry.retries")
                    policy.sleep(policy.delay(attempt, self._rng))
        raise RetryExhausted(attempts, last)
