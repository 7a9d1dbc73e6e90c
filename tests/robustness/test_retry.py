"""Retry with backoff, and the no-double-billing query cache."""

import time

import numpy as np
import pytest

from repro.oracle.base import (QueryBudgetExceeded, TransientOracleFault)
from repro.robustness.retry import (RetryExhausted, RetryingOracle,
                                    RetryPolicy)

from tests.robustness.conftest import FlakyOracle, XorOracle


def no_sleep_policy(**kw):
    sleeps = []
    policy = RetryPolicy(sleep=sleeps.append, **kw)
    return policy, sleeps


class TestBackoff:
    def test_retries_exactly_max_retries_then_gives_up(self):
        flaky = FlakyOracle(XorOracle(), failures=None)
        policy, sleeps = no_sleep_policy(max_retries=4)
        oracle = RetryingOracle(flaky, policy)
        with pytest.raises(RetryExhausted) as exc_info:
            oracle.query(np.zeros((2, 4), dtype=np.uint8))
        # max_retries retries after the first attempt, then degrade.
        assert flaky.attempts == 5
        assert len(sleeps) == 4
        assert oracle.retries_performed == 4
        assert isinstance(exc_info.value.last, TransientOracleFault)
        # Nothing was delivered, so nothing was billed anywhere.
        assert flaky.query_count == 0
        assert oracle.query_count == 0

    def test_recovers_when_fault_is_transient(self):
        flaky = FlakyOracle(XorOracle(), failures=2)
        policy, sleeps = no_sleep_policy(max_retries=3)
        oracle = RetryingOracle(flaky, policy)
        patterns = np.array([[1, 1, 1, 1], [1, 0, 1, 0]], dtype=np.uint8)
        assert oracle.query(patterns).tolist() == [[0, 1], [0, 0]]
        assert flaky.attempts == 3
        assert len(sleeps) == 2

    def test_backoff_grows_exponentially_with_jitter(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=100.0, jitter=0.5)
        rng = np.random.default_rng(0)
        delays = [policy.delay(attempt, rng) for attempt in range(5)]
        for attempt, delay in enumerate(delays):
            floor = 0.1 * 2 ** attempt
            assert floor <= delay <= floor * 1.5
        assert delays == sorted(delays)

    def test_max_delay_caps_backoff(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=2.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.delay(10, rng) == 2.0

    def test_budget_exhaustion_is_never_retried(self):
        inner = XorOracle(query_budget=4)
        policy, sleeps = no_sleep_policy(max_retries=5)
        oracle = RetryingOracle(inner, policy, cache=False)
        oracle.query(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(QueryBudgetExceeded):
            oracle.query(np.ones((1, 4), dtype=np.uint8))
        assert sleeps == []  # an exhausted budget stays exhausted

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1).validate()
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1).validate()


class TestQueryCache:
    def test_repeated_assignments_bill_once(self):
        inner = XorOracle()
        oracle = RetryingOracle(inner, RetryPolicy(max_retries=1))
        patterns = np.array([[0, 1, 0, 1], [1, 1, 1, 1]], dtype=np.uint8)
        first = oracle.query(patterns)
        billed = inner.query_count
        second = oracle.query(patterns)
        assert first.tolist() == second.tolist()
        assert inner.query_count == billed  # served from cache
        assert oracle.query_count == 4      # but still metered here
        assert oracle.cache_hits == 2

    def test_duplicate_rows_within_a_batch_bill_once(self):
        inner = XorOracle()
        oracle = RetryingOracle(inner, RetryPolicy())
        row = [1, 0, 1, 1]
        patterns = np.array([row, row, row], dtype=np.uint8)
        out = oracle.query(patterns)
        assert inner.query_count == 1
        assert out.tolist() == [out[0].tolist()] * 3

    def test_mixed_hit_miss_batches_are_correct(self):
        inner = XorOracle()
        cached = RetryingOracle(inner, RetryPolicy())
        rng = np.random.default_rng(7)
        reference = XorOracle()
        for _ in range(10):
            patterns = rng.integers(0, 2, size=(16, 4)).astype(np.uint8)
            assert cached.query(patterns).tolist() == \
                reference.query(patterns).tolist()
        assert inner.query_count < cached.query_count

    def test_cache_disabled_forwards_everything(self):
        inner = XorOracle()
        oracle = RetryingOracle(inner, RetryPolicy(), cache=False)
        patterns = np.zeros((3, 4), dtype=np.uint8)
        oracle.query(patterns)
        oracle.query(patterns)
        assert inner.query_count == 6

    def test_retried_batch_not_double_billed_after_recovery(self):
        """A batch that fails then succeeds is billed exactly once."""
        flaky = FlakyOracle(XorOracle(), failures=1)
        policy, _ = no_sleep_policy(max_retries=2)
        oracle = RetryingOracle(flaky, policy)
        patterns = np.array([[0, 0, 1, 1]], dtype=np.uint8)
        oracle.query(patterns)
        assert flaky.query_count == 1
        # Asking the same assignment again costs nothing at all.
        oracle.query(patterns)
        assert flaky.query_count == 1


def distinct_rows(n, width=30, seed=0):
    """``n`` pairwise distinct 0/1 rows of ``width`` bits."""
    rng = np.random.default_rng(seed)
    ints = rng.choice(1 << width, size=n, replace=False)
    return ((ints[:, None] >> np.arange(width)) & 1).astype(np.uint8)


def miss_batch_seconds(memo, n):
    """Best-of-3 wall seconds to ask ``n`` distinct rows that ``memo``
    (``"frozen"`` or ``"full"``) will not store."""
    rows = distinct_rows(n)
    best = float("inf")
    for _ in range(3):
        if memo == "frozen":
            oracle = RetryingOracle(XorOracle(30), RetryPolicy())
            oracle.freeze_cache()
        else:
            oracle = RetryingOracle(XorOracle(30), RetryPolicy(),
                                    max_cache_rows=0)
        start = time.perf_counter()
        oracle.query(rows)
        best = min(best, time.perf_counter() - start)
    return best


class TestUnstoredMisses:
    """Rows a frozen or full memo does not store are answered from the
    batch's own answers, by key, in constant time per row."""

    def test_frozen_memo_answers_exactly(self):
        inner = XorOracle(30)
        oracle = RetryingOracle(inner, RetryPolicy())
        rows = distinct_rows(300)
        oracle.query(rows[:10])
        oracle.freeze_cache()
        batch = np.concatenate([rows[5:], rows[40:60], rows[:10]])
        assert oracle.query(batch).tolist() == \
            XorOracle(30).query(batch).tolist()
        assert oracle.cache_entries == 10
        # Stored rows and in-batch duplicates are billed once each.
        assert inner.query_count == 300
        assert oracle.cache_hits == 5 + 20 + 10

    def test_memo_past_its_cap_answers_exactly(self):
        inner = XorOracle(30)
        oracle = RetryingOracle(inner, RetryPolicy(), max_cache_rows=100)
        rows = distinct_rows(400)
        first = np.concatenate([rows[:300], rows[250:300][::-1]])
        assert oracle.query(first).tolist() == \
            XorOracle(30).query(first).tolist()
        assert oracle.cache_entries == 100
        second = np.concatenate([rows[50:150], rows[300:], rows[350:]])
        assert oracle.query(second).tolist() == \
            XorOracle(30).query(second).tolist()
        assert oracle.cache_entries == 100
        assert inner.query_count == 300 + 50 + 100

    @pytest.mark.parametrize("memo", ["frozen", "full"])
    def test_unstored_misses_scale_linearly(self, memo):
        n = 2000
        small = miss_batch_seconds(memo, n)
        large = miss_batch_seconds(memo, 4 * n)
        # A per-row scan of the miss list makes this about 16x.
        assert large < 8 * small, (small, large)
