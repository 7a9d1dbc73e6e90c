"""The FBDT frontier engine in both exploration orders.

One engine grows the tree.  Levelized order fuses a whole BFS level's
oracle traffic into a few calls; depth-first order runs the same engine
on a one-node frontier.  These tests pin its contracts: exact learning
checked against the target function on every input pattern, per-seed
determinism, a bound on oracle round-trips, bank accounting, and
graceful death under node caps, deadlines and query budgets.
"""

import time

import numpy as np
import pytest

from repro.core.config import fast_config
from repro.core.fbdt import build_decision_tree
from repro.oracle.function_oracle import FunctionOracle
from repro.perf.bank import SampleBank


def oracle_from_fn(fn, num_pis, name="f", query_budget=None):
    def batched(p):
        return fn(p).astype(np.uint8).reshape(-1, 1)
    return FunctionOracle(batched, [f"x{i}" for i in range(num_pis)],
                          [name], query_budget=query_budget)


def all_patterns(num_pis):
    """Every input pattern of ``num_pis`` variables, one per row."""
    codes = np.arange(1 << num_pis)[:, None]
    return ((codes >> np.arange(num_pis)[None, :]) & 1).astype(np.uint8)


def learn(fn, num_pis, support, seed=7, query_budget=None, **overrides):
    cfg = fast_config(exhaustive_threshold=0, **overrides)
    oracle = oracle_from_fn(fn, num_pis, query_budget=query_budget)
    cover = build_decision_tree(oracle, 0, support, cfg,
                                np.random.default_rng(seed))
    return oracle, cover


def assert_complete_pair(num_pis, cover):
    """``onset | offset`` covers every pattern (no gap in the tree)."""
    pats = all_patterns(num_pis)
    assert bool(np.all(cover.onset.evaluate(pats)
                       | cover.offset.evaluate(pats)))


CASES = [
    ("and3", lambda p: p[:, 1] & p[:, 3] & p[:, 5], 8, [1, 3, 5]),
    ("mux", lambda p: np.where(p[:, 0], p[:, 1], p[:, 2]), 6, [0, 1, 2]),
    ("xor4", lambda p: p[:, :4].sum(axis=1) % 2, 6, [0, 1, 2, 3]),
    ("maj5", lambda p: (p[:, :5].sum(axis=1) >= 3).astype(np.uint8),
     7, [0, 1, 2, 3, 4]),
    ("andor", lambda p: (p[:, 0] & p[:, 2]) | (p[:, 4] & ~p[:, 1] & 1),
     6, [0, 1, 2, 4]),
]

# In-tree tabulation off: the default threshold tabulates every CASES
# function at the root, so no split would be exercised.
NO_TABULATION = dict(subtree_exhaustive_threshold=0)
DEPTH_FIRST = dict(NO_TABULATION, levelized=False)


class TestExactLearning:
    @pytest.mark.parametrize("overrides", [
        pytest.param(NO_TABULATION, id="bfs"),
        pytest.param(DEPTH_FIRST, id="dfs"),
        pytest.param({}, id="tab"),
    ])
    @pytest.mark.parametrize("name,fn,num_pis,support", CASES,
                             ids=[c[0] for c in CASES])
    def test_learns_target_on_all_patterns(self, name, fn, num_pis,
                                           support, overrides):
        _, cover = learn(fn, num_pis, support, **overrides)
        assert not cover.stats.timed_out
        pats = all_patterns(num_pis)
        assert np.array_equal(cover.evaluate(pats),
                              fn(pats).astype(np.uint8))


class TestBatchedDeterminism:
    def test_same_seed_same_cover(self):
        fn = lambda p: (p[:, :5].sum(axis=1) >= 3).astype(np.uint8)
        runs = []
        for _ in range(2):
            oracle, cover = learn(fn, 7, [0, 1, 2, 3, 4], seed=11)
            sop, comp = cover.chosen_cover()
            runs.append((sorted(map(hash, sop.cubes)), comp,
                         oracle.query_count))
        assert runs[0] == runs[1]

    def test_level_stats_reported(self):
        fn = lambda p: p[:, 0] & p[:, 1]
        _, cover = learn(fn, 4, [0, 1], seed=0)
        assert cover.stats.levels >= 1

    def test_batched_uses_fewer_oracle_round_trips(self):
        # Full support given, so no node widens it: each pass costs at
        # most one probe, one tabulation and one split-selection call.
        fn = lambda p: (p[:, :6].sum(axis=1) >= 3).astype(np.uint8)
        oracle, cover = learn(fn, 8, list(range(6)), **NO_TABULATION)
        st = cover.stats
        assert not st.timed_out
        assert oracle.query_calls <= 3 * st.levels
        assert oracle.query_calls < st.nodes_expanded


class TestDepthFirst:
    MAJ5 = staticmethod(
        lambda p: (p[:, :5].sum(axis=1) >= 3).astype(np.uint8))

    def test_same_seed_same_cover_and_query_count(self):
        runs = []
        for _ in range(2):
            oracle, cover = learn(self.MAJ5, 7, [0, 1, 2, 3, 4], seed=11,
                                  **DEPTH_FIRST)
            sop, comp = cover.chosen_cover()
            runs.append((sorted(map(hash, sop.cubes)), comp,
                         oracle.query_count))
        assert runs[0] == runs[1]

    def test_one_pass_per_node(self):
        oracle, cover = learn(self.MAJ5, 7, [0, 1, 2, 3, 4],
                              **DEPTH_FIRST)
        st = cover.stats
        assert not st.timed_out and not st.budget_exhausted
        assert st.nodes_expanded > 1
        assert st.levels == st.nodes_expanded
        assert oracle.query_calls <= 3 * st.levels

    def test_node_cap_flushes_pending_stack(self):
        fn = lambda p: (p[:, :8].sum(axis=1) % 2).astype(np.uint8)
        _, cover = learn(fn, 10, list(range(8)), seed=9,
                         max_tree_nodes=16, **DEPTH_FIRST)
        assert cover.stats.nodes_expanded == 16
        assert cover.stats.timed_out
        assert cover.stats.forced_leaves > 0
        assert_complete_pair(10, cover)

    def test_expired_deadline_yields_partial_cover(self):
        fn = lambda p: (p[:, :6].sum(axis=1) >= 3).astype(np.uint8)
        cfg = fast_config(exhaustive_threshold=0, **DEPTH_FIRST)
        oracle = oracle_from_fn(fn, 8)
        cover = build_decision_tree(oracle, 0, list(range(6)), cfg,
                                    np.random.default_rng(2),
                                    deadline=time.monotonic() - 1.0)
        assert cover.stats.timed_out
        assert_complete_pair(8, cover)

    def test_budget_death_mid_tree_yields_partial_cover(self):
        _, full = learn(self.MAJ5, 7, [0, 1, 2, 3, 4], **DEPTH_FIRST)
        oracle, cover = learn(self.MAJ5, 7, [0, 1, 2, 3, 4],
                              query_budget=600, **DEPTH_FIRST)
        st = cover.stats
        assert st.budget_exhausted and st.timed_out
        assert 1 < st.nodes_expanded < full.stats.nodes_expanded
        assert oracle.query_count <= 600
        assert_complete_pair(7, cover)


class TestBatchedBankAccounting:
    def test_hits_plus_misses_equals_rows_requested(self):
        fn = lambda p: (p[:, :5].sum(axis=1) >= 3).astype(np.uint8)
        cfg = fast_config(exhaustive_threshold=0)
        oracle = oracle_from_fn(fn, 7)
        bank = SampleBank(7, 1, max_rows=4096)
        cover = build_decision_tree(oracle, 0, [0, 1, 2, 3, 4], cfg,
                                    np.random.default_rng(5), bank=bank)
        st = cover.stats
        assert not st.budget_exhausted and not st.timed_out
        assert st.bank_hits + st.bank_misses \
            == st.nodes_expanded * cfg.leaf_samples
        # The bank recorded the fresh leaf rows, so a second tree over
        # the same subspaces actually drains it.
        assert st.bank_misses > 0

    def test_warm_bank_produces_hits(self):
        fn = lambda p: (p[:, :4].sum(axis=1) % 2).astype(np.uint8)
        cfg = fast_config(exhaustive_threshold=0)
        bank = SampleBank(6, 1, max_rows=8192)
        for seed in (1, 2):
            oracle = oracle_from_fn(fn, 6)
            cover = build_decision_tree(oracle, 0, [0, 1, 2, 3], cfg,
                                        np.random.default_rng(seed),
                                        bank=bank)
        st = cover.stats
        assert st.bank_hits > 0
        assert st.bank_hits + st.bank_misses \
            == st.nodes_expanded * cfg.leaf_samples


class TestBatchedDegradation:
    def test_node_cap_respected(self):
        fn = lambda p: (p[:, :8].sum(axis=1) % 2).astype(np.uint8)
        cfg = fast_config(exhaustive_threshold=0,
                          subtree_exhaustive_threshold=0,
                          max_tree_nodes=16)
        oracle = oracle_from_fn(fn, 10)
        cover = build_decision_tree(oracle, 0, list(range(8)), cfg,
                                    np.random.default_rng(9))
        assert cover.stats.nodes_expanded <= 16
        assert cover.stats.timed_out
        # Flushed majority leaves still yield a complete cover pair.
        pats = np.random.default_rng(1).integers(
            0, 2, (512, 10)).astype(np.uint8)
        on = cover.onset.evaluate(pats)
        off = cover.offset.evaluate(pats)
        assert bool(np.all(on | off))

    def test_expired_deadline_flushes_majority_leaves(self):
        fn = lambda p: (p[:, :6].sum(axis=1) >= 3).astype(np.uint8)
        cfg = fast_config(exhaustive_threshold=0)
        oracle = oracle_from_fn(fn, 8)
        cover = build_decision_tree(oracle, 0, list(range(6)), cfg,
                                    np.random.default_rng(2),
                                    deadline=time.monotonic() - 1.0)
        assert cover.stats.timed_out
        pats = np.random.default_rng(4).integers(
            0, 2, (512, 8)).astype(np.uint8)
        on = cover.onset.evaluate(pats)
        off = cover.offset.evaluate(pats)
        assert bool(np.all(on | off))
