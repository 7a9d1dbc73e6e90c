"""Tests for the cross-output sample bank."""

import numpy as np
import pytest

from repro.logic.cube import Cube
from repro.network.netlist import Netlist
from repro.oracle.netlist_oracle import NetlistOracle
from repro.perf.bank import BankedOracle, SampleBank, banked_probe


def xor_oracle():
    net = Netlist("x")
    a, b, c = (net.add_pi(x) for x in "abc")
    net.add_po("f0", net.add_xor(a, b))
    net.add_po("f1", net.add_and(b, c))
    return NetlistOracle(net)


def all_patterns(v):
    n = 1 << v
    return ((np.arange(n)[:, None] >> np.arange(v)[None, :]) & 1
            ).astype(np.uint8)


class TestSampleBank:
    def test_record_and_lookup(self):
        bank = SampleBank(3, 2, max_rows=8)
        pats = all_patterns(3)[:4]
        outs = np.arange(8, dtype=np.uint8).reshape(4, 2) & 1
        bank.record(pats, outs)
        assert len(bank) == 4
        mask, got = bank.lookup(pats)
        assert mask.all()
        assert (got == outs).all()
        miss_mask, _ = bank.lookup(all_patterns(3)[4:])
        assert not miss_mask.any()

    def test_duplicates_skipped(self):
        bank = SampleBank(3, 1, max_rows=8)
        pats = np.zeros((5, 3), dtype=np.uint8)
        outs = np.ones((5, 1), dtype=np.uint8)
        bank.record(pats, outs)
        assert len(bank) == 1
        assert bank.stats.rows_recorded == 1

    def test_fifo_eviction(self):
        bank = SampleBank(3, 1, max_rows=4)
        pats = all_patterns(3)
        outs = pats[:, :1]
        bank.record(pats[:4], outs[:4])
        bank.record(pats[4:], outs[4:])
        assert len(bank) == 4
        assert bank.stats.rows_evicted == 4
        # Only the newest four rows survive.
        mask, _ = bank.lookup(pats)
        assert mask.tolist() == [False] * 4 + [True] * 4

    def test_oversized_batch_keeps_tail(self):
        bank = SampleBank(3, 1, max_rows=2)
        pats = all_patterns(3)
        bank.record(pats, pats[:, :1])
        mask, _ = bank.lookup(pats)
        assert mask.tolist() == [False] * 6 + [True, True]

    def test_take_filters_by_cube(self):
        bank = SampleBank(3, 1, max_rows=16)
        pats = all_patterns(3)
        bank.record(pats, pats[:, :1])
        got_pats, got_outs = bank.take(Cube({0: 1}), limit=10)
        assert (got_pats[:, 0] == 1).all()
        assert got_pats.shape[0] == 4
        assert (got_outs[:, 0] == got_pats[:, 0]).all()
        assert bank.stats.hits == 4
        assert bank.stats.take_calls == 1

    def test_take_respects_limit(self):
        bank = SampleBank(3, 1, max_rows=16)
        pats = all_patterns(3)
        bank.record(pats, pats[:, :1])
        got_pats, _ = bank.take(Cube.empty(), limit=3)
        assert got_pats.shape[0] == 3

    def test_freeze_blocks_writes(self):
        bank = SampleBank(3, 1, max_rows=8)
        bank.freeze()
        bank.record(all_patterns(3), all_patterns(3)[:, :1])
        assert len(bank) == 0

    def test_fork_is_private_and_writable(self):
        bank = SampleBank(3, 1, max_rows=8)
        pats = all_patterns(3)[:2]
        bank.record(pats, pats[:, :1])
        bank.freeze()
        child = bank.fork()
        assert not child.frozen
        assert len(child) == 2
        child.record(all_patterns(3)[2:4], all_patterns(3)[2:4, :1])
        assert len(child) == 4
        assert len(bank) == 2  # parent untouched
        assert child.stats.hits == 0  # fresh counters


def record_row_at_a_time(bank, patterns, outputs):
    """Reference for :meth:`SampleBank.record`: one row, one slot and one
    set of array writes at a time."""
    n = patterns.shape[0]
    if n > bank.max_rows:
        patterns = patterns[n - bank.max_rows:]
        outputs = outputs[n - bank.max_rows:]
        n = bank.max_rows
    for row in range(n):
        key = patterns[row].tobytes()
        if key in bank._index:
            continue
        slot = bank._write
        old = bank._keys[slot]
        if old is not None:
            del bank._index[old]
            bank.stats.rows_evicted += 1
        else:
            bank._size += 1
        bank._pat[slot] = patterns[row]
        word, bit = slot >> 6, np.uint64(1 << (slot & 63))
        bank._pat_words[:, word] &= ~bit
        bank._pat_words[patterns[row] != 0, word] |= bit
        bank._out[slot] = outputs[row]
        bank._keys[slot] = key
        bank._index[key] = slot
        bank._valid[slot] = True
        bank._write = (slot + 1) % bank.max_rows
        bank.stats.rows_recorded += 1


def assert_same_bank(got, want):
    assert np.array_equal(got._pat, want._pat)
    assert np.array_equal(got._pat_words, want._pat_words)
    assert np.array_equal(got._out, want._out)
    assert np.array_equal(got._valid, want._valid)
    assert got._keys == want._keys
    assert got._index == want._index
    assert (got._size, got._write) == (want._size, want._write)
    assert got.stats == want.stats


class TestBatchedRecord:
    """``record`` writes whole runs of slots; it must leave the bank
    exactly as recording one row at a time does."""

    @pytest.mark.parametrize("max_rows", [1, 5, 64, 100, 200])
    def test_matches_row_at_a_time(self, max_rows):
        rng = np.random.default_rng(max_rows)
        num_pis, num_pos = 70, 3
        pool = rng.integers(0, 2, size=(150, num_pis), dtype=np.uint8)
        got = SampleBank(num_pis, num_pos, max_rows=max_rows)
        want = SampleBank(num_pis, num_pos, max_rows=max_rows)
        # Batch sizes cross ring wrap-around and exceed max_rows; rows
        # come from a small pool, so batches repeat rows within and
        # across batches.
        for size in (3, 40, 1, 0, 90, 260, 7, 130):
            picks = rng.integers(0, pool.shape[0], size=size)
            pats = pool[picks]
            outs = rng.integers(0, 2, size=(size, num_pos), dtype=np.uint8)
            got.record(pats, outs)
            record_row_at_a_time(want, pats, outs)
            assert_same_bank(got, want)
            if size == 40:
                # Tombstones in the middle of the ring are refilled by
                # later batches.
                dead = pool[rng.integers(0, pool.shape[0], size=20)]
                assert got.invalidate(dead) == want.invalidate(dead)
                assert_same_bank(got, want)
        dead = pool[:60]
        assert got.invalidate(dead) == want.invalidate(dead)
        assert_same_bank(got, want)
        cube = Cube({0: 1, 69: 0})
        for a, b in zip(got.take(cube, 50), want.take(cube, 50)):
            assert np.array_equal(a, b)

    def test_long_run_is_written_in_chunks(self):
        max_rows = 3 * SampleBank._RUN_CHUNK + 17
        ids = np.arange(max_rows + 500)
        pats = ((ids[:, None] >> np.arange(20)) & 1).astype(np.uint8)
        outs = pats[:, :2].copy()
        got = SampleBank(20, 2, max_rows=max_rows)
        want = SampleBank(20, 2, max_rows=max_rows)
        for rows in (slice(0, 1000), slice(500, None)):
            got.record(pats[rows], outs[rows])
            record_row_at_a_time(want, pats[rows], outs[rows])
            assert_same_bank(got, want)


class TestBankedOracle:
    def test_hits_never_bill_inner(self):
        inner = xor_oracle()
        bank = SampleBank(3, 2, max_rows=16)
        banked = BankedOracle(inner, bank)
        pats = all_patterns(3)
        first = banked.query(pats)
        billed = inner.query_count
        second = banked.query(pats)
        assert (first == second).all()
        assert inner.query_count == billed  # all 8 rows from the bank
        assert bank.stats.hits == 8
        assert bank.stats.misses == 8

    def test_partial_hit_mixes_sources(self):
        inner = xor_oracle()
        bank = SampleBank(3, 2, max_rows=16)
        banked = BankedOracle(inner, bank)
        pats = all_patterns(3)
        banked.query(pats[:4])
        out = banked.query(pats)
        assert inner.query_count == 8  # 4 warm-up + 4 misses
        assert (out == inner.query(pats)).all()

    def test_large_batches_skip_lookup(self):
        inner = xor_oracle()
        bank = SampleBank(3, 2, max_rows=16)
        banked = BankedOracle(inner, bank, lookup_limit=4)
        pats = all_patterns(3)
        banked.query(pats)
        banked.query(pats)
        assert inner.query_count == 16  # forwarded both times
        assert bank.stats.hits == 0

    def test_results_match_unbanked(self, rng):
        inner = xor_oracle()
        bank = SampleBank(3, 2, max_rows=4)  # force evictions
        banked = BankedOracle(inner, bank)
        ref = xor_oracle()
        for _ in range(10):
            pats = rng.integers(0, 2, (6, 3)).astype(np.uint8)
            assert (banked.query(pats) == ref.query(pats)).all()


class TestBankedProbe:
    def test_drains_bank_before_querying(self, rng):
        inner = xor_oracle()
        bank = SampleBank(3, 2, max_rows=16)
        pats = all_patterns(3)
        bank.record(pats, inner.query(pats))
        inner.reset_query_count()
        out = banked_probe(inner, Cube.empty(), 8, rng, (0.5,), bank,
                           fresh_fraction=0.25)
        assert out.shape == (8, 2)
        # 6 rows drained from the bank, only ceil(8 * 0.25) = 2 fresh.
        assert inner.query_count == 2

    def test_without_bank_queries_everything(self, rng):
        inner = xor_oracle()
        out = banked_probe(inner, Cube({0: 1}), 16, rng, (0.5,), None)
        assert out.shape == (16, 2)
        assert inner.query_count == 16
