"""Tests for name based grouping (Sec. IV-A, Fig. 2)."""

import numpy as np
import pytest

from repro.core.grouping import (BusGroup, group_names, parse_indexed_name)


class TestParse:
    @pytest.mark.parametrize("name,stem,index", [
        ("a[3]", "a", 3),
        ("data(12)", "data", 12),
        ("bus_7", "bus", 7),
        ("q15", "q", 15),
        ("net_a[0]", "net_a", 0),
    ])
    def test_indexed_forms(self, name, stem, index):
        assert parse_indexed_name(name) == (stem, index)

    @pytest.mark.parametrize("name", ["clk", "enable", "123", "a[b]"])
    def test_non_indexed(self, name):
        assert parse_indexed_name(name) is None


class TestFig2Example:
    def test_fig2_example(self):
        """Fig. 2: a_2, a_1, a_0 group into N_a; (1,1,0) encodes 6."""
        names = ["a_2", "a_1", "a_0", "clk"]
        grouping = group_names(names)
        assert len(grouping.buses) == 1
        bus = grouping.buses[0]
        assert bus.stem == "a"
        assert bus.width == 3
        # positions[k] is the list index of bit k: a_0 is names[2], etc.
        assert bus.positions == (2, 1, 0)
        # (a2, a1, a0) = (1, 1, 0) -> N_a = 6.
        values = [1, 1, 0, 0]  # indexed by position in `names`
        assert bus.decode(values) == 6
        assert grouping.scalars == [3]


class TestGrouping:
    def test_min_width_threshold(self):
        grouping = group_names(["x[0]", "x[1]", "lone[0]"], min_width=2)
        assert len(grouping.buses) == 1
        assert grouping.buses[0].stem == "x"
        assert 2 in grouping.scalars

    def test_sparse_indices_rejected(self):
        # Missing index 1 -> binary encoding untrustworthy -> scalars.
        grouping = group_names(["v[0]", "v[2]", "v[3]"])
        assert grouping.buses == []
        assert grouping.scalars == [0, 1, 2]

    def test_duplicate_index_poisons_stem(self):
        grouping = group_names(["d1", "d_1", "d0"])
        assert grouping.buses == []

    def test_multiple_buses(self):
        names = [f"a[{i}]" for i in range(4)] + [f"b[{i}]" for i in range(3)]
        grouping = group_names(names)
        stems = sorted(b.stem for b in grouping.buses)
        assert stems == ["a", "b"]
        assert grouping.scalars == []

    def test_positions_in_buses(self):
        grouping = group_names(["p[0]", "q", "p[1]"])
        assert sorted(grouping.positions_in_buses()) == [0, 2]

    def test_bus_by_stem(self):
        grouping = group_names(["m[0]", "m[1]"])
        assert grouping.bus_by_stem("m") is not None
        assert grouping.bus_by_stem("z") is None


class TestBusGroup:
    def test_encode_decode_round_trip(self):
        bus = BusGroup("v", (4, 2, 0))
        for value in range(8):
            enc = bus.encode(value)
            vals = [0] * 5
            for pos, bit in enc.items():
                vals[pos] = bit
            assert bus.decode(vals) == value

    def test_encode_out_of_range(self):
        bus = BusGroup("v", (0, 1))
        with pytest.raises(ValueError):
            bus.encode(4)

    @pytest.mark.parametrize("positions", [tuple(range(8)),
                                           (9, 3, 7, 0, 12, 5, 1, 10)])
    def test_encode_batch_matches_encode(self, positions):
        for bus in (BusGroup("v", positions),
                    BusGroup("v", positions).reversed_()):
            values = list(range(1 << bus.width))
            block = np.zeros((len(values), 13), dtype=np.uint8)
            block[:, list(bus.positions)] = bus.encode_batch(values)
            for value, row in zip(values, block):
                expect = np.zeros(13, dtype=np.uint8)
                for pos, bit in bus.encode(value).items():
                    expect[pos] = bit
                assert row.tolist() == expect.tolist()
            assert bus.decode_batch(block).tolist() == values

    def test_encode_batch_wide_bus(self):
        bus = BusGroup("w", tuple(range(80)))
        values = [0, 1, (1 << 80) - 1, 1 << 70, (1 << 64) + 5]
        bits = bus.encode_batch(values)
        assert bits.shape == (5, 80) and bits.dtype == np.uint8
        for value, row in zip(values, bits):
            assert row.tolist() == [bit for _, bit in
                                    sorted(bus.encode(value).items())]

    def test_encode_batch_out_of_range(self):
        bus = BusGroup("v", (0, 1))
        with pytest.raises(ValueError):
            bus.encode_batch([1, 4])
        with pytest.raises(ValueError):
            bus.encode_batch([-1])
        assert bus.encode_batch([]).shape == (0, 2)

    def test_decode_batch(self):
        bus = BusGroup("v", (1, 0))  # bit0 at column 1, bit1 at column 0
        pats = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        assert bus.decode_batch(pats).tolist() == [1, 2, 3]
