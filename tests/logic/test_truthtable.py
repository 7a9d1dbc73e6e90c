"""Unit tests for packed truth tables."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.cube import Cube
from repro.logic.sop import Sop
from repro.logic.truthtable import IsopOverflow, TruthTable


def tables(num_vars):
    return st.integers(0, (1 << (1 << num_vars)) - 1).map(
        lambda bits: TruthTable.from_minterms(
            [m for m in range(1 << num_vars) if (bits >> m) & 1], num_vars))


class TestConstruction:
    def test_constants(self):
        assert TruthTable.zeros(4).is_zero()
        assert TruthTable.ones(4).is_one()
        assert TruthTable.zeros(4).count_ones() == 0
        assert TruthTable.ones(4).count_ones() == 16

    def test_variable_projection(self):
        for v in range(8):
            tt = TruthTable.variable(v, 8)
            assert tt.count_ones() == 128
            assert tt.get(1 << v) == 1
            assert tt.get(0) == 0

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.variable(3, 3)

    def test_from_minterms_round_trip(self):
        tt = TruthTable.from_minterms([1, 4, 9], 4)
        assert tt.minterms() == [1, 4, 9]

    def test_minterm_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.from_minterms([16], 4)

    def test_from_function(self):
        tt = TruthTable.from_function(lambda b: b[0] and not b[1], 2)
        assert tt.minterms() == [1]

    def test_from_values(self):
        tt = TruthTable.from_values([0, 1, 1, 0])
        assert tt.minterms() == [1, 2]

    def test_from_values_bad_length(self):
        with pytest.raises(ValueError):
            TruthTable.from_values([0, 1, 1])

    def test_sub_word_padding_masked(self):
        tt = TruthTable(2, np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
        assert tt.count_ones() == 4  # only the 4 real bits survive

    def test_wide_tables(self):
        tt = TruthTable.variable(9, 10)
        assert tt.count_ones() == 512
        assert tt.support() == [9]


class TestOperations:
    def test_boolean_ops_agree_with_python(self):
        a = TruthTable.from_function(lambda b: b[0] ^ b[1], 3)
        b = TruthTable.from_function(lambda b: b[1] and b[2], 3)
        for m in range(8):
            bits = [(m >> v) & 1 for v in range(3)]
            assert (a & b).get(m) == ((bits[0] ^ bits[1])
                                      and (bits[1] and bits[2]))
            assert (a | b).get(m) == ((bits[0] ^ bits[1])
                                      or (bits[1] and bits[2]))
            assert (a ^ b).get(m) == ((bits[0] ^ bits[1])
                                      != (bits[1] and bits[2]))
            assert (~a).get(m) == (1 - (bits[0] ^ bits[1]))

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruthTable.zeros(3) & TruthTable.zeros(4)

    def test_cofactor_small_variable(self):
        tt = TruthTable.from_function(lambda b: b[0] and b[2], 3)
        assert (tt.cofactor(0, 1)
                == TruthTable.from_function(lambda b: b[2], 3))
        assert tt.cofactor(0, 0).is_zero()

    def test_cofactor_wide_variable(self):
        tt = TruthTable.from_function(lambda b: b[7] ^ b[0], 8)
        pos = tt.cofactor(7, 1)
        assert pos == TruthTable.from_function(lambda b: not b[0], 8)

    def test_support_and_depends(self):
        tt = TruthTable.from_function(lambda b: b[1] or b[3], 5)
        assert tt.support() == [1, 3]
        assert tt.depends_on(1) and not tt.depends_on(0)

    def test_evaluate_one(self):
        tt = TruthTable.from_function(lambda b: b[0] and b[1], 2)
        assert tt.evaluate_one([1, 1]) == 1
        assert tt.evaluate_one([1, 0]) == 0

    def test_compose_permutation(self):
        tt = TruthTable.from_function(lambda b: b[0] and not b[1], 2)
        lifted = tt.compose_permutation([4, 2], 5)
        expect = TruthTable.from_function(lambda b: b[4] and not b[2], 5)
        assert lifted == expect

    def test_compose_permutation_missing_image(self):
        tt = TruthTable.variable(0, 2)
        with pytest.raises(ValueError):
            tt.compose_permutation([-1, 0], 3)


class TestIsop:
    def test_isop_constant(self):
        assert TruthTable.zeros(3).isop().is_zero()
        assert TruthTable.ones(3).isop().is_one()

    def test_isop_overflow(self):
        tt = TruthTable.random(8, np.random.default_rng(5))
        with pytest.raises(IsopOverflow):
            tt.isop(max_cubes=2)

    @given(tt=tables(4))
    @settings(max_examples=150, deadline=None)
    def test_isop_exact(self, tt):
        assert TruthTable.from_sop(tt.isop()) == tt

    @given(tt=tables(4))
    @settings(max_examples=100, deadline=None)
    def test_isop_cubes_are_implicants(self, tt):
        for cube in tt.isop().cubes:
            term = TruthTable.from_sop(Sop([cube], 4))
            assert (term & ~tt).is_zero()


@given(tt=tables(4), var=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_shannon_identity(tt, var):
    x = TruthTable.variable(var, 4)
    rebuilt = (x & tt.cofactor(var, 1)) | (~x & tt.cofactor(var, 0))
    assert rebuilt == tt


@given(tt=tables(4))
@settings(max_examples=100, deadline=None)
def test_double_complement(tt):
    assert ~~tt == tt


@given(tt=tables(4))
@settings(max_examples=100, deadline=None)
def test_count_ones_matches_minterms(tt):
    assert tt.count_ones() == len(tt.minterms())


def test_random_is_seeded():
    a = TruthTable.random(7, np.random.default_rng(1))
    b = TruthTable.random(7, np.random.default_rng(1))
    assert a == b


# -- pinned ISOP output ----------------------------------------------------
#
# ``refactor`` (``max_cubes=96``) and ``collapse`` (``512``) decide whether a
# cone is resynthesized from whether ``isop`` overflows, and the learned
# circuits are built from the cubes in the order ``isop`` emits them.  These
# pins fix both: a sha256 over each cover's ordered ``literals()`` tuples and
# the smallest ``max_cubes`` that does not raise :class:`IsopOverflow`.

def _pin_tables():
    """Seeded tables for n = 0..14: dense, sparse and few-variable ones."""
    rng = np.random.default_rng(0x150F)
    out = []
    for n in range(15):
        dense = TruthTable.random(n, rng)
        sparse = (TruthTable.random(n, rng) & TruthTable.random(n, rng)
                  & TruthTable.random(n, rng))
        k = min(n, 3)
        chosen = sorted(rng.choice(n, size=k, replace=False).tolist())
        few = TruthTable.random(k, rng).compose_permutation(chosen, n)
        for kind, tt in (("dense", dense), ("sparse", sparse), ("few", few)):
            out.append((n, kind, tt))
    return out


def _cover_digest(cover: Sop) -> str:
    text = repr([tuple(cube.literals()) for cube in cover.cubes])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


ISOP_PINS = {
    (0, 'dense', 'on'): ('4f53cda18c2baa0c', 0),
    (0, 'dense', 'off'): ('b18a48f02566e615', 1),
    (0, 'sparse', 'on'): ('4f53cda18c2baa0c', 0),
    (0, 'sparse', 'off'): ('b18a48f02566e615', 1),
    (0, 'few', 'on'): ('b18a48f02566e615', 1),
    (0, 'few', 'off'): ('4f53cda18c2baa0c', 0),
    (1, 'dense', 'on'): ('4f53cda18c2baa0c', 0),
    (1, 'dense', 'off'): ('b18a48f02566e615', 1),
    (1, 'sparse', 'on'): ('4f53cda18c2baa0c', 0),
    (1, 'sparse', 'off'): ('b18a48f02566e615', 1),
    (1, 'few', 'on'): ('4f53cda18c2baa0c', 0),
    (1, 'few', 'off'): ('b18a48f02566e615', 1),
    (2, 'dense', 'on'): ('37bbf5c2ac9ca651', 3),
    (2, 'dense', 'off'): ('a0e2b43250f6c5e0', 5),
    (2, 'sparse', 'on'): ('4f53cda18c2baa0c', 0),
    (2, 'sparse', 'off'): ('b18a48f02566e615', 1),
    (2, 'few', 'on'): ('7e754462f8f3783a', 2),
    (2, 'few', 'off'): ('d37615a71002d627', 2),
    (3, 'dense', 'on'): ('0e918d1f36771c82', 6),
    (3, 'dense', 'off'): ('49c96b6322bf89cd', 6),
    (3, 'sparse', 'on'): ('4f53cda18c2baa0c', 0),
    (3, 'sparse', 'off'): ('b18a48f02566e615', 1),
    (3, 'few', 'on'): ('320f119e049d8145', 9),
    (3, 'few', 'off'): ('76f2890d2ea1827b', 9),
    (4, 'dense', 'on'): ('ac31dee445a69f31', 19),
    (4, 'dense', 'off'): ('3fa3d633a2d39609', 18),
    (4, 'sparse', 'on'): ('d4e0915609eb3cd0', 8),
    (4, 'sparse', 'off'): ('849d8ac1975dd32a', 10),
    (4, 'few', 'on'): ('200502f57124cbb2', 7),
    (4, 'few', 'off'): ('6492838b6f4d0304', 7),
    (5, 'dense', 'on'): ('41115e8c0f2f5e6e', 33),
    (5, 'dense', 'off'): ('9e5f415eaba9deca', 33),
    (5, 'sparse', 'on'): ('6892dd82541ccbcb', 13),
    (5, 'sparse', 'off'): ('e1dce240d1f6b4ae', 29),
    (5, 'few', 'on'): ('6f0d7855f189e588', 7),
    (5, 'few', 'off'): ('4115e7bda3586d5d', 9),
    (6, 'dense', 'on'): ('342a21cfe2bf2ab4', 71),
    (6, 'dense', 'off'): ('90dc49ddf994762d', 74),
    (6, 'sparse', 'on'): ('a5c23cd6d9127842', 22),
    (6, 'sparse', 'off'): ('b4bf894e8687a45c', 40),
    (6, 'few', 'on'): ('e66576e06be9d2ef', 10),
    (6, 'few', 'off'): ('3c060dea35392486', 10),
    (7, 'dense', 'on'): ('fe31c78acfc60b8b', 145),
    (7, 'dense', 'off'): ('745e9a30baffcca3', 141),
    (7, 'sparse', 'on'): ('88592bff14d00447', 102),
    (7, 'sparse', 'off'): ('2988465c9eaf4941', 136),
    (7, 'few', 'on'): ('dc20f15aed779dbc', 9),
    (7, 'few', 'off'): ('e16704ee9bb242c0', 7),
    (8, 'dense', 'on'): ('7ba8c1b32dcbd82c', 294),
    (8, 'dense', 'off'): ('b77577cf2a3d3c7a', 298),
    (8, 'sparse', 'on'): ('c963cac369193319', 170),
    (8, 'sparse', 'off'): ('b7d9839de4f88fca', 292),
    (8, 'few', 'on'): ('c8af1f179d6c2f89', 6),
    (8, 'few', 'off'): ('619e546e529df1f4', 8),
    (9, 'dense', 'on'): ('d8ad1c7e2b682c04', 626),
    (9, 'dense', 'off'): ('344e3cee49e2d504', 660),
    (9, 'sparse', 'on'): ('63e0d2e3bf438105', 325),
    (9, 'sparse', 'off'): ('a658a96b469052bc', 543),
    (9, 'few', 'on'): ('989f25f09785a323', 6),
    (9, 'few', 'off'): ('721c9754d9f244e6', 7),
    (10, 'dense', 'on'): ('7061900ea9c1b61d', 1386),
    (10, 'dense', 'off'): ('1bfaf0002eb2e079', 1441),
    (10, 'sparse', 'on'): ('5bc91983c7312184', 677),
    (10, 'sparse', 'off'): ('7234c2a76c440994', 1069),
    (10, 'few', 'on'): ('7abc59698e918b61', 9),
    (10, 'few', 'off'): ('81e90550676d4ff6', 4),
    (11, 'dense', 'on'): ('6f1ff8e502651750', 3022),
    (11, 'dense', 'off'): ('10c0531de1b29cf3', 3118),
    (11, 'sparse', 'on'): ('93e64098b0f2f35e', 1302),
    (11, 'sparse', 'off'): ('cbc1bbeee0da96a3', 2180),
    (11, 'few', 'on'): ('bf5b8f83ae3df48e', 11),
    (11, 'few', 'off'): ('95a9461ad8c5ffbd', 7),
    (12, 'dense', 'on'): ('0df7fba90e6f056c', 6468),
    (12, 'dense', 'off'): ('c1ee12ea8c040c12', 6288),
    (12, 'sparse', 'on'): ('2312847e42c0138c', 2959),
    (12, 'sparse', 'off'): ('974aec31644416c4', 4781),
    (12, 'few', 'on'): ('b6f90e8f845e208e', 5),
    (12, 'few', 'off'): ('f5b3f4f64d483097', 3),
    (13, 'dense', 'on'): ('cbea104a5e0795d3', 13618),
    (13, 'dense', 'off'): ('56bd5fccc84c8ec1', 13566),
    (13, 'sparse', 'on'): ('ef56062838e75741', 6060),
    (13, 'sparse', 'off'): ('58d36f395a1928ff', 9249),
    (13, 'few', 'on'): ('640fd1e08c617165', 6),
    (13, 'few', 'off'): ('6c8d6796d766bcc6', 9),
    (14, 'dense', 'on'): ('7f412f7834051756', 28682),
    (14, 'dense', 'off'): ('934062af72911055', 28794),
    (14, 'sparse', 'on'): ('3a6724fd93c25e04', 13175),
    (14, 'sparse', 'off'): ('695808a5727ca5df', 20132),
    (14, 'few', 'on'): ('0f2a9f2edba5b1c7', 6),
    (14, 'few', 'off'): ('3ff6ed8d55559727', 6),
}


@pytest.mark.parametrize("n,kind,tt", _pin_tables(),
                         ids=lambda v: str(v) if not isinstance(
                             v, TruthTable) else "tt")
def test_isop_pinned(n, kind, tt):
    for phase, table in (("on", tt), ("off", ~tt)):
        digest, budget = ISOP_PINS[(n, kind, phase)]
        cover = table.isop()
        assert _cover_digest(cover) == digest
        assert TruthTable.from_sop(cover) == table
        assert _cover_digest(table.isop(max_cubes=budget)) == digest
        if budget > 0:
            with pytest.raises(IsopOverflow):
                table.isop(max_cubes=budget - 1)
