"""Unit tests for SOP covers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.cube import Cube
from repro.logic.minimize import espresso_lite
from repro.logic.sop import Sop
from repro.logic.truthtable import TruthTable


def sops(num_vars=5, max_cubes=6):
    cube = st.dictionaries(st.integers(0, num_vars - 1),
                           st.integers(0, 1), max_size=num_vars) \
        .map(lambda d: Cube(d))
    return st.lists(cube, max_size=max_cubes) \
        .map(lambda cs: Sop(cs, num_vars))


def all_patterns(num_vars):
    return np.array([[(m >> v) & 1 for v in range(num_vars)]
                     for m in range(1 << num_vars)], dtype=np.uint8)


class TestConstruction:
    def test_zero_and_one(self):
        assert Sop.zero(4).is_zero()
        assert Sop.one(4).is_one()
        assert not Sop.zero(4).is_one()

    def test_from_minterms(self):
        s = Sop.from_minterms([0, 5], 3)
        pats = all_patterns(3)
        assert s.evaluate(pats).tolist() == [
            True, False, False, False, False, True, False, False]

    def test_from_strings(self):
        s = Sop.from_strings(["1-0", "01-"])
        assert len(s) == 2
        assert s.num_vars == 3

    def test_out_of_universe_cube_rejected(self):
        with pytest.raises(ValueError):
            Sop([Cube({5: 1})], 3)

    def test_empty_from_strings_rejected(self):
        with pytest.raises(ValueError):
            Sop.from_strings([])


class TestEvaluation:
    def test_evaluate_one(self):
        s = Sop.from_strings(["11-"])
        assert s.evaluate_one([1, 1, 0]) == 1
        assert s.evaluate_one([1, 0, 0]) == 0

    def test_support(self):
        s = Sop.from_strings(["1--", "--0"])
        assert s.support() == {0, 2}

    def test_literal_count(self):
        s = Sop.from_strings(["11-", "--0"])
        assert s.literal_count() == 3


class TestAlgebra:
    def test_cofactor(self):
        s = Sop.from_strings(["11-", "0-1"])
        c1 = s.cofactor(0, 1)
        pats = all_patterns(3)
        expect = s.evaluate(np.where(
            np.arange(3)[None, :] == 0, 1, pats).astype(np.uint8))
        assert (c1.evaluate(pats) == expect).all()

    def test_conjoin_disjoin(self):
        a = Sop.from_strings(["1--"])
        b = Sop.from_strings(["-1-"])
        pats = all_patterns(3)
        both = a.conjoin(b)
        either = a.disjoin(b)
        assert (both.evaluate(pats)
                == (a.evaluate(pats) & b.evaluate(pats))).all()
        assert (either.evaluate(pats)
                == (a.evaluate(pats) | b.evaluate(pats))).all()

    def test_mixed_universe_rejected(self):
        with pytest.raises(ValueError):
            Sop.zero(3).disjoin(Sop.zero(4))

    def test_covers_cube_exact(self):
        s = Sop.from_strings(["1--", "0-1"])
        assert s.covers_cube(Cube({0: 1, 1: 0}))
        assert not s.covers_cube(Cube({0: 0}))

    def test_tautology_split_phases(self):
        s = Sop.from_strings(["1--", "0--"])
        assert s.is_one()

    def test_absorb_drops_contained(self):
        s = Sop.from_strings(["1--", "11-", "1-0"])
        assert len(s.absorb()) == 1

    def test_merge_siblings_collapses_pairs(self):
        s = Sop.from_strings(["110", "111", "101", "100"])
        merged = s.merge_siblings()
        pats = all_patterns(3)
        assert (merged.evaluate(pats) == s.evaluate(pats)).all()
        assert len(merged) == 1  # all four collapse to x0


@given(s=sops())
@settings(max_examples=120, deadline=None)
def test_complement_is_exact(s):
    pats = all_patterns(5)
    comp = s.complement()
    assert (comp.evaluate(pats) == ~s.evaluate(pats)).all()


@given(s=sops())
@settings(max_examples=120, deadline=None)
def test_absorb_preserves_function(s):
    pats = all_patterns(5)
    assert (s.absorb().evaluate(pats) == s.evaluate(pats)).all()


@given(s=sops())
@settings(max_examples=120, deadline=None)
def test_merge_siblings_preserves_function(s):
    pats = all_patterns(5)
    assert (s.merge_siblings().evaluate(pats) == s.evaluate(pats)).all()


@given(s=sops())
@settings(max_examples=100, deadline=None)
def test_tautology_agrees_with_evaluation(s):
    pats = all_patterns(5)
    assert s.is_one() == bool(s.evaluate(pats).all())


@given(s=sops(), var=st.integers(0, 4), phase=st.integers(0, 1))
@settings(max_examples=120, deadline=None)
def test_shannon_expansion(s, var, phase):
    """f = x f|x | !x f|!x — on every minterm."""
    pats = all_patterns(5)
    pos = s.cofactor(var, 1).evaluate(pats)
    neg = s.cofactor(var, 0).evaluate(pats)
    x = pats[:, var].astype(bool)
    assert ((x & pos) | (~x & neg) == s.evaluate(pats)).all()


@given(s=sops())
@settings(max_examples=80, deadline=None)
def test_truthtable_round_trip(s):
    tt = TruthTable.from_sop(s)
    pats = all_patterns(5)
    got = np.array([tt.get(int(m)) for m in range(32)], dtype=bool)
    assert (got == s.evaluate(pats)).all()


# -- bitmask containment kernel ---------------------------------------------

WIDE_VARS = (0, 5, 62, 63, 64, 65, 100, 129)
"""Variables of a 130-variable universe, straddling the 64-bit word edge."""


def wide_cubes():
    return st.dictionaries(st.sampled_from(WIDE_VARS), st.integers(0, 1),
                           max_size=len(WIDE_VARS)).map(Cube)


def wide_sops(max_cubes=7):
    return st.lists(wide_cubes(), max_size=max_cubes) \
        .map(lambda cs: Sop(cs, 130))


def wide_assignments():
    """Every assignment of WIDE_VARS, as rows of a 130-column array."""
    pats = np.zeros((1 << len(WIDE_VARS), 130), dtype=np.uint8)
    pats[:, list(WIDE_VARS)] = all_patterns(len(WIDE_VARS))
    return pats


@given(cube=wide_cubes())
@settings(max_examples=100, deadline=None)
def test_cube_masks_match_literals(cube):
    care, value = cube.masks()
    assert care == sum(1 << v for v in cube.variables)
    assert value == sum(1 << v for v, p in cube.literals() if p)
    assert Cube.from_masks(care, value) == cube


@given(s=wide_sops())
@settings(max_examples=150, deadline=None)
def test_wide_is_one_matches_exhaustive(s):
    assert s.is_one() == bool(s.evaluate(wide_assignments()).all())


@given(s=wide_sops(), cube=wide_cubes())
@settings(max_examples=200, deadline=None)
def test_wide_containment_matches_exhaustive(s, cube):
    pats = wide_assignments()
    inside = cube.evaluate(pats)
    value = s.evaluate(pats)
    assert s.covers_cube(cube) == bool(value[inside].all())
    assert s.intersects_cube(cube) == bool(value[inside].any())
    assert s.covers(*cube.masks()) == s.covers_cube(cube)
    assert s.intersects(*cube.masks()) == s.intersects_cube(cube)


@given(s=wide_sops(max_cubes=12))
@settings(max_examples=80, deadline=None)
def test_wide_covers_each_own_cube(s):
    for cube in s.cubes:
        assert s.covers_cube(cube) and s.intersects_cube(cube)


def absorb_pairwise(s):
    """Reference for :meth:`Sop.absorb`: test every kept cube."""
    kept = []
    for cube in sorted(set(s.cubes), key=len):
        if not any(k.contains(cube) for k in kept):
            kept.append(cube)
    return kept


def merge_siblings_pairwise(s):
    """Reference for :meth:`Sop.merge_siblings`: scan each support group
    for the first unused mergeable partner."""
    cubes = absorb_pairwise(s)
    changed = True
    while changed:
        changed = False
        by_support = {}
        for cube in cubes:
            by_support.setdefault(cube.variables, []).append(cube)
        merged, used = [], set()
        for group in by_support.values():
            for i, a in enumerate(group):
                if id(a) in used:
                    continue
                for b in group[i + 1:]:
                    m = None if id(b) in used else a.merge(b)
                    if m is not None:
                        used.update((id(a), id(b)))
                        merged.append(m)
                        changed = True
                        break
                else:
                    merged.append(a)
        cubes = absorb_pairwise(Sop(merged, s.num_vars))
    return cubes


@given(s=st.one_of(sops(num_vars=4, max_cubes=24), wide_sops(max_cubes=16)))
@settings(max_examples=150, deadline=None)
def test_absorb_and_merge_match_pairwise_reference(s):
    assert s.absorb().cubes == absorb_pairwise(s)
    assert s.merge_siblings().cubes == merge_siblings_pairwise(s)


# -- espresso-lite golden pin ------------------------------------------------


def seeded_cover_pair(seed):
    """Disjoint onset/offset minterm covers of a random function with
    don't-cares; odd seeds place the support in a 96-variable universe."""
    rng = np.random.default_rng([2019, seed])
    universe = 96 if seed % 2 else 10
    k = 5 + seed % 4
    support = [int(v) for v in sorted(rng.choice(universe, k, replace=False))]
    truth = rng.random(1 << k) < 0.45
    cared = rng.random(1 << k) < 0.85

    def cover(mask):
        return Sop([Cube({support[v]: (m >> v) & 1 for v in range(k)})
                    for m in np.flatnonzero(mask)], universe)
    return cover(truth & cared), cover(~truth & cared)


def render(sop):
    return [" ".join(f"{'' if p else '!'}{v}" for v, p in c.literals())
            for c in sop.cubes]


GOLDEN_ESPRESSO = {
    0: ['1 !6 8', '1 !3 5 6', '!3 !5 6 8', '1 3 5 !8', '!1 3 5 8',
        '!1 !5 !6 !8'],
    1: ['!7 53 81', '7 !53 !81 93', '!53 !84 93 !95', '7 !81 !84 93',
        '!7 81 !84 93', '!7 53 84 95', '53 81 84 95', '!53 !81 84 !93 !95',
        '53 !81 !84 93 95', '7 !53 81 !84 !93', '7 53 !81 !84 95'],
    2: ['1 4 !7 8', '!0 !1 3 !7 8', '!1 3 4 7 !8', '!1 3 4 !5 7',
        '1 3 !5 7 !8', '1 !3 !5 !7 8', '0 3 4 !5 7', '!0 3 4 5 8',
        '!1 !3 !5 7 !8', '!1 !3 5 7 8', '!0 3 !5 7 !8', '!0 1 4 !5 !8',
        '!1 3 !4 !7 !8', '1 !3 !4 7 8', '0 3 5 7 !8', '!1 !4 !5 !7 !8',
        '!0 3 !5 !7 8', '0 1 3 5 !7 8', '0 1 !3 !4 5 !8', '0 !1 3 !4 7 8',
        '0 !3 4 !5 !7 8', '0 !1 3 !5 !7 !8', '0 !1 !3 4 5 !7 !8'],
    3: ['16 37 52 !65 !92', '!11 16 !31 37 !52', '!11 31 !37 52 !65',
        '1 31 52 !65 !92', '16 31 !37 52 !92', '1 16 31 !37 !92',
        '!1 !11 !37 !65 !92', '!11 !37 52 !65 !92', '!1 !11 37 65 92',
        '!1 11 16 31 52 !92', '!1 11 !16 !52 65 !92', '1 16 37 !52 65 !92',
        '1 !11 37 52 !65 92', '!16 !31 !37 !52 65 92', '16 !31 37 !52 65 !92',
        '!11 !16 !31 37 52 92', '1 !16 31 37 !65 !92', '1 !16 31 37 52 !92',
        '1 16 !37 52 65 !92', '!11 !31 37 !52 !65 92', '!1 11 !16 31 !52 92',
        '1 16 !31 37 !65 !92', '!1 !31 37 !52 !65 92', '1 !11 16 !37 52 65',
        '16 !31 37 !52 !65 92', '!16 !31 !37 52 !65 92',
        '!11 16 37 !52 65 !92', '!11 !16 !37 !52 65 92',
        '!1 !11 !31 52 !65 !92', '1 !11 !16 31 !52 92',
        '!1 !11 !16 !31 !37 52', '!1 !11 16 31 !65 92',
        '11 !16 !31 37 !52 !92', '!1 !11 16 !31 52 !92',
        '1 !11 16 !37 !52 !65 92', '11 !16 31 !37 52 65 92',
        '11 !16 31 !37 !52 65 !92', '!1 11 !16 !31 37 65 !92',
        '1 11 31 37 52 65 92', '11 16 31 !37 !52 65 92',
        '!1 11 16 !31 !52 65 92', '11 16 31 37 52 65 92',
        '1 !11 !16 !31 !37 !52 !92', '!1 11 16 31 37 !65 !92',
        '1 11 !16 !31 !37 !52 !65'],
    4: ['2 4 !7', '!2 !4 5 9', '!4 !5 !7 9', '4 5 7 !9', '!2 5 7 9',
        '!2 !5 !7 !9', '2 !4 !5 7'],
    5: ['!46 48 !50 92', '!48 50 65 !92', '!43 !48 !50 92', '43 46 !50 !92',
        '46 !48 !65 !92', '!48 !50 !65 !92', '43 48 !50 65',
        '!43 !46 !50 !65', '!43 50 !65 92', '!46 !48 50 !65 92',
        '43 !46 48 65 !92'],
    6: ['0 1 4 5 9', '!2 !4 !5 7 !9', '0 !1 !2 4 9', '!0 1 4 !5 9',
        '!0 !1 5 7 9', '0 !2 !4 7 !9', '1 !2 !5 7 !9', '0 4 5 !7 9',
        '2 4 !5 !7 !9', '0 !2 4 5 !7', '0 !1 !2 5 !7', '1 4 !5 !7 9',
        '!0 2 5 !7 !9', '!0 !1 2 4 7', '1 !2 !4 !5 !9', '1 !2 !4 !5 7',
        '!0 !1 !2 !4 9', '0 1 !2 5 7', '1 2 !4 !7 9', '!0 !2 !4 5 !7 9',
        '!0 !1 2 !4 !5 !7'],
    7: ['20 21 63 64 68', '!21 33 64 !68 84', '!16 !20 33 !63 64',
        '16 33 64 !68 84', '!16 33 63 !64 !68', '33 !63 64 !68 84',
        '16 20 !63 !64 !84', '20 !33 63 68 !84', '!16 !20 !63 !68 !84',
        '!16 !20 33 68 !84', '16 20 !33 63 68', '!16 !20 21 33 63 !64',
        '!20 21 33 63 64 !68', '20 !21 63 !64 68 !84', '21 !33 !63 64 68 84',
        '16 !21 !63 64 68 !84', '!16 !20 !21 63 64 84',
        '!21 !33 63 !64 68 !84', '!16 20 !33 64 !68 !84',
        '16 !33 63 64 68 84', '!16 !21 33 !63 64 84', '16 21 33 63 !68 !84',
        '20 21 33 !64 !68 84', '16 !21 33 64 68 !84', '16 !20 33 63 !68 !84',
        '16 !20 21 63 64 84', '16 !21 !33 !63 !64 68', '20 21 !33 !63 64 !84',
        '!20 21 !63 !64 68 !84', '!20 !21 !33 !63 64 !84',
        '16 !20 21 63 !68 !84', '16 20 !21 !33 !68 84',
        '!16 !20 !21 63 !64 !68', '16 !20 !21 33 !64 84',
        '!20 33 !63 64 68 !84', '16 !20 !33 63 !64 !68 84',
        '!16 !20 21 !33 !63 !64 !68', '!16 20 21 !33 63 !68 84',
        '!16 20 21 !33 !63 68 84'],
    8: ['!2 4 !6 !8', '!0 !2 4 !6', '!0 !4 6 !8', '!0 !2 !4 6', '0 !2 !4 !6',
        '!0 2 !4 !6 8'],
    9: ['5 9 !51 !79', '9 !48 !67 !79', '!5 !48 !67 !79', '9 48 51 !79',
        '5 48 !67 79', '!5 9 51 !79', '5 !9 48 !51 79', '!9 48 51 !67 79',
        '!5 48 !51 67 !79', '!5 9 !48 !51 79', '5 9 !48 51 67 79'],
    10: ['!1 4 5 !7 8', '!1 2 !4 5 !7', '!1 !2 !3 !5 7', '!2 3 4 5 8',
         '!1 2 3 !4 8', '!1 4 !5 !7 !8', '!2 3 5 !7 8', '!2 3 !4 7 !8',
         '!3 4 !5 !7 !8', '!2 3 4 5 !7', '!1 3 !4 5 !8', '1 2 3 5 !8',
         '2 !3 4 !5 !7', '1 2 !4 5 7 8', '!1 2 !3 4 5 8', '1 !2 3 !4 !5 !8',
         '!2 !3 4 5 7 !8', '1 2 3 !5 !7 8', '1 2 !3 !5 !7 !8',
         '2 !3 !4 5 !7 8', '1 !2 !3 !4 5 !7 !8'],
    11: ['!25 33 36 !48 !57', '!10 25 !27 36 !57', '!10 !33 48 !57 60',
         '!10 !27 33 36 !60', '!10 !33 !36 48 60', '25 !27 !36 48 !57',
         '10 27 !48 !57 60', '10 25 33 !57 60', '!10 !27 33 36 !48',
         '!27 !33 !36 !57 60', '!27 33 36 !48 !57', '!10 !25 !33 !36 48 57',
         '!10 !27 !36 48 57 !60', '!10 25 27 33 !36 !57',
         '10 !25 !27 48 57 60', '!27 !33 36 !48 57 !60',
         '10 33 !36 !48 57 60', '!10 27 !33 36 48 !60', '10 25 27 33 48 60',
         '25 !33 !36 !48 !57 60', '!25 !27 36 !48 !57 !60',
         '!10 25 36 48 57 60', '25 27 36 48 !57 !60', '10 !25 !33 36 !48 60',
         '!10 !25 !27 33 !48 !60', '25 !27 33 !48 57 60',
         '10 !27 33 !36 57 60', '25 33 !36 48 57 !60',
         '!10 !25 27 !36 48 !57', '!10 !25 !27 !36 48 57',
         '!25 27 36 !48 !57 60', '25 !27 !33 36 48 60', '27 !33 36 !48 57 60',
         '10 !27 !36 48 !57 60', '!27 33 36 48 57 !60',
         '10 !25 !27 !33 !36 48', '25 !27 !33 !36 !48 60',
         '!10 !25 33 !48 57 !60', '10 27 !33 !36 !48 !57',
         '!10 !25 !27 !36 !48 !57 60', '10 27 33 !36 48 57 !60',
         '!25 27 !33 !36 !48 57 !60', '10 !25 !27 !33 !48 57 !60',
         '!10 !25 27 33 36 48 57', '10 27 33 36 !48 57 !60'],
}
"""espresso_lite output on each seeded cover pair, cube for cube and in
order, as recorded from the dict-based cube recursion that the bitmask
kernel replaced."""


@pytest.mark.parametrize("seed", sorted(GOLDEN_ESPRESSO))
def test_espresso_lite_golden(seed):
    onset, offset = seeded_cover_pair(seed)
    got = espresso_lite(onset.merge_siblings(), offset.merge_siblings())
    assert render(got) == GOLDEN_ESPRESSO[seed]
    pats = np.zeros((1 << 10, onset.num_vars), dtype=np.uint8)
    support = sorted(onset.support() | offset.support())
    pats[:, support] = all_patterns(10)[:, :len(support)]
    # The result never meets the offset.  It does not always cover the
    # onset: REDUCE can drop a region each of two cubes relies on the
    # other for (seed 3), and the pin keeps that behaviour.
    assert not got.evaluate(pats)[offset.evaluate(pats)].any()
