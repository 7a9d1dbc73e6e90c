"""Comparator template matching (Sec. IV-B1, Table I).

Hypotheses tested per single-bit output: ``z = N_v1 <> N_v2`` over pairs of
input buses, and ``z = N_v1 <> b`` against a constant.  Ordered-predicate
constants are recovered by binary search on a controlled probe (we own the
inputs, so ``N_v1`` can be set directly); equality constants are read off a
witnessing sample.  If no direct match exists, a propagation-cube search
fixes the non-bus inputs to random contexts until the predicate becomes
observable at the output (the buried-comparator scenario of Fig. 3).

Ordered predicates are canonicalized: ``N < t`` subsumes ``N <= t-1`` and
``N >= t`` subsumes ``N > t-1`` — black-box behaviour cannot distinguish
the members of each pair, so one canonical form per threshold is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.grouping import BusGroup, Grouping
from repro.core.sampling import random_patterns
from repro.logic.cube import Cube
from repro.oracle.base import Oracle

PREDICATES = ("==", "!=", "<", "<=", ">", ">=")

_PRED_FN = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class ComparatorMatch:
    """A confirmed comparator hypothesis for one output bit."""

    output: int
    predicate: str
    left: BusGroup
    right: Optional[BusGroup]  # None for a constant comparison
    constant: Optional[int]
    propagation_cube: Optional[Cube]  # None when directly observable

    @property
    def buried(self) -> bool:
        return self.propagation_cube is not None

    def evaluate_ints(self, n_left: np.ndarray,
                      n_right_or_const) -> np.ndarray:
        return _PRED_FN[self.predicate](n_left, n_right_or_const) \
            .astype(np.uint8)

    def describe(self) -> str:
        rhs = self.right.stem if self.right is not None else str(self.constant)
        where = " (buried)" if self.buried else ""
        return f"N_{self.left.stem} {self.predicate} {rhs}{where}"


def match_comparator(oracle: Oracle, grouping: Grouping, output: int,
                     rng: np.random.Generator, num_samples: int = 192,
                     propagation_tries: int = 0
                     ) -> Optional[ComparatorMatch]:
    """Try to explain output ``output`` as a comparator over input buses."""
    buses = grouping.buses
    if not buses:
        return None
    # Direct (unconstrained) matching first.
    match = _match_under_cube(oracle, buses, output, rng, num_samples,
                              cube=None)
    if match is not None:
        return match
    # Buried comparator: search for a propagation cube on the other PIs.
    for _ in range(propagation_tries):
        bus_pair = _random_bus_subset(buses, rng)
        positions = set()
        for bus in bus_pair:
            positions.update(bus.positions)
        context_vars = [i for i in range(oracle.num_pis)
                        if i not in positions]
        if not context_vars:
            continue
        bits = rng.integers(0, 2, size=len(context_vars))
        cube = Cube({v: int(b) for v, b in zip(context_vars, bits)})
        match = _match_under_cube(oracle, list(bus_pair), output, rng,
                                  num_samples, cube=cube)
        if match is not None:
            return match
    return None


def _random_bus_subset(buses: List[BusGroup],
                       rng: np.random.Generator) -> Tuple[BusGroup, ...]:
    if len(buses) == 1:
        return (buses[0],)
    if len(buses) == 2:
        return tuple(buses)
    picks = rng.choice(len(buses), size=2, replace=False)
    return tuple(buses[i] for i in picks)


def _match_under_cube(oracle: Oracle, buses: List[BusGroup], output: int,
                      rng: np.random.Generator, num_samples: int,
                      cube: Optional[Cube]) -> Optional[ComparatorMatch]:
    samples = random_patterns(num_samples, oracle.num_pis, rng,
                              biases=(0.5,), cube=cube)
    out = oracle.query(samples)[:, output]
    # Bus-vs-bus hypotheses.
    for a_idx in range(len(buses)):
        for b_idx in range(len(buses)):
            if a_idx == b_idx:
                continue
            left, right = buses[a_idx], buses[b_idx]
            hit = _test_pair(oracle, left, right, output, out, samples,
                             rng, cube)
            if hit is not None:
                return ComparatorMatch(output, hit, left, right, None,
                                       cube)
    # Bus-vs-constant hypotheses.
    for bus in buses:
        hit = _test_constant(oracle, bus, output, out, samples, rng, cube)
        if hit is not None:
            predicate, constant = hit
            return ComparatorMatch(output, predicate, bus, None, constant,
                                   cube)
    return None


def _test_pair(oracle: Oracle, left: BusGroup, right: BusGroup,
               output: int, out: np.ndarray, samples: np.ndarray,
               rng: np.random.Generator,
               cube: Optional[Cube]) -> Optional[str]:
    """Confirm one of the six predicates between two buses, or None."""
    n_left = left.decode_batch(samples)
    n_right = right.decode_batch(samples)
    # Random samples almost never produce equality on wide buses; add
    # targeted probes with the buses forced equal and forced adjacent.
    probes = random_patterns(32, oracle.num_pis, rng, (0.5,), cube)
    width = min(left.width, right.width)
    for row in range(probes.shape[0]):
        value = int(rng.integers(0, 1 << width))
        for pos, bit in left.encode(_clip(value, left.width)).items():
            probes[row, pos] = bit
        forced = value if row % 2 == 0 else _clip(value + 1, right.width)
        for pos, bit in right.encode(forced).items():
            probes[row, pos] = bit
    probe_out = oracle.query(probes)[:, output]
    all_out = np.concatenate([out, probe_out])
    all_left = np.concatenate([n_left, left.decode_batch(probes)])
    all_right = np.concatenate([n_right, right.decode_batch(probes)])
    if all_out.min() == all_out.max():
        return None  # constant output cannot certify a predicate
    for predicate in PREDICATES:
        expect = _PRED_FN[predicate](all_left, all_right)
        if np.array_equal(expect.astype(np.uint8), all_out):
            return predicate
    return None


def _clip(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def _test_constant(oracle: Oracle, bus: BusGroup, output: int,
                   out: np.ndarray, samples: np.ndarray,
                   rng: np.random.Generator,
                   cube: Optional[Cube]) -> Optional[Tuple[str, int]]:
    """Confirm ``z = N_bus <> b`` for some constant, or None.

    Thresholds come from binary search on a controlled probe; equality
    constants are read off a witnessing sample.
    """
    n_bus = bus.decode_batch(samples)
    candidates: List[Tuple[str, int]] = []
    zeros = out == 0
    ones = out == 1
    context = random_patterns(1, oracle.num_pis, rng, (0.5,), cube)[0]

    def probe(values: Sequence[int]) -> np.ndarray:
        block = np.tile(context, (len(values), 1))
        block[:, list(bus.positions)] = bus.encode_batch(values)
        return oracle.query(block)[:, output]

    if bus.width <= 16:
        # We own the inputs: a dense sweep of all 2^w bus values under one
        # context identifies any constant comparison exactly and cheaply
        # (the batched oracle answers 65k queries in one call).
        sweep = probe(list(range(1 << bus.width)))
        candidates.extend(_candidates_from_sweep(sweep))
    elif ones.any() and zeros.any():
        # Wide bus: binary search the threshold (ordered predicates) and
        # read equality constants off witnessing samples, as the paper
        # describes.
        lo_val, hi_val = 0, (1 << bus.width) - 1
        z_ends = probe([lo_val, hi_val])
        if z_ends[0] != z_ends[1]:
            threshold = _binary_search_flip(probe, lo_val, hi_val,
                                            int(z_ends[0]))
            if z_ends[0] == 1:
                candidates.append(("<", threshold))
            else:
                candidates.append((">=", threshold))
        if ones.sum() <= max(3, len(out) // 8):
            witness = np.unique(n_bus[ones])
            if witness.shape[0] == 1:
                candidates.append(("==", int(witness[0])))
        if zeros.sum() <= max(3, len(out) // 8):
            witness = np.unique(n_bus[zeros])
            if witness.shape[0] == 1:
                candidates.append(("!=", int(witness[0])))
    else:
        return None
    for predicate, constant in candidates:
        if _verify_constant(oracle, bus, output, predicate, constant, rng,
                            cube):
            return predicate, constant
    return None


def _candidates_from_sweep(sweep: np.ndarray) -> List[Tuple[str, int]]:
    """Constant-comparison hypotheses from an exhaustive value sweep."""
    ones = np.nonzero(sweep == 1)[0]
    zeros = np.nonzero(sweep == 0)[0]
    if ones.shape[0] == 0 or zeros.shape[0] == 0:
        return []
    out: List[Tuple[str, int]] = []
    if ones.shape[0] == 1:
        out.append(("==", int(ones[0])))
    if zeros.shape[0] == 1:
        out.append(("!=", int(zeros[0])))
    # Contiguous prefix of 1s -> N < t; contiguous suffix of 1s -> N >= t.
    first_one, last_one = int(ones[0]), int(ones[-1])
    if last_one - first_one + 1 == ones.shape[0]:
        if first_one == 0:
            out.append(("<", last_one + 1))
        elif last_one == sweep.shape[0] - 1:
            out.append((">=", first_one))
    return out


def _binary_search_flip(probe, lo: int, hi: int, lo_value: int) -> int:
    """First value whose probe differs from ``probe(lo)``.

    Assumes a single monotone flip between lo and hi (verified later)."""
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if int(probe([mid])[0]) == lo_value:
            lo = mid
        else:
            hi = mid
    return hi


def _verify_constant(oracle: Oracle, bus: BusGroup, output: int,
                     predicate: str, constant: int,
                     rng: np.random.Generator, cube: Optional[Cube],
                     num_samples: int = 128) -> bool:
    """Fresh-sample verification, including boundary probes b-1, b, b+1."""
    samples = random_patterns(num_samples, oracle.num_pis, rng,
                              biases=(0.5, 0.2, 0.8), cube=cube)
    boundary = [value for value in (constant - 1, constant, constant + 1)
                if 0 <= value < (1 << bus.width)][:samples.shape[0]]
    samples[:len(boundary), list(bus.positions)] = \
        bus.encode_batch(boundary)
    out = oracle.query(samples)[:, output]
    n_bus = bus.decode_batch(samples)
    expect = _PRED_FN[predicate](n_bus, constant).astype(np.uint8)
    return bool(np.array_equal(expect, out))
