"""Input compression via comparator delegates (Sec. IV-B1, Fig. 3).

When a buried comparator is confirmed, its output ``O_s`` delegates the
whole bus pair: ``O_s`` becomes a new primary input and the bus bits are
dropped.  Because we know the comparator's function, we can *drive* the
delegate from outside by choosing representative bus assignments — one
making the predicate false, one making it true — which is what lets the
decision-tree learner keep querying the original black box through the
compressed input space.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.templates.comparator import ComparatorMatch, _PRED_FN
from repro.oracle.base import Oracle

DELEGATE_NAME = "__delegate__"


def representative_assignments(match: ComparatorMatch
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Bus-bit vectors (over the match's bus positions, concatenated in
    position order) realizing predicate = 0 and predicate = 1."""
    fn = _PRED_FN[match.predicate]
    left_w = match.left.width
    if match.right is not None:
        right_w = match.right.width
        found0 = found1 = None
        for a, b in ((0, 0), (0, 1), (1, 0),
                     ((1 << left_w) - 1, 0), (0, (1 << right_w) - 1)):
            val = bool(fn(a, b))
            if val and found1 is None:
                found1 = (a, b)
            if not val and found0 is None:
                found0 = (a, b)
            if found0 and found1:
                break
        if found0 is None or found1 is None:
            raise ValueError("degenerate predicate has no witnesses")
        return (_encode_pair(match, *found0), _encode_pair(match, *found1))
    constant = match.constant
    assert constant is not None
    candidates = [0, constant, max(0, constant - 1),
                  min((1 << left_w) - 1, constant + 1), (1 << left_w) - 1]
    found0 = found1 = None
    for value in candidates:
        val = bool(fn(value, constant))
        if val and found1 is None:
            found1 = value
        if not val and found0 is None:
            found0 = value
    if found0 is None or found1 is None:
        raise ValueError("degenerate predicate has no witnesses")
    return (_encode_single(match, found0), _encode_single(match, found1))


def _encode_pair(match: ComparatorMatch, a: int, b: int) -> np.ndarray:
    bits = []
    for k in range(match.left.width):
        bits.append((a >> k) & 1)
    for k in range(match.right.width):  # type: ignore[union-attr]
        bits.append((b >> k) & 1)
    return np.array(bits, dtype=np.uint8)


def _encode_single(match: ComparatorMatch, a: int) -> np.ndarray:
    return np.array([(a >> k) & 1 for k in range(match.left.width)],
                    dtype=np.uint8)


class CompressedOracle(Oracle):
    """Black-box view over the compressed input space ``I'``.

    Inputs are the kept original PIs followed by one delegate input; a
    query expands each row to a full original assignment by substituting a
    representative bus assignment chosen by the delegate bit.
    """

    obs_layer = "compressed"

    def __init__(self, base: Oracle, match: ComparatorMatch):
        self._base = base
        self._match = match
        bus_positions: List[int] = list(match.left.positions)
        if match.right is not None:
            bus_positions += list(match.right.positions)
        self._bus_positions = bus_positions
        self._kept = [i for i in range(base.num_pis)
                      if i not in set(bus_positions)]
        rep0, rep1 = representative_assignments(match)
        self._rep0, self._rep1 = rep0, rep1
        pi_names = [base.pi_names[i] for i in self._kept] + [DELEGATE_NAME]
        super().__init__(pi_names, base.po_names)

    @property
    def kept_positions(self) -> List[int]:
        """Original PI positions of the compressed inputs (delegate last,
        not included)."""
        return list(self._kept)

    def expand(self, patterns: np.ndarray) -> np.ndarray:
        """Compressed patterns -> full original-space patterns."""
        n = patterns.shape[0]
        full = np.zeros((n, self._base.num_pis), dtype=np.uint8)
        full[:, self._kept] = patterns[:, :-1]
        delegate = patterns[:, -1].astype(bool)
        reps = np.where(delegate[:, None], self._rep1[None, :],
                        self._rep0[None, :])
        full[:, self._bus_positions] = reps
        return full

    def _evaluate(self, patterns: np.ndarray) -> np.ndarray:
        return self._base.query(self.expand(patterns), validate=False)
