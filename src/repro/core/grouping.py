"""Name based grouping (Sec. IV-A).

Signals whose names share a common stem and carry an integer index — e.g.
``a[2], a[1], a[0]`` or ``data_7 .. data_0`` — are grouped into vectors and
interpreted as binary-encoded integers ``N_v`` with index 0 as the least
significant bit (Fig. 2's convention: ``(a2,a1,a0) = (1,1,0)`` encodes 6).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# stem[3] | stem(3) | stem_3 | stem3
_INDEXED = re.compile(
    r"^(?P<stem>.*?)(?:\[(?P<br>\d+)\]|\((?P<par>\d+)\)|_(?P<us>\d+)|(?P<bare>\d+))$")


@dataclass(frozen=True)
class BusGroup:
    """A named vector of signal positions, LSB first.

    ``positions[k]`` is the index (into the PI or PO name list) of the
    signal with bus index ``k``.
    """

    stem: str
    positions: Tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.positions)

    def encode(self, value: int) -> Dict[int, int]:
        """Map an integer to {signal position: bit}."""
        if not 0 <= value < (1 << self.width):
            raise ValueError(f"value {value} out of range for width "
                             f"{self.width}")
        return {pos: (value >> k) & 1
                for k, pos in enumerate(self.positions)}

    def encode_batch(self, values: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`encode`: an ``(N, width)`` uint8 array whose
        column ``k`` is bit ``k`` of each value, i.e. the signal at
        ``positions[k]``."""
        wide = self.width > 62  # beyond int64 shifts: Python ints
        values = np.asarray(values, dtype=object if wide else np.int64)
        if values.size and (values.min() < 0
                            or values.max() >= (1 << self.width)):
            raise ValueError(f"values out of range for width {self.width}")
        shifts = np.arange(self.width)
        if wide:
            shifts = shifts.astype(object)
        return ((values.reshape(-1, 1) >> shifts) & 1).astype(np.uint8)

    def decode(self, values: Sequence[int]) -> int:
        """Integer encoded by a full assignment (indexed by position)."""
        out = 0
        for k, pos in enumerate(self.positions):
            if values[pos]:
                out |= 1 << k
        return out

    def decode_batch(self, patterns: np.ndarray) -> np.ndarray:
        """Vectorized decode over an ``(N, num_signals)`` array."""
        out = np.zeros(patterns.shape[0], dtype=np.int64)
        for k, pos in enumerate(self.positions):
            out += patterns[:, pos].astype(np.int64) << k
        return out

    def reversed_(self) -> "BusGroup":
        """The MSB-first reading of the same signals.

        Name based grouping assumes index 0 is the LSB (Fig. 2); real
        designs sometimes number the other way.  Template matchers retry
        with reversed buses — the "generalizing the variable grouping"
        future-work direction of Sec. VI.
        """
        return BusGroup(self.stem, tuple(reversed(self.positions)))


@dataclass
class Grouping:
    """Result of name based grouping over one name list."""

    buses: List[BusGroup]
    scalars: List[int]  # positions not absorbed into any bus

    def bus_by_stem(self, stem: str) -> Optional[BusGroup]:
        for bus in self.buses:
            if bus.stem == stem:
                return bus
        return None

    def positions_in_buses(self) -> List[int]:
        out: List[int] = []
        for bus in self.buses:
            out.extend(bus.positions)
        return out


def parse_indexed_name(name: str) -> Optional[Tuple[str, int]]:
    """Split ``a[3]`` / ``a_3`` / ``a3`` into (stem, index), else None."""
    m = _INDEXED.match(name)
    if not m:
        return None
    stem = m.group("stem")
    for key in ("br", "par", "us", "bare"):
        digits = m.group(key)
        if digits is not None:
            if not stem:
                return None  # a pure number is not a bus bit
            return stem, int(digits)
    return None


def group_names(names: Sequence[str], min_width: int = 2) -> Grouping:
    """Group a name list into buses and scalars.

    A stem forms a bus when at least ``min_width`` distinct indices share
    it; buses are ordered LSB-first by index.  Duplicate indices or stems
    that fail the width test fall back to scalars — the paper's future-work
    note about "generalizing the variable grouping" lives exactly here.
    """
    by_stem: Dict[str, Dict[int, int]] = {}
    parsed: List[Optional[Tuple[str, int]]] = []
    for pos, name in enumerate(names):
        hit = parse_indexed_name(name)
        parsed.append(hit)
        if hit is not None:
            stem, index = hit
            slots = by_stem.setdefault(stem, {})
            if index in slots:
                # Duplicate index: ambiguous stem, poison it.
                slots[index] = -1
            else:
                slots[index] = pos
    buses: List[BusGroup] = []
    absorbed: set = set()
    for stem in sorted(by_stem):
        slots = by_stem[stem]
        if len(slots) < min_width or any(p < 0 for p in slots.values()):
            continue
        indices = sorted(slots)
        # Require a dense 0..w-1 index range to trust the binary encoding.
        if indices != list(range(len(indices))):
            continue
        positions = tuple(slots[i] for i in indices)
        buses.append(BusGroup(stem=stem, positions=positions))
        absorbed.update(positions)
    scalars = [pos for pos in range(len(names)) if pos not in absorbed]
    return Grouping(buses=buses, scalars=scalars)
