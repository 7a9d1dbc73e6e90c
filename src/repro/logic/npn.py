"""NPN classification of small Boolean functions.

Two functions are NPN-equivalent when one becomes the other under input
Negation, input Permutation and output Negation.  The rewrite pass keys
its resynthesis cache on the NPN representative, so all 222 classes of
4-input logic share entries instead of the raw 65536 truth tables — the
same trick ABC's rewrite uses.

Tables are plain Python ints over ``2^k`` bits (cut-local convention).
Exact canonization enumerates all ``2^(k+1) * k!`` transforms, which is
fine for ``k <= 5`` (the rewrite regime); a cheaper semi-canonical form is
provided for larger k.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

_FACT_CACHE: Dict[Tuple[int, int], "NpnTransform"] = {}


class NpnTransform:
    """A concrete (input phases, permutation, output phase) transform."""

    __slots__ = ("perm", "input_phases", "output_phase")

    def __init__(self, perm: Tuple[int, ...], input_phases: int,
                 output_phase: int):
        self.perm = perm
        self.input_phases = input_phases
        self.output_phase = output_phase

    def apply(self, table: int, k: int) -> int:
        """Transform a truth table over k variables."""
        out = 0
        for m in range(1 << k):
            # Build the source minterm for target minterm m.
            src = 0
            for tgt_var in range(k):
                bit = (m >> tgt_var) & 1
                src_var = self.perm[tgt_var]
                if (self.input_phases >> src_var) & 1:
                    bit ^= 1
                src |= bit << src_var
            value = (table >> src) & 1
            if self.output_phase:
                value ^= 1
            out |= value << m
        return out

    def __repr__(self) -> str:
        return (f"NpnTransform(perm={self.perm}, "
                f"in=0b{self.input_phases:b}, out={self.output_phase})")


def all_transforms(k: int) -> List[NpnTransform]:
    """Every NPN transform of k variables (2^(k+1) * k! of them)."""
    out = []
    for perm in itertools.permutations(range(k)):
        for phases in range(1 << k):
            for out_phase in (0, 1):
                out.append(NpnTransform(perm, phases, out_phase))
    return out


_TRANSFORMS_CACHE: Dict[int, List[NpnTransform]] = {}


def npn_canon(table: int, k: int) -> Tuple[int, NpnTransform]:
    """Exact NPN representative (numerically smallest image) + transform.

    The returned transform maps ``table`` to the representative:
    ``transform.apply(table, k) == representative``.
    """
    if k > 5:
        raise ValueError("exact NPN canonization limited to k <= 5")
    transforms = _TRANSFORMS_CACHE.get(k)
    if transforms is None:
        transforms = all_transforms(k)
        _TRANSFORMS_CACHE[k] = transforms
    best: Optional[int] = None
    best_t: Optional[NpnTransform] = None
    for t in transforms:
        image = t.apply(table, k)
        if best is None or image < best:
            best = image
            best_t = t
    assert best is not None and best_t is not None
    return best, best_t


def invert(transform: NpnTransform, k: int) -> NpnTransform:
    """The inverse transform: representative -> original table."""
    inv_perm = [0] * k
    for tgt, src in enumerate(transform.perm):
        inv_perm[src] = tgt
    # Input phases move with the permutation on inversion.
    inv_phases = 0
    for src in range(k):
        if (transform.input_phases >> src) & 1:
            inv_phases |= 1 << inv_perm[src]
    # NOTE: for phase+perm transforms of this form, applying phases before
    # or after permutation matters; this inverse matches NpnTransform.apply.
    return NpnTransform(tuple(inv_perm), inv_phases,
                        transform.output_phase)


def semi_canon(table: int, k: int) -> int:
    """Cheap semi-canonical form: output phase + per-input phase greedily.

    Not a true NPN representative (no permutation search), but stable and
    cheap for any k; used only as a cache key, never for correctness.
    """
    mask = (1 << (1 << k)) - 1
    best = min(table, (~table) & mask)
    for var in range(k):
        flipped = _flip_input(best, var, k)
        if flipped < best:
            best = flipped
    return best


def _flip_input(table: int, var: int, k: int) -> int:
    out = 0
    for m in range(1 << k):
        out |= ((table >> (m ^ (1 << var))) & 1) << m
    return out


def npn_classes(k: int) -> int:
    """Number of distinct NPN classes of k-variable functions (k <= 4)."""
    if k > 4:
        raise ValueError("class enumeration limited to k <= 4")
    seen = set()
    for table in range(1 << (1 << k)):
        rep, _ = npn_canon(table, k)
        seen.add(rep)
    return len(seen)
