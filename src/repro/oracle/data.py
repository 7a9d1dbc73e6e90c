"""DATA category: arithmetic datapath recognition.

Contest DATA cases hide word-level linear arithmetic: output buses compute
``N_z = sum a_i * N_vi + b (mod 2^w)`` over named input buses.  The linear
arithmetic template (Sec. IV-B2) recovers the coefficients with a handful
of queries and rebuilds the datapath exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.network.builder import linear_combination
from repro.network.netlist import Netlist


@dataclass(frozen=True)
class DataSpec:
    """Ground truth of one DATA output bus."""

    out_bus: str
    out_width: int
    in_buses: Tuple[str, ...]
    coefficients: Tuple[int, ...]
    constant: int


def build_data_netlist(seed: int, num_in_buses: int = 2,
                       in_width: int = 8, out_width: int = 10,
                       num_out_buses: int = 1,
                       max_coefficient: int = 7,
                       max_constant: int = 31,
                       extra_pis: int = 0
                       ) -> Tuple[Netlist, List[DataSpec]]:
    """A DATA-style golden circuit plus its ground-truth specs.

    ``extra_pis`` adds named scalar inputs the outputs do not depend on
    (support identification must discard them).
    """
    rng = np.random.default_rng(seed)
    net = Netlist(f"data_s{seed}")
    in_names = [f"op{chr(ord('a') + b)}" for b in range(num_in_buses)]
    buses = {}
    for name in in_names:
        buses[name] = [net.add_pi(f"{name}[{i}]") for i in range(in_width)]
    for j in range(extra_pis):
        net.add_pi(f"mode_{j}")
    specs: List[DataSpec] = []
    for z in range(num_out_buses):
        coeffs = tuple(int(rng.integers(1, max_coefficient + 1))
                       for _ in in_names)
        constant = int(rng.integers(0, max_constant + 1))
        word = linear_combination(net, [buses[n] for n in in_names],
                                  list(coeffs), constant, out_width)
        out_name = f"res{z}"
        for i, bit in enumerate(word):
            net.add_po(f"{out_name}[{i}]", bit)
        specs.append(DataSpec(out_name, out_width, tuple(in_names),
                              coeffs, constant))
    return net, specs
