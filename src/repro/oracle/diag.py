"""DIAG category: semantic conditions / expressions over bus variables.

Contest DIAG cases hide comparator-style predicates over named buses
(``z = N_a == 37``, ``z = N_a < N_b`` ...), sometimes buried behind extra
control logic so the predicate is not directly observable at a PO.  These
are the cases the template-matching preprocessing solves outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.network.builder import comparator, comparator_const, mux
from repro.network.netlist import Netlist
from repro.oracle.random_logic import random_cone

PREDICATES = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class DiagSpec:
    """Ground truth of one DIAG output (recorded for test assertions)."""

    po_name: str
    predicate: str
    left_bus: str
    right_bus: Optional[str]  # None -> constant comparison
    constant: Optional[int]
    buried: bool


def build_diag_netlist(num_pos: int, seed: int,
                       bus_width: int = 8, num_buses: int = 2,
                       extra_pis: int = 4,
                       buried_fraction: float = 0.0
                       ) -> Tuple[Netlist, List[DiagSpec]]:
    """A DIAG-style golden circuit plus its ground-truth specs.

    ``buried_fraction`` of the outputs hide the comparator behind a MUX
    with junk logic (Fig. 3's scenario): the predicate reaches the PO only
    under a propagation cube on a control input.
    """
    rng = np.random.default_rng(seed)
    net = Netlist(f"diag_s{seed}")
    bus_names = [f"bus{chr(ord('a') + b)}" for b in range(num_buses)]
    buses = {}
    for name in bus_names:
        buses[name] = [net.add_pi(f"{name}[{i}]") for i in range(bus_width)]
    controls = [net.add_pi(f"ctl_{j}") for j in range(extra_pis)]
    specs: List[DiagSpec] = []
    for k in range(num_pos):
        predicate = PREDICATES[int(rng.integers(len(PREDICATES)))]
        left = bus_names[int(rng.integers(num_buses))]
        if num_buses >= 2 and rng.random() < 0.5:
            right = left
            while right == left:
                right = bus_names[int(rng.integers(num_buses))]
            cmp_node = comparator(net, predicate, buses[left], buses[right])
            constant = None
        else:
            right = None
            constant = int(rng.integers(1, (1 << bus_width) - 1))
            cmp_node = comparator_const(net, predicate, buses[left],
                                        constant)
        buried = rng.random() < buried_fraction and extra_pis >= 2
        po_name = f"cond_{k}"
        if buried:
            junk = random_cone(net, rng, controls[1:] + buses[left][:2],
                               num_gates=4)
            sel = controls[0]
            node = mux(net, sel, when0=junk, when1=cmp_node)
        else:
            node = cmp_node
        net.add_po(po_name, node)
        specs.append(DiagSpec(po_name, predicate, left, right, constant,
                              buried))
    return net, specs
