"""ECO category: patch / logic-difference circuits.

Contest ECO cases expose the patch logic of an engineering change order:
many outputs, each a moderate function of a small-to-medium subset of the
inputs (the rest of the inputs are don't-care for that output).  This is
the regime where the decision-tree procedure shines (Table II).
"""

from __future__ import annotations

import numpy as np

from repro.network.netlist import Netlist
from repro.oracle.random_logic import random_cone, random_support


def build_eco_netlist(num_pis: int, num_pos: int, seed: int,
                      support_low: int = 3, support_high: int = 10,
                      gates_per_output: int = 12) -> Netlist:
    """An ECO-style golden circuit: independent small-support patch cones."""
    rng = np.random.default_rng(seed)
    net = Netlist(f"eco_s{seed}")
    pis = [net.add_pi(_eco_pi_name(rng, i)) for i in range(num_pis)]
    for k in range(num_pos):
        size = int(rng.integers(support_low, support_high + 1))
        support = random_support(rng, pis, size)
        if len(support) < 2:
            support = pis[:2]
        root = random_cone(net, rng, support,
                           num_gates=gates_per_output)
        net.add_po(f"po_{k}", root)
    return net


def _eco_pi_name(rng: np.random.Generator, index: int) -> str:
    """Industrial-looking scalar net names (no bus structure)."""
    prefixes = ["n", "net", "g", "w", "sig"]
    prefix = prefixes[int(rng.integers(len(prefixes)))]
    return f"{prefix}{index}_{int(rng.integers(1000))}"
