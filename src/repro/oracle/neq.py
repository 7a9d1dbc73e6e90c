"""NEQ category: miters of non-equivalent logic cones.

Each output is ``C(x) XOR C'(x)`` for a random cone ``C`` and a lightly
mutated revision ``C'`` — the standard miter structure of non-equivalence
diagnosis.  Outputs are mostly 0 with a structured, sparse onset, which is
precisely what makes the contest's NEQ cases the hardest (Table II: the
only sub-99.99% accuracies are NEQ).
"""

from __future__ import annotations

import numpy as np

from repro.network.netlist import Netlist
from repro.oracle.random_logic import (mutated_copy, random_cone,
                                       random_support)


def build_neq_netlist(num_pis: int, num_pos: int, seed: int,
                      support_low: int = 8, support_high: int = 18,
                      gates_per_cone: int = 20,
                      mutations: int = 2,
                      xor_heavy: bool = False) -> Netlist:
    """A NEQ-style golden circuit: per-output miters of cone pairs."""
    rng = np.random.default_rng(seed)
    net = Netlist(f"neq_s{seed}")
    pis = [net.add_pi(f"in_{i}") for i in range(num_pis)]
    for k in range(num_pos):
        size = int(rng.integers(support_low, support_high + 1))
        support = random_support(rng, pis, max(2, size))
        # Build the original cone in a scratch netlist so the mutated copy
        # shares ids, then graft both into the miter.
        scratch = Netlist("cone")
        scratch_pis = [scratch.add_pi(f"x{i}")
                       for i in range(len(support))]
        root = random_cone(scratch, rng, scratch_pis,
                           num_gates=gates_per_cone, xor_heavy=xor_heavy)
        scratch.add_po("f", root)
        revised = _non_equivalent_mutation(scratch, rng, mutations)
        input_map = {f"x{i}": support[i] for i in range(len(support))}
        left = net.append_netlist(scratch, input_map)["f"]
        right = net.append_netlist(revised, input_map)["f"]
        net.add_po(f"miter_{k}", net.add_xor(left, right))
    return net


def _non_equivalent_mutation(cone: Netlist, rng: np.random.Generator,
                             mutations: int, max_tries: int = 20) -> Netlist:
    """Mutate until the copy provably differs on random patterns.

    A random gate mutation can be functionally inert (e.g. rewiring inside
    dead logic); a miter of equivalent cones would be constant 0 and the
    "non-equivalence" case would degenerate.
    """
    from repro.network.simulate import simulate

    probe = rng.integers(0, 2, size=(2048, cone.num_pis)).astype("uint8")
    golden = simulate(cone, probe)
    for _ in range(max_tries):
        revised = mutated_copy(cone, rng, num_mutations=mutations)
        if (simulate(revised, probe) != golden).any():
            return revised
    raise RuntimeError("could not produce a non-equivalent mutation")
