"""Bit-parallel batched simulation of netlists.

Patterns are packed 64-per-word into numpy ``uint64`` arrays so a netlist
with G gates is evaluated on N patterns in ``O(G * N / 64)`` word operations.
This is the engine behind both the black-box oracle wrappers and the
contest-style accuracy measurement, and is what makes the paper's sampling
volumes (r = 7200 paired flips per input) tractable in Python.
"""

from __future__ import annotations

from typing import List

import numpy as np

# The packing kernels started life here and grew into the shared
# bit-parallel layer; re-exported so existing imports keep working.
from repro.logic.bitops import pack_patterns, unpack_values  # noqa: F401
from repro.network.netlist import GateOp, Netlist


def simulate_packed(netlist: Netlist, pi_words: np.ndarray) -> np.ndarray:
    """Simulate on packed words: ``(num_pis, W)`` in, ``(num_pos, W)`` out."""
    if pi_words.shape[0] != netlist.num_pis:
        raise ValueError(
            f"expected {netlist.num_pis} PI rows, got {pi_words.shape[0]}")
    num_words = pi_words.shape[1]
    values: List[np.ndarray] = [None] * len(netlist.gates)  # type: ignore
    pi_iter = iter(range(netlist.num_pis))
    zeros = np.zeros(num_words, dtype=np.uint64)
    for n, gate in enumerate(netlist.gates):
        op = gate.op
        if op is GateOp.PI:
            values[n] = pi_words[next(pi_iter)]
        elif op is GateOp.CONST0:
            values[n] = zeros
        elif op is GateOp.BUF:
            values[n] = values[gate.fanins[0]]
        elif op is GateOp.NOT:
            values[n] = ~values[gate.fanins[0]]
        else:
            a = values[gate.fanins[0]]
            b = values[gate.fanins[1]]
            if op is GateOp.AND:
                values[n] = a & b
            elif op is GateOp.OR:
                values[n] = a | b
            elif op is GateOp.XOR:
                values[n] = a ^ b
            elif op is GateOp.NAND:
                values[n] = ~(a & b)
            elif op is GateOp.NOR:
                values[n] = ~(a | b)
            elif op is GateOp.XNOR:
                values[n] = ~(a ^ b)
            else:  # pragma: no cover - enum is closed
                raise AssertionError(f"unhandled op {op}")
    if not netlist.po_nodes:
        return np.zeros((0, num_words), dtype=np.uint64)
    return np.stack([values[n] for n in netlist.po_nodes])


def simulate(netlist: Netlist, patterns: np.ndarray) -> np.ndarray:
    """Evaluate the netlist on a ``(N, num_pis)`` 0/1 pattern array.

    Returns a ``(N, num_pos)`` uint8 array of output values.
    """
    patterns = np.asarray(patterns)
    if patterns.ndim != 2 or patterns.shape[1] != netlist.num_pis:
        raise ValueError(
            f"patterns must be (N, {netlist.num_pis}), got {patterns.shape}")
    if patterns.shape[0] == 0:
        return np.zeros((0, netlist.num_pos), dtype=np.uint8)
    pi_words = pack_patterns(patterns)
    po_words = simulate_packed(netlist, pi_words)
    return unpack_values(po_words, patterns.shape[0]).astype(np.uint8)


def simulate_one(netlist: Netlist, assignment) -> List[int]:
    """Evaluate a single assignment; returns the list of PO values."""
    arr = np.asarray(assignment, dtype=np.uint8).reshape(1, -1)
    return simulate(netlist, arr)[0].tolist()
