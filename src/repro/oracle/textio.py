"""The contest's file-based IO-generator protocol.

The 2019 ICCAD contest exposed its black boxes as executables exchanging
text files: contestants write an ``input.pattern`` file (header naming the
PIs, then one 0/1 row per assignment) and read back an ``io.relation``
file echoing the inputs plus the output columns.  This module implements
both ends of that protocol:

- :func:`write_pattern_file` / :func:`read_relation_file` — the
  contestant side (what a learner shipping to the real contest would use);
- :class:`TextProtocolOracle` — an :class:`~repro.oracle.base.Oracle`
  whose every query round-trips through files in a working directory,
  exercising exactly the code path the contest binary would;
- :func:`serve_once` — the generator side, answering one pattern file.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

import numpy as np

from repro.oracle.base import Oracle


def write_pattern_file(path: str, pi_names: Sequence[str],
                       patterns: np.ndarray) -> None:
    """Write an input-pattern request file."""
    patterns = np.asarray(patterns, dtype=np.uint8)
    if patterns.ndim != 2 or patterns.shape[1] != len(pi_names):
        raise ValueError("patterns shape does not match the PI list")
    with open(path, "w") as handle:
        handle.write(" ".join(pi_names) + "\n")
        for row in patterns:
            handle.write("".join(str(int(b)) for b in row) + "\n")


def read_pattern_file(path: str) -> Tuple[List[str], np.ndarray]:
    """Parse an input-pattern request file."""
    with open(path) as handle:
        header = handle.readline().split()
        rows = []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if len(line) != len(header) or set(line) - {"0", "1"}:
                raise ValueError(f"malformed pattern row {line!r}")
            rows.append([int(ch) for ch in line])
    return header, np.asarray(rows, dtype=np.uint8).reshape(
        len(rows), len(header))


def write_relation_file(path: str, pi_names: Sequence[str],
                        po_names: Sequence[str], patterns: np.ndarray,
                        outputs: np.ndarray) -> None:
    """Write an IO-relation response file."""
    with open(path, "w") as handle:
        handle.write(" ".join(pi_names) + " | " + " ".join(po_names)
                     + "\n")
        for row_in, row_out in zip(patterns, outputs):
            handle.write("".join(str(int(b)) for b in row_in) + " "
                         + "".join(str(int(b)) for b in row_out) + "\n")


def read_relation_file(path: str) -> Tuple[List[str], List[str],
                                           np.ndarray, np.ndarray]:
    """Parse an IO-relation response file."""
    with open(path) as handle:
        header = handle.readline()
        if "|" not in header:
            raise ValueError("relation header must contain '|'")
        left, right = header.split("|")
        pi_names = left.split()
        po_names = right.split()
        ins, outs = [], []
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"malformed relation row {line!r}")
            if set(parts[0]) - {"0", "1"} or set(parts[1]) - {"0", "1"}:
                raise ValueError(
                    f"non-binary character in relation row {line!r}")
            if len(parts[0]) != len(pi_names):
                raise ValueError(
                    f"relation row {line!r} has {len(parts[0])} input "
                    f"bits; header names {len(pi_names)} PIs")
            if len(parts[1]) != len(po_names):
                raise ValueError(
                    f"relation row {line!r} has {len(parts[1])} output "
                    f"bits; header names {len(po_names)} POs")
            ins.append([int(ch) for ch in parts[0]])
            outs.append([int(ch) for ch in parts[1]])
    return (pi_names, po_names,
            np.asarray(ins, dtype=np.uint8).reshape(len(ins),
                                                    len(pi_names)),
            np.asarray(outs, dtype=np.uint8).reshape(len(outs),
                                                     len(po_names)))


def serve_once(oracle: Oracle, pattern_path: str,
               relation_path: str) -> int:
    """Generator side: answer one pattern file; returns #patterns served."""
    names, patterns = read_pattern_file(pattern_path)
    if names != oracle.pi_names:
        raise ValueError("pattern file PI names do not match the oracle")
    outputs = oracle.query(patterns)
    write_relation_file(relation_path, oracle.pi_names, oracle.po_names,
                        patterns, outputs)
    return patterns.shape[0]


class TextProtocolOracle(Oracle):
    """An oracle whose queries round-trip through the file protocol.

    Functionally identical to the wrapped oracle, but every batch is
    serialized to ``input.pattern``, served, and parsed back from
    ``io.relation`` — validating that a learner run against the real
    contest binaries would see the same bits.
    """

    def __init__(self, inner: Oracle, workdir: str):
        super().__init__(inner.pi_names, inner.po_names)
        self._inner = inner
        self._workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.round_trips = 0

    def _evaluate(self, patterns: np.ndarray) -> np.ndarray:
        pattern_path = os.path.join(self._workdir, "input.pattern")
        relation_path = os.path.join(self._workdir, "io.relation")
        write_pattern_file(pattern_path, self.pi_names, patterns)
        serve_once(self._inner, pattern_path, relation_path)
        _, _, echoed, outputs = read_relation_file(relation_path)
        if not np.array_equal(echoed, patterns):
            raise AssertionError("protocol corrupted the patterns")
        self.round_trips += 1
        return outputs
