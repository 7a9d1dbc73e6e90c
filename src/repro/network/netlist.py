"""Gate-level Boolean networks of 2-input primitive gates.

This is the contest's target representation (Sec. III): a DAG whose
intermediate nodes carry 2-input primitive gates ("and", "or", "xor" and
their complements), plus free inverters/buffers.  Gate count — the metric of
Table II — counts the 2-input gates only; inverters and buffers are treated
as free wiring, which matches AIG-style size accounting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


class GateOp(enum.Enum):
    """Primitive node operations."""

    PI = "pi"
    CONST0 = "const0"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NAND = "nand"
    NOR = "nor"
    XNOR = "xnor"

    @property
    def arity(self) -> int:
        if self in (GateOp.PI, GateOp.CONST0):
            return 0
        if self in (GateOp.BUF, GateOp.NOT):
            return 1
        return 2

    @property
    def counts_as_gate(self) -> bool:
        """True for the 2-input primitives counted by the contest metric."""
        return self.arity == 2


TWO_INPUT_OPS = tuple(op for op in GateOp if op.arity == 2)


@dataclass(frozen=True)
class Gate:
    """One node of the netlist DAG."""

    op: GateOp
    fanins: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.fanins) != self.op.arity:
            raise ValueError(
                f"{self.op.value} expects {self.op.arity} fanins, "
                f"got {len(self.fanins)}")


class Netlist:
    """A named combinational network.

    Nodes are integer ids in insertion (hence topological) order: fanins must
    exist before the gate that uses them, so the node list is always a valid
    evaluation order.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.gates: List[Gate] = []
        self.pi_names: List[str] = []
        self._pi_nodes: List[int] = []
        self.po_names: List[str] = []
        self.po_nodes: List[int] = []
        self._name_to_pi: Dict[str, int] = {}

    # -- construction -----------------------------------------------------------

    def add_pi(self, name: str) -> int:
        """Add a primary input; returns its node id."""
        if name in self._name_to_pi:
            raise ValueError(f"duplicate PI name {name!r}")
        node = self._add(Gate(GateOp.PI, ()))
        self.pi_names.append(name)
        self._pi_nodes.append(node)
        self._name_to_pi[name] = node
        return node

    def add_const0(self) -> int:
        return self._add(Gate(GateOp.CONST0, ()))

    def add_gate(self, op: GateOp, *fanins: int) -> int:
        """Add a gate; fanins must be existing node ids."""
        for f in fanins:
            if not 0 <= f < len(self.gates):
                raise ValueError(f"fanin {f} does not exist yet")
        return self._add(Gate(op, tuple(fanins)))

    def _add(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def add_po(self, name: str, node: int) -> None:
        if not 0 <= node < len(self.gates):
            raise ValueError(f"PO driver {node} does not exist")
        self.po_names.append(name)
        self.po_nodes.append(node)

    # convenience gate helpers -------------------------------------------------

    def add_not(self, a: int) -> int:
        return self.add_gate(GateOp.NOT, a)

    def add_and(self, a: int, b: int) -> int:
        return self.add_gate(GateOp.AND, a, b)

    def add_or(self, a: int, b: int) -> int:
        return self.add_gate(GateOp.OR, a, b)

    def add_xor(self, a: int, b: int) -> int:
        return self.add_gate(GateOp.XOR, a, b)

    def add_const1(self) -> int:
        return self.add_not(self.add_const0())

    # -- queries --------------------------------------------------------------

    @property
    def num_pis(self) -> int:
        return len(self.pi_names)

    @property
    def num_pos(self) -> int:
        return len(self.po_names)

    @property
    def pi_nodes(self) -> List[int]:
        return list(self._pi_nodes)

    def pi_index_of_node(self, node: int) -> int:
        return self._pi_nodes.index(node)

    def pi_node(self, name: str) -> int:
        return self._name_to_pi[name]

    def __len__(self) -> int:
        return len(self.gates)

    def gate_count(self) -> int:
        """Contest size metric: number of (reachable) 2-input gates."""
        reachable = self.reachable_from_pos()
        return sum(1 for n in reachable
                   if self.gates[n].op.counts_as_gate)

    def reachable_from_pos(self) -> Set[int]:
        """Nodes in the transitive fanin of any PO."""
        seen: Set[int] = set()
        stack = list(self.po_nodes)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(self.gates[n].fanins)
        return seen

    def level(self, node: Optional[int] = None) -> int:
        """Logic depth of ``node`` (or max over POs), NOT/BUF free."""
        levels = [0] * len(self.gates)
        for n, gate in enumerate(self.gates):
            if gate.op.arity == 0:
                levels[n] = 0
            else:
                base = max(levels[f] for f in gate.fanins)
                levels[n] = base + (1 if gate.op.counts_as_gate else 0)
        if node is not None:
            return levels[node]
        if not self.po_nodes:
            return 0
        return max(levels[n] for n in self.po_nodes)

    def fanouts(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in self.gates]
        for n, gate in enumerate(self.gates):
            for f in gate.fanins:
                out[f].append(n)
        return out

    def cone_of(self, po_index: int) -> "Netlist":
        """Extract the single-output cone feeding PO ``po_index``.

        The extracted netlist keeps *all* PIs (same input universe) so that
        pattern arrays remain compatible, but contains only the cone's gates.
        """
        root = self.po_nodes[po_index]
        keep: Set[int] = set(self._pi_nodes)
        stack = [root]
        while stack:
            n = stack.pop()
            if n in keep:
                continue
            keep.add(n)
            stack.extend(self.gates[n].fanins)
        out = Netlist(f"{self.name}_cone{po_index}")
        remap: Dict[int, int] = {}
        for name in self.pi_names:
            remap[self._name_to_pi[name]] = out.add_pi(name)
        for n in sorted(keep):
            if n in remap:
                continue
            gate = self.gates[n]
            remap[n] = out.add_gate(gate.op,
                                    *(remap[f] for f in gate.fanins))
        out.add_po(self.po_names[po_index], remap[root])
        return out

    def structural_support(self, po_index: int) -> List[str]:
        """PI names in the transitive fanin of the given PO."""
        root = self.po_nodes[po_index]
        seen: Set[int] = set()
        stack = [root]
        pis: Set[int] = set()
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            gate = self.gates[n]
            if gate.op is GateOp.PI:
                pis.add(n)
            stack.extend(gate.fanins)
        return [name for name, node in zip(self.pi_names, self._pi_nodes)
                if node in pis]

    # -- composition -------------------------------------------------------------

    def append_netlist(self, other: "Netlist",
                       input_map: Dict[str, int]) -> Dict[str, int]:
        """Graft ``other`` into self, wiring its PIs to existing nodes.

        ``input_map`` maps each of ``other``'s PI names to a node id in self.
        Returns a map from ``other``'s PO names to new node ids in self.
        """
        remap: Dict[int, int] = {}
        for name, node in zip(other.pi_names, other._pi_nodes):
            if name not in input_map:
                raise ValueError(f"unmapped input {name!r}")
            remap[node] = input_map[name]
        for n, gate in enumerate(other.gates):
            if gate.op is GateOp.PI:
                continue
            remap[n] = self.add_gate(gate.op,
                                     *(remap[f] for f in gate.fanins))
        return {name: remap[node]
                for name, node in zip(other.po_names, other.po_nodes)}

    def cleaned(self) -> "Netlist":
        """Copy with dangling (PO-unreachable) gates removed."""
        keep = self.reachable_from_pos() | set(self._pi_nodes)
        out = Netlist(self.name)
        remap: Dict[int, int] = {}
        for name in self.pi_names:
            remap[self._name_to_pi[name]] = out.add_pi(name)
        for n in sorted(keep):
            if n in remap:
                continue
            gate = self.gates[n]
            remap[n] = out.add_gate(gate.op,
                                    *(remap[f] for f in gate.fanins))
        for name, node in zip(self.po_names, self.po_nodes):
            out.add_po(name, remap[node])
        return out

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, {self.num_pis} PIs, "
                f"{self.num_pos} POs, {self.gate_count()} gates)")
