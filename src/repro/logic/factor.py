"""Algebraic factoring of SOP covers into AND/OR expression trees.

The learned SOP of Sec. IV-D is two-level; building it literally wastes
gates.  Quick factoring (the classic ``quick_factor`` of MIS/SIS) extracts
the most common literal as a divisor and recurses, turning e.g.
``ab | ac | ad`` into ``a(b | c | d)``.  The factored expression is what the
circuit builder and the refactor/collapse passes actually instantiate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.logic.cube import Cube
from repro.logic.sop import Sop


@dataclass(frozen=True)
class FactoredNode:
    """A node of a factored expression tree.

    ``kind`` is one of ``"lit"``, ``"and"``, ``"or"``, ``"const0"``,
    ``"const1"``.  For literals, ``var``/``phase`` identify the literal; for
    gates, ``children`` holds the operand subtrees.
    """

    kind: str
    var: int = -1
    phase: int = 1
    children: Tuple["FactoredNode", ...] = ()

    def literal_count(self) -> int:
        if self.kind == "lit":
            return 1
        return sum(c.literal_count() for c in self.children)

    def __str__(self) -> str:
        if self.kind == "const0":
            return "0"
        if self.kind == "const1":
            return "1"
        if self.kind == "lit":
            return f"{'' if self.phase else '!'}x{self.var}"
        sep = " & " if self.kind == "and" else " | "
        return "(" + sep.join(str(c) for c in self.children) + ")"


def _lit(var: int, phase: int) -> FactoredNode:
    return FactoredNode("lit", var=var, phase=phase)


def _and(children: List[FactoredNode]) -> FactoredNode:
    flat: List[FactoredNode] = []
    for c in children:
        if c.kind == "const1":
            continue
        if c.kind == "const0":
            return FactoredNode("const0")
        if c.kind == "and":
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return FactoredNode("const1")
    if len(flat) == 1:
        return flat[0]
    return FactoredNode("and", children=tuple(flat))


def _or(children: List[FactoredNode]) -> FactoredNode:
    flat: List[FactoredNode] = []
    for c in children:
        if c.kind == "const0":
            continue
        if c.kind == "const1":
            return FactoredNode("const1")
        if c.kind == "or":
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return FactoredNode("const0")
    if len(flat) == 1:
        return flat[0]
    return FactoredNode("or", children=tuple(flat))


def factor(sop: Sop) -> FactoredNode:
    """Quick-factor a cover into an expression tree."""
    return _factor_cubes(list(sop.cubes))


def _factor_cubes(cubes: List[Cube]) -> FactoredNode:
    if not cubes:
        return FactoredNode("const0")
    if any(c.is_empty() for c in cubes):
        return FactoredNode("const1")
    if len(cubes) == 1:
        return _and([_lit(v, p) for v, p in cubes[0].literals()])
    best = _most_common_literal(cubes)
    if best is None:
        # No shared literal at all: plain OR of cube ANDs.
        return _or([_factor_cubes([c]) for c in cubes])
    var, phase = best
    quotient: List[Cube] = []
    remainder: List[Cube] = []
    for cube in cubes:
        if cube.phase(var) == phase:
            quotient.append(cube.without(var))
        else:
            remainder.append(cube)
    factored_q = _factor_cubes(quotient)
    term = _and([_lit(var, phase), factored_q])
    if not remainder:
        return term
    return _or([term, _factor_cubes(remainder)])


def _most_common_literal(cubes: List[Cube]) -> Optional[Tuple[int, int]]:
    counts = {}
    for cube in cubes:
        for var, phase in cube.literals():
            counts[(var, phase)] = counts.get((var, phase), 0) + 1
    if not counts:
        return None
    (var, phase), count = max(counts.items(),
                              key=lambda kv: (kv[1], -kv[0][0]))
    if count < 2:
        return None
    return var, phase


def factored_literal_count(sop: Sop) -> int:
    """Literal count of the quick-factored form (a synthesis cost proxy)."""
    return factor(sop).literal_count()
