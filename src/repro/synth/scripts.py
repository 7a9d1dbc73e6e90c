"""Optimization scripts: dc2 / resyn3 / compress2rs-style pass sequences.

The paper's postprocessing (Sec. IV-E) runs ABC's ``dc2``, ``rewrite`` and
``resyn3`` "with higher probability than ``compress2rs``", performs
``collapse`` once, and caps everything at 60 seconds.  :func:`optimize_aig`
reproduces that policy over our passes: randomized script selection with the
same bias, a single collapse attempt, a wall-clock budget, and keep-best
semantics on the contest gate-count metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.aig.aig import Aig
from repro.network.netlist import Netlist
from repro.obs import context as obs
from repro.synth.balance import balance
from repro.synth.collapse import collapse
from repro.synth.fraig import fraig
from repro.synth.refactor import refactor
from repro.synth.rewrite import rewrite
from repro.synth.rebuild import copy_strash


def _run_script(aig: Aig, passes, deadline: Optional[float]) -> Aig:
    """Run a pass list, stopping (gracefully) when the deadline passes."""
    for p in passes:
        if deadline is not None and time.monotonic() >= deadline:
            break
        aig = p(aig)
    return aig


def dc2(aig: Aig, deadline: Optional[float] = None) -> Aig:
    """balance; rewrite; refactor; balance; rewrite (ABC dc2 skeleton)."""
    return _run_script(aig, [balance, rewrite, refactor, balance, rewrite],
                       deadline)


def resyn3(aig: Aig, deadline: Optional[float] = None) -> Aig:
    """balance; refactor(large); balance; rewrite (resyn3 skeleton)."""
    return _run_script(
        aig,
        [balance, lambda a: refactor(a, max_leaves=12), balance, rewrite],
        deadline)


def compress2rs(aig: Aig, rng: Optional[np.random.Generator] = None,
                deadline: Optional[float] = None) -> Aig:
    """The heavy script: interleaved balance/rewrite/refactor plus fraig."""
    return _run_script(
        aig,
        [balance, rewrite, refactor, lambda a: fraig(a, rng=rng), balance,
         rewrite],
        deadline)


_SCRIPTS: List[Tuple[str, float]] = [
    # (script name, selection weight) — dc2/rewrite/resyn3 favoured over
    # compress2rs, per the paper.
    ("dc2", 0.3),
    ("rewrite", 0.25),
    ("resyn3", 0.3),
    ("compress2rs", 0.15),
]


@dataclass
class OptimizeReport:
    """What the optimizer did and achieved."""

    initial_size: int
    final_size: int
    scripts_run: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def reduction(self) -> float:
        if self.initial_size == 0:
            return 0.0
        return 1.0 - self.final_size / self.initial_size


def optimize_aig(aig: Aig, time_limit: float = 60.0,
                 rng: Optional[np.random.Generator] = None,
                 max_iterations: int = 8,
                 collapse_support: int = 14) -> Tuple[Aig, OptimizeReport]:
    """Randomized keep-best optimization under a wall-clock budget."""
    if rng is None:
        rng = np.random.default_rng(2019)
    start = time.monotonic()
    best = copy_strash(aig)
    report = OptimizeReport(initial_size=best.size(),
                            final_size=best.size())
    report.scripts_run.append("strash")
    current = best

    def out_of_time() -> bool:
        return time.monotonic() - start > time_limit

    # Heavy collapse once (as in the paper), then the randomized loop.
    if not out_of_time():
        try:
            with obs.span("synth.script", script="collapse"):
                candidate = collapse(current, max_support=collapse_support)
            report.scripts_run.append("collapse")
            obs.count("synth.scripts", script="collapse")
            if candidate.size() < best.size():
                best = candidate
                current = candidate
        except (ValueError, MemoryError):
            pass
    names = [s for s, _ in _SCRIPTS]
    weights = np.array([w for _, w in _SCRIPTS])
    weights = weights / weights.sum()
    deadline = start + time_limit
    for _ in range(max_iterations):
        if out_of_time():
            break
        script = str(rng.choice(names, p=weights))
        with obs.span("synth.script", script=script):
            if script == "dc2":
                candidate = dc2(current, deadline=deadline)
            elif script == "rewrite":
                candidate = _run_script(current, [balance, rewrite],
                                        deadline)
            elif script == "resyn3":
                candidate = resyn3(current, deadline=deadline)
            else:
                candidate = compress2rs(current, rng=rng,
                                        deadline=deadline)
        report.scripts_run.append(script)
        obs.count("synth.scripts", script=script)
        if candidate.size() < best.size():
            best = candidate
        if candidate.size() <= current.size():
            current = candidate
        elif rng.random() < 0.25:
            current = candidate  # occasional uphill move
    # Final polish on small results: exact-rewrite + redundancy removal
    # (the don't-care-based resynthesis the paper's postprocessing cites).
    if best.size() <= 200 and not out_of_time():
        from repro.synth.redundancy import remove_redundancies

        with obs.span("synth.script", script="rewrite -x"):
            candidate = rewrite(best, exact=True)
        report.scripts_run.append("rewrite -x")
        obs.count("synth.scripts", script="rewrite -x")
        if candidate.size() < best.size():
            best = candidate
        if not out_of_time():
            with obs.span("synth.script", script="mfs"):
                candidate = remove_redundancies(best)
            report.scripts_run.append("mfs")
            obs.count("synth.scripts", script="mfs")
            if candidate.size() < best.size():
                best = candidate
    report.final_size = best.size()
    report.elapsed = time.monotonic() - start
    return best, report


def optimize_netlist(netlist: Netlist, time_limit: float = 60.0,
                     rng: Optional[np.random.Generator] = None,
                     max_iterations: int = 8
                     ) -> Tuple[Netlist, OptimizeReport]:
    """Gate-netlist front end: strash in, optimize, map back with XOR
    re-extraction, and keep whichever of (original, optimized) has the
    smaller contest gate count."""
    aig = Aig.from_netlist(netlist)
    best_aig, report = optimize_aig(aig, time_limit=time_limit, rng=rng,
                                    max_iterations=max_iterations)
    mapped = best_aig.to_netlist(name=netlist.name).cleaned()
    if mapped.gate_count() <= netlist.gate_count():
        report.final_size = mapped.gate_count()
        return mapped, report
    report.final_size = netlist.gate_count()
    return netlist, report
