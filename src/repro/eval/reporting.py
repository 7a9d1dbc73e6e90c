"""Text-table rendering of experiment results (Table II style)."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.eval.harness import CaseResult


def format_table(results: Sequence[CaseResult],
                 include_paper: bool = True) -> str:
    """Render results grouped by case, learners as column groups.

    Mirrors Table II's layout: one row per case, a (size, accuracy, time)
    column triple per learner, with the paper's "Ours" reference columns
    appended when available.
    """
    learners: List[str] = []
    for r in results:
        if r.learner not in learners:
            learners.append(r.learner)
    by_case: Dict[str, Dict[str, CaseResult]] = {}
    case_order: List[str] = []
    for r in results:
        if r.case_id not in by_case:
            by_case[r.case_id] = {}
            case_order.append(r.case_id)
        by_case[r.case_id][r.learner] = r

    header = f"{'case':10s} {'type':5s} {'PI':>4s} {'PO':>4s}"
    for name in learners:
        header += f" | {name + ' size':>12s} {'acc%':>8s} {'time':>7s}"
    if include_paper:
        header += f" | {'paper size':>10s} {'paper acc%':>10s}"
    lines = [header, "-" * len(header)]
    for case_id in case_order:
        first = next(iter(by_case[case_id].values()))
        line = (f"{case_id:10s} {first.category:5s} {first.num_pis:4d} "
                f"{first.num_pos:4d}")
        for name in learners:
            r = by_case[case_id].get(name)
            if r is None:
                line += f" | {'-':>12s} {'-':>8s} {'-':>7s}"
            else:
                line += (f" | {r.size:12d} {r.accuracy * 100:8.3f} "
                         f"{r.time:7.1f}")
        if include_paper:
            ps = first.paper_size
            pa = first.paper_accuracy
            line += (f" | {ps if ps is not None else '-':>10} "
                     f"{f'{pa:.3f}' if pa is not None else '-':>10}")
        lines.append(line)
    return "\n".join(lines)


def summarize_by_category(results: Sequence[CaseResult]) -> str:
    """Per-category means per learner (the paper's narrative comparison)."""
    groups: Dict[tuple, List[CaseResult]] = {}
    for r in results:
        groups.setdefault((r.category, r.learner), []).append(r)
    lines = [f"{'type':6s} {'learner':18s} {'mean size':>10s} "
             f"{'mean acc%':>10s} {'pass(>=99.99%)':>15s}"]
    for (category, learner) in sorted(groups):
        rs = groups[(category, learner)]
        mean_size = sum(r.size for r in rs) / len(rs)
        mean_acc = sum(r.accuracy for r in rs) / len(rs) * 100
        passed = sum(1 for r in rs if r.meets_contest_bar)
        lines.append(f"{category:6s} {learner:18s} {mean_size:10.0f} "
                     f"{mean_acc:10.3f} {passed:8d}/{len(rs)}")
    return "\n".join(lines)
