"""Span arithmetic and entry-point patching."""

import importlib
import itertools
import sys

import pytest

from contestbench.tracing import (ENTRY_POINTS, Recorder, Span,
                                  layer_metrics, layer_self_times, patched,
                                  self_times)


def entry_point_objects():
    """Current binding of every entry point, by ``module:attr``."""
    out = {}
    for module_name, attr, _ in ENTRY_POINTS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = vars(obj)[part]
        out[f"{module_name}:{attr}"] = obj
    return out


def _span(id, parent, start, end, layer="x"):
    return Span(id, parent, f"s{id}", layer, "case_0", start, end)


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0, "learn"),
             _span(1, 0, 1.0, 3.0, "fbdt"),
             _span(2, 0, 4.0, 8.0, "synth"),
             _span(3, 2, 5.0, 6.0, "minimize")]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})
    assert layer_self_times(spans) == pytest.approx(
        {"learn": 4.0, "fbdt": 2.0, "synth": 3.0, "minimize": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0),
             _span(1, 0, 1.0, 5.0),
             _span(2, 0, 3.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_parent_and_never_negative():
    spans = [_span(0, None, 2.0, 6.0),
             _span(1, 0, 1.0, 4.0),
             _span(2, 0, 5.0, 9.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)
    spans = [_span(0, None, 0.0, 1.0), _span(1, 0, 0.0, 1.0)]
    assert self_times(spans)[0] == 0.0


def test_self_times_sum_to_root_duration():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 9.0),
             _span(2, 1, 2.0, 3.0), _span(3, 1, 3.0, 8.5),
             _span(4, 3, 4.0, 4.5)]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_recorder_nests_spans_and_rejects_misordered_close():
    rec = Recorder(clock=itertools.count().__next__)
    rec.case = "case_7"
    outer = rec.open("learn", "learn")
    with rec.span("inner", "fbdt") as inner:
        pass
    rec.close(outer)
    assert inner.parent == outer.id and outer.parent is None
    assert (outer.start, outer.end) == (0.0, 3.0)
    assert inner.case == "case_7"
    a = rec.open("a", "x")
    rec.open("b", "x")
    with pytest.raises(RuntimeError):
        rec.close(a)


def _wrappers_left():
    wrapped = {id(obj) for obj in entry_point_objects().values()}
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, "__wrapped__", None) is not None \
                    and attr in {a.split(".")[-1] for _, a, _ in
                                 ENTRY_POINTS} \
                    and id(value) not in wrapped:
                found.append(f"{name}.{attr}")
    return found


def test_patched_entry_points_are_restored_after_a_traced_learn():
    from repro import LogicRegressor, RegressorConfig
    from repro.oracle.suite import build_case

    import repro.core.regressor as regressor

    before = entry_point_objects()
    bound_before = regressor.identify_supports
    rec = Recorder()
    case = build_case("case_16")
    with patched(rec):
        during = entry_point_objects()
        assert all(during[k] is not before[k] for k in before)
        assert regressor.identify_supports is not bound_before
        rec.case = case.case_id
        with rec.span("learn", "learn"):
            result = LogicRegressor(RegressorConfig(
                time_limit=30, seed=1)).learn(case.oracle())
    after = entry_point_objects()
    assert all(after[k] is before[k] for k in before)
    assert regressor.identify_supports is bound_before
    assert not _wrappers_left()
    layers = {s.layer for s in rec.spans}
    assert {"learn", "templates", "synth", "bank", "oracle"} <= layers
    metrics = layer_metrics(rec.spans, [result], rec.spans[0].duration)
    assert metrics["oracle.rows"] == result.queries
    assert metrics["templates.calls"] > 0


def test_patches_are_restored_when_the_learn_raises():
    before = entry_point_objects()
    with pytest.raises(ZeroDivisionError):
        with patched(Recorder()):
            1 / 0
    assert entry_point_objects() == before


def test_retry_rows_the_memo_cannot_store_are_counted():
    import numpy as np

    from repro.oracle.suite import build_case
    from repro.robustness.retry import RetryingOracle

    inner = build_case("case_16").oracle()
    retry = RetryingOracle(inner, max_cache_rows=4)
    rows = np.unpackbits(np.arange(16, dtype=np.uint8)[:, None], axis=1)
    rows = np.pad(rows, ((0, 0), (0, inner.num_pis - 8)))
    rec = Recorder()
    with patched(rec):
        retry.query(rows[:10])      # 4 stored, 6 bypass the memo
        retry.query(rows[:12])      # memo full: 4 hits, 8 bypass
        retry.freeze_cache()
        retry.invalidate(rows[:1])
        retry.query(rows[:2])       # frozen: row 0 bypasses, row 1 hits
    metrics = layer_metrics(rec.spans, [], 0.0)
    assert metrics["retry.memo_bypass_rows"] == 6 + 8 + 1
    assert metrics["retry.memo_full_rows"] == 12
