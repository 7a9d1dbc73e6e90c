"""Pass bookkeeping, the output check and metric naming."""

import json
import re
from pathlib import Path

import pytest

from contestbench import run
from contestbench.scoring import Scorer
from contestbench.tracing import layer_metrics

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class _Result:
    def __init__(self, netlist, queries=1):
        self.netlist = netlist
        self.queries = queries


@pytest.fixture(scope="module")
def case16():
    from repro.oracle.suite import build_case
    return build_case("case_16")


def test_stub_with_wrong_interface_is_counted_failed(case16):
    from repro.network.netlist import Netlist

    def wrong_interface(case, oracle):
        net = Netlist("stub")
        pis = [net.add_pi(name) for name in oracle.pi_names]
        for k, name in enumerate(oracle.po_names):
            net.add_po(f"renamed_{name}", pis[k % len(pis)])
        return _Result(net)

    p = run.run_pass([case16], wrong_interface, Scorer(7))
    assert p.failed == 1
    assert "names differ" in p.cases[0].failure


def test_stub_that_raises_is_counted_failed(case16):
    def boom(case, oracle):
        raise RuntimeError("no circuit")

    p = run.run_pass([case16, case16], boom, Scorer(7))
    assert p.failed == 2 and p.totals()["accuracy_mean"] == 0.0
    assert "RuntimeError" in p.cases[0].failure


def test_golden_circuit_passes_and_scores_exact(case16):
    def oracle_reader(case, oracle):
        return _Result(case.golden, queries=5)

    p = run.run_pass([case16], oracle_reader, Scorer(7))
    assert p.failed == 0
    totals = p.totals()
    assert totals["accuracy_mean"] == 1.0
    assert totals["contest_bar_frac"] == 1.0
    assert totals["billed_rows"] == 5
    assert totals["gates"] == case16.golden.gate_count()


def test_template_case_below_exact_fails(case16):
    from repro.network.netlist import Netlist

    def constant_zero(case, oracle):
        net = Netlist("zero")
        for name in oracle.pi_names:
            net.add_pi(name)
        for name in oracle.po_names:
            net.add_po(name, net.add_const0())
        return _Result(net)

    p = run.run_pass([case16], constant_zero, Scorer(7))
    assert p.failed == 1 and "not exact" in p.cases[0].failure


def test_learn_time_is_rescaled_by_the_marker_around_each_case():
    ref = run.REFERENCE_CALIB_S
    p = run.PassResult([run.CaseRecord("case_1", 2.0, calib_s=2 * ref),
                        run.CaseRecord("case_7", 3.0, calib_s=ref / 2)])
    assert p.wall_s == pytest.approx(5.0)
    assert p.learn_s == pytest.approx(1.0 + 6.0)


def test_disagreeing_passes_exit_non_zero(capsys):
    a = run.PassResult([run.CaseRecord("case_1", 1.0, gates=10)])
    b = run.PassResult([run.CaseRecord("case_1", 1.0, gates=11)])
    assert run.finish([a, a], {"learn_s": 1.0}, {"learn_s": "s"}) == 0
    assert run.finish([a, b], {"learn_s": 1.0}, {"learn_s": "s"}) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_every_metric_name_is_well_formed():
    names = list(run.END_TO_END_UNITS) + list(run.REPORTED_ONLY_UNITS)
    names += list(layer_metrics([], [], 0.0))
    names += ["traced_learn_s", "untraced_learn_s", "trace_overhead_s"]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$",
                        run.END_TO_END_UNITS.get(name)
                        or run.REPORTED_ONLY_UNITS.get(name)
                        or run.layer_unit(name))


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in spec["end_to_end"]] \
        == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    per_layer = set(layer_metrics([], [], 0.0)) | {
        "traced_learn_s", "untraced_learn_s", "trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    from contestbench.workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_program_caches_are_emptied_before_each_learn(case16):
    from importlib import import_module

    cuts = import_module("repro.aig.cuts")
    npn = import_module("repro.logic.npn")
    rewrite = import_module("repro.synth.rewrite")
    caches = [cuts._EXPAND_CACHE, npn._FACT_CACHE, npn._TRANSFORMS_CACHE,
              rewrite._SYNTH_CACHE, rewrite._EXACT_CACHE]
    seen = []

    def reader(case, oracle):
        seen.append([len(c) for c in caches])
        for c in caches:
            c["stale"] = None
        return _Result(case.golden)

    run.run_pass([case16, case16], reader, Scorer(7))
    assert seen == [[0] * 5, [0] * 5]
    assert {"repro.synth.rewrite._SYNTH_CACHE",
            "repro.aig.cuts._EXPAND_CACHE"} <= set(run.clear_program_caches())
