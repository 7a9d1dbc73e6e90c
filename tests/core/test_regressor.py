"""Integration tests for the full five-step LogicRegressor pipeline."""

import numpy as np
import pytest

from repro.core.config import RegressorConfig, fast_config
from repro.core.regressor import LogicRegressor
from repro.eval import accuracy, contest_test_patterns
from repro.network.builder import comparator
from repro.network.netlist import Netlist
from repro.oracle.data import build_data_netlist
from repro.oracle.diag import build_diag_netlist
from repro.oracle.eco import build_eco_netlist
from repro.oracle.neq import build_neq_netlist
from repro.oracle.netlist_oracle import NetlistOracle


def learn_and_score(net, cfg=None, total=6000):
    oracle = NetlistOracle(net)
    cfg = cfg or fast_config(time_limit=25.0)
    result = LogicRegressor(cfg).learn(oracle)
    pats = contest_test_patterns(net.num_pis, total=total,
                                 rng=np.random.default_rng(5))
    return result, accuracy(result.netlist, net, pats)


class TestConfig:
    def test_validation_catches_bad_settings(self):
        with pytest.raises(ValueError):
            RegressorConfig(r_support=0).validate()
        with pytest.raises(ValueError):
            RegressorConfig(leaf_epsilon=0.7).validate()
        with pytest.raises(ValueError):
            RegressorConfig(sampling_biases=(0.0,)).validate()
        with pytest.raises(ValueError):
            RegressorConfig(exhaustive_threshold=25).validate()

    def test_fast_config_is_valid(self):
        fast_config().validate()


class TestPipelineOnCategories:
    def test_diag_circuit_via_templates(self):
        net, _ = build_diag_netlist(3, seed=1, bus_width=6, num_buses=2,
                                    extra_pis=3)
        result, acc = learn_and_score(net)
        assert acc == 1.0
        assert result.methods_used().get("comparator-template", 0) == 3

    def test_data_circuit_via_linear_template(self):
        net, _ = build_data_netlist(seed=2, num_in_buses=2, in_width=6,
                                    out_width=8, extra_pis=2)
        result, acc = learn_and_score(net)
        assert acc == 1.0
        assert result.methods_used() == {"linear-template": 8}

    def test_eco_circuit_via_tree(self):
        net = build_eco_netlist(30, 4, seed=3, support_low=3,
                                support_high=7)
        result, acc = learn_and_score(net)
        assert acc == 1.0
        methods = result.methods_used()
        assert "linear-template" not in methods

    def test_neq_circuit_reasonable_accuracy(self):
        net = build_neq_netlist(24, 2, seed=4, support_low=5,
                                support_high=9, gates_per_cone=12)
        result, acc = learn_and_score(net)
        assert acc >= 0.97

    def test_small_support_exact(self):
        net = Netlist("small")
        pis = [net.add_pi(f"p{k}") for k in range(20)]
        net.add_po("f", net.add_and(pis[3], net.add_not(pis[11])))
        result, acc = learn_and_score(net)
        assert acc == 1.0
        assert result.gate_count <= 2


class TestPipelineProperties:
    def test_interface_matches_oracle(self):
        net = build_eco_netlist(15, 3, seed=6)
        oracle = NetlistOracle(net)
        result = LogicRegressor(fast_config(time_limit=15)).learn(oracle)
        assert result.netlist.pi_names == oracle.pi_names
        assert result.netlist.po_names == oracle.po_names

    def test_reports_cover_every_output(self):
        net = build_eco_netlist(15, 5, seed=7)
        result, _ = learn_and_score(net)
        assert len(result.reports) == 5
        assert [r.po_index for r in result.reports] == list(range(5))

    def test_preprocessing_off_still_learns_diag(self):
        """The ablation path: no templates, tree must carry DIAG."""
        net, _ = build_diag_netlist(1, seed=8, bus_width=4, num_buses=2,
                                    extra_pis=2)
        cfg = fast_config(time_limit=25.0, enable_preprocessing=False)
        result, acc = learn_and_score(net, cfg)
        assert "comparator-template" not in result.methods_used()
        assert acc >= 0.99

    def test_optimization_off(self):
        net = build_eco_netlist(12, 2, seed=9)
        cfg = fast_config(time_limit=15.0, enable_optimization=False)
        result, acc = learn_and_score(net, cfg)
        assert acc == 1.0

    def test_query_accounting(self):
        net = build_eco_netlist(12, 2, seed=10)
        oracle = NetlistOracle(net)
        result = LogicRegressor(fast_config(time_limit=10)).learn(oracle)
        assert result.queries == oracle.query_count
        assert result.queries > 0

    def test_deterministic_given_seed(self):
        net = build_eco_netlist(14, 3, seed=11)
        cfg = fast_config(time_limit=15.0, seed=123)
        r1 = LogicRegressor(cfg).learn(NetlistOracle(net))
        r2 = LogicRegressor(cfg).learn(NetlistOracle(net))
        pats = contest_test_patterns(14, total=2000,
                                     rng=np.random.default_rng(0))
        from repro.network.simulate import simulate
        assert (simulate(r1.netlist, pats)
                == simulate(r2.netlist, pats)).all()

    def test_constant_outputs(self):
        net = Netlist("const")
        net.add_pi("a")
        net.add_po("zero", net.add_const0())
        net.add_po("one", net.add_const1())
        result, acc = learn_and_score(net)
        assert acc == 1.0
        assert result.gate_count == 0


class TestMixedCircuit:
    def test_comparator_plus_random_logic(self):
        """One PO is a comparator, another is plain logic: templates fire
        only where they verify."""
        net = Netlist("mix")
        a = [net.add_pi(f"a[{i}]") for i in range(4)]
        b = [net.add_pi(f"b[{i}]") for i in range(4)]
        extra = net.add_pi("en")
        net.add_po("cmp", comparator(net, ">=", a, b))
        net.add_po("other", net.add_and(extra, net.add_xor(a[0], b[2])))
        result, acc = learn_and_score(net)
        assert acc == 1.0
        by_name = {r.po_name: r.method for r in result.reports}
        assert by_name["cmp"] == "comparator-template"
        assert by_name["other"] in ("exhaustive", "fbdt")
