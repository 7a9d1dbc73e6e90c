"""FBDT design-choice ablations (DESIGN.md section 5).

- Levelized (BFS, the paper's choice) vs depth-first tree exploration
  under a budget: BFS spreads the budget evenly over the space, so the
  timeout covers are more accurate.
- Exhaustive-threshold sweep: where trick 1 stops paying.
- Scalability: nodes and queries vs support width.
- Batched frontier expansion: oracle round-trips, rows and accuracy per
  tree on a 64-input netlist oracle, gated against the checked-in
  ``BENCH_fbdt_batched.json`` snapshot.

Standalone snapshot mode (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_fbdt.py --batched \
        --out BENCH_fbdt_batched.json
    PYTHONPATH=src python benchmarks/bench_fbdt.py --batched \
        --check BENCH_fbdt_batched.json
"""

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import one_shot
from repro.core.config import fast_config
from repro.core.fbdt import build_decision_tree, learn_output
from repro.oracle.eco import build_eco_netlist
from repro.oracle.function_oracle import FunctionOracle
from repro.oracle.netlist_oracle import NetlistOracle


def majority_oracle(width, num_pis=None):
    num_pis = num_pis or width + 2

    def fn(p):
        return (p[:, :width].sum(axis=1) * 2 > width).astype(np.uint8) \
            .reshape(-1, 1)

    return FunctionOracle(fn, [f"x{i}" for i in range(num_pis)], ["f"])


def _accuracy(cover, oracle, n=6000):
    rng = np.random.default_rng(0)
    pats = rng.integers(0, 2, (n, oracle.num_pis)).astype(np.uint8)
    return float((cover.evaluate(pats) == oracle.query(pats)[:, 0]).mean())


@pytest.mark.parametrize("levelized", [True, False])
def test_levelized_vs_depth_first_under_budget(benchmark, levelized):
    """The paper: 'it is more beneficial to explore the tree evenly'."""
    width = 13
    oracle = majority_oracle(width)
    cfg = fast_config(exhaustive_threshold=0, levelized=levelized,
                      r_node=24, leaf_samples=32, max_tree_nodes=220)
    rng = np.random.default_rng(1)

    def run():
        return build_decision_tree(oracle, 0, list(range(width)), cfg,
                                   rng)

    cover = one_shot(benchmark, run)
    acc = _accuracy(cover, oracle)
    benchmark.extra_info.update(
        order="BFS" if levelized else "DFS",
        nodes=cover.stats.nodes_expanded,
        accuracy=round(acc * 100, 2))
    # Majority-13 under a 220-node budget is partial by design; the
    # head-to-head below asserts BFS >= DFS, here we only need sanity.
    assert acc > 0.55


def test_levelized_beats_dfs_on_budgeted_majority(benchmark):
    """Direct head-to-head with identical budgets."""
    width = 13

    def accuracy_for(levelized):
        oracle = majority_oracle(width)
        cfg = fast_config(exhaustive_threshold=0, levelized=levelized,
                          r_node=24, leaf_samples=32, max_tree_nodes=220)
        cover = build_decision_tree(oracle, 0, list(range(width)), cfg,
                                    np.random.default_rng(2))
        return _accuracy(cover, oracle)

    def run():
        return accuracy_for(True), accuracy_for(False)

    bfs, dfs = one_shot(benchmark, run)
    benchmark.extra_info.update(bfs_acc=round(bfs * 100, 2),
                                dfs_acc=round(dfs * 100, 2))
    # BFS spreads the node budget evenly; DFS burns it down one branch.
    assert bfs >= dfs - 0.02


@pytest.mark.parametrize("threshold", [0, 8, 12])
def test_exhaustive_threshold_sweep(benchmark, threshold):
    """Trick-1 knob: exhaustion cost vs tree cost at |S'| = 11."""
    width = 11
    oracle = majority_oracle(width)
    cfg = fast_config(exhaustive_threshold=threshold, r_node=24,
                      leaf_samples=48)
    rng = np.random.default_rng(3)

    def run():
        oracle.reset_query_count()
        return learn_output(oracle, 0, list(range(width)), cfg, rng)

    cover = one_shot(benchmark, run)
    acc = _accuracy(cover, oracle)
    benchmark.extra_info.update(threshold=threshold,
                                queries=oracle.query_count,
                                accuracy=round(acc * 100, 2),
                                exhausted=cover.stats.exhausted)
    if threshold >= width:
        assert acc == 1.0


@pytest.mark.parametrize("width", [6, 10, 14])
def test_tree_scaling_with_support(benchmark, width):
    oracle = majority_oracle(width, num_pis=width)
    cfg = fast_config(exhaustive_threshold=0, r_node=24, leaf_samples=32,
                      max_tree_nodes=4096)
    rng = np.random.default_rng(4)

    def run():
        oracle.reset_query_count()
        return build_decision_tree(oracle, 0, list(range(width)), cfg,
                                   rng, deadline=time.monotonic() + 10)

    cover = one_shot(benchmark, run)
    benchmark.extra_info.update(width=width,
                                nodes=cover.stats.nodes_expanded,
                                queries=oracle.query_count)


# -- batched frontier: round-trips and wall-clock per tree --------------------

# The benchmark oracle is a hidden 64-PI netlist (per-call simulation
# cost amortizes honestly, unlike a trivial lambda), learned as a deep
# tree: in-tree tabulation off, so the oracle traffic is exactly the
# level-by-level probe/split pattern the batched engine fuses.
BATCHED_CALLS_TOLERANCE = 0.10


def batched_case_oracle(seed=11):
    """The gated 64-input case: one dense cone over 14 of 64 PIs."""
    net = build_eco_netlist(64, 1, seed=seed, support_low=14,
                            support_high=14, gates_per_output=300)
    oracle = NetlistOracle(net)
    support = sorted(oracle.pi_names.index(name)
                     for name in net.structural_support(0))
    return oracle, support


def run_batched_bench() -> dict:
    """One level-batched tree on the gated case."""
    oracle, support = batched_case_oracle()
    cfg = fast_config(exhaustive_threshold=0,
                      subtree_exhaustive_threshold=0)
    started = time.perf_counter()
    cover = build_decision_tree(oracle, 0, support, cfg,
                                np.random.default_rng(7))
    wall = time.perf_counter() - started
    calls, rows = oracle.query_calls, oracle.query_count
    rng = np.random.default_rng(0)
    pats = rng.integers(0, 2, (6000, 64)).astype(np.uint8)
    acc = float((cover.evaluate(pats) == oracle.query(pats)[:, 0]).mean())
    return {"batched": {
        "oracle_calls": calls,
        "oracle_rows": rows,
        "wall_s": round(wall, 4),
        "nodes": cover.stats.nodes_expanded,
        "levels": cover.stats.levels,
        "accuracy": round(acc, 4),
    }}


def check_batched_gates(metrics: dict, snapshot: dict = None) -> list:
    """Acceptance gates, shared by pytest, __main__ and CI."""
    failures = []
    got = metrics["batched"]
    if got["accuracy"] < 0.8:
        failures.append(f"batched accuracy collapsed: {got['accuracy']}")
    if snapshot is not None:
        want = snapshot["metrics"]["batched"]
        calls = want["oracle_calls"]
        if abs(got["oracle_calls"] - calls) > BATCHED_CALLS_TOLERANCE * calls:
            failures.append(
                f"oracle round-trips per tree regressed vs snapshot: "
                f"{got['oracle_calls']} vs {calls} "
                f"(±{BATCHED_CALLS_TOLERANCE * 100:.0f}%)")
        # Rows and accuracy are deterministic per seed: any move means
        # the tree itself changed.
        for key in ("oracle_rows", "accuracy"):
            if got[key] != want[key]:
                failures.append(f"batched {key} differs from snapshot: "
                                f"{got[key]} vs {want[key]}")
    return failures


def test_batched_frontier_round_trips(benchmark):
    metrics = one_shot(benchmark, run_batched_bench)
    benchmark.extra_info.update(
        batched_calls=metrics["batched"]["oracle_calls"],
        batched_rows=metrics["batched"]["oracle_rows"])
    failures = check_batched_gates(metrics)
    assert not failures, failures


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batched", action="store_true",
                        help="run the batched-frontier case")
    parser.add_argument("--out", metavar="PATH",
                        help="write the snapshot JSON here")
    parser.add_argument("--check", metavar="PATH",
                        help="gate against an existing snapshot "
                             "(±10%% on oracle round-trips per tree, "
                             "rows and accuracy exact)")
    args = parser.parse_args()
    if not args.batched:
        parser.error("only --batched is supported standalone; the "
                     "ablations need pytest-benchmark")
    snapshot = None
    if args.check:
        with open(args.check) as handle:
            snapshot = json.load(handle)
    metrics = run_batched_bench()
    failures = check_batched_gates(metrics, snapshot)
    out = {"bench": "fbdt_batched", "gates_passed": not failures,
           "failures": failures, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"written to {args.out}", end="; ")
    got = metrics["batched"]
    print(f"calls {got['oracle_calls']}, rows {got['oracle_rows']}, "
          f"accuracy {got['accuracy']}, wall {got['wall_s']}s"
          + ("" if not failures else f"; FAILURES: {failures}"))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
