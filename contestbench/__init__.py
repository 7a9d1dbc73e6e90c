"""Contest-suite benchmark for the logic regressor.

``python3 contestbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` learns a fixed set of Table II cases, checks every learned
circuit against its golden netlist and prints the metrics described in
``contestbench/README.md``.
"""
