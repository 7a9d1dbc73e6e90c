"""One set-up of a workload in a fresh interpreter, timed.

Run by ``run.py``: imports ``repro``, builds the workload's golden
netlists and their oracles, and prints the elapsed wall seconds.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    import repro  # noqa: F401 - the import is part of what is timed
    from repro.oracle.suite import build_case

    from contestbench.workloads import WORKLOADS

    oracles = [build_case(cid).oracle()
               for cid in WORKLOADS[sys.argv[1]].cases]
    print(time.perf_counter() - start)
