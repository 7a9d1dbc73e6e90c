"""Golden circuits: whole learned netlists pinned byte for byte.

Five contest cases are learned at the contest benchmark's learner
settings (``time_limit=2700``, seed 2019, one job, sample bank on, two
retries, verify on).  No deadline binds at that budget, so the learned
BLIF, its gate count, the billed rows and the number of oracle calls
repeat exactly.  A change that should leave the learner's behaviour
alone (a refactor, a knob removal, a speed-up) must keep every value
here; a change that means to alter circuits updates them on purpose.
"""

import hashlib
import io
import sys

import pytest

from repro import LogicRegressor
from repro.core.config import ObsConfig, RegressorConfig, RobustnessConfig
from repro.network.blif import write_blif
from repro.oracle.suite import build_case

# case -> (sha256 of write_blif, gates, billed rows, oracle calls)
GOLDENS = {
    "case_4": ("c97bbf33488be4b2d579370f5c89b672"
               "ed704d21aa8bc9cccd37a5d8b944023b", 66, 39407, 17),
    "case_7": ("44107d09d33da07592c08175896c632e"
               "fff90688446b1b40db50c1e6f38ea9fe", 25, 30117, 15),
    "case_10": ("7abfafd45e83ec1c0a745a131fe27b19"
                "7ffc827a3ce8c763bd0a04bc18e5e3a5", 8, 24590, 17),
    "case_13": ("7c76ff7f6660722e20e391eb5a49da3c"
                "ab246ea68005449972832606c20b9c83", 39, 30223, 15),
    "case_16": ("fe8762775c1281fefa31507fba029a71"
                "fc02b3c8067af1342433536b07c7915d", 55, 2845, 24),
}


def _clear_program_caches():
    """Empty the process-wide ``*_CACHE`` memos of the loaded ``repro``
    modules, so the learn starts as cold as a fresh ``repro learn``
    whatever other tests ran in this process first."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


@pytest.mark.parametrize("case_id", sorted(GOLDENS))
def test_learned_circuit_matches_golden(case_id):
    digest, gates, billed, calls = GOLDENS[case_id]
    oracle = build_case(case_id).oracle()
    _clear_program_caches()
    config = RegressorConfig(
        time_limit=2700.0, seed=2019, jobs=1, enable_sample_bank=True,
        observability=ObsConfig(profile=False),
        robustness=RobustnessConfig(max_retries=2, verify=True))
    result = LogicRegressor(config).learn(oracle)
    blif = io.StringIO()
    write_blif(result.netlist, blif)
    assert (hashlib.sha256(blif.getvalue().encode()).hexdigest(),
            result.netlist.gate_count(), result.queries,
            oracle.query_calls) == (digest, gates, billed, calls)
