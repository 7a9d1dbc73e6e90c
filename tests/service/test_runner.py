"""The job runner's translation of a job spec into a learner config."""

from dataclasses import fields

import pytest

from repro.core.config import RobustnessConfig
from repro.service.runner import _build_config


@pytest.mark.parametrize("profile", ["default", "fast"])
def test_built_robustness_config_sets_only_declared_fields(
        make_spec, spool, profile):
    # A write to an undeclared attribute (a misspelt or long-gone knob)
    # succeeds silently on a plain dataclass and configures nothing.
    config = _build_config(make_spec(profile=profile), spool)
    declared = {f.name for f in fields(RobustnessConfig)}
    assert set(vars(config.robustness)) <= declared
