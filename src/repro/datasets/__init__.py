"""Reference data sets: Europe-like, America-like, Abilene and small test scenarios.

The real Global Crossing measurements are proprietary; these deterministic
synthetic scenarios match the statistics the paper reports (see the module
documentation of :mod:`repro.datasets.backbone` and DESIGN.md for the full
substitution argument).  The Abilene scenario uses the real (public) 2004
Internet2 topology with synthetic traffic, adding a third, structurally
different network to the evaluation mix.
"""

from repro.datasets.backbone import (
    DEFAULT_SEED,
    abilene_scenario,
    america_scenario,
    europe_scenario,
    large_scenario,
    small_scenario,
)
from repro.datasets.scenarios import MeasuredScenario, Scenario

__all__ = [
    "Scenario",
    "MeasuredScenario",
    "europe_scenario",
    "america_scenario",
    "abilene_scenario",
    "small_scenario",
    "large_scenario",
    "DEFAULT_SEED",
]
