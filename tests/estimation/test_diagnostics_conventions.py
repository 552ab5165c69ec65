"""Diagnostics naming conventions across every registered estimator.

The telemetry layer folds scalar diagnostics into span attributes under
canonical names — ``iterations``, ``converged``, ``residual_norm`` — so
traces and summary rollups compare methods on one vocabulary.  The
in-tree estimators must emit those canonical keys directly; the historic
spellings (``solver_iterations``, ``solver_converged``,
``link_residual``) are banned, and nothing translates them any more: a
result carrying one would put it on the trace under that name, and the
supervisor's ``require_convergence`` reads ``converged`` only.

The test is total over :func:`available_estimators`: registering a new
method without declaring its diagnostics contract here fails the suite.
"""

from __future__ import annotations

import warnings

import pytest

from repro.estimation.registry import available_estimators, get_estimator

FORBIDDEN_ALIASES = ("solver_iterations", "solver_converged", "link_residual")

#: name -> (constructor params, problem kind, required canonical keys)
CONVENTIONS = {
    "bayesian": (
        {},
        "snapshot",
        {"iterations", "converged", "residual_norm", "optimality"},
    ),
    "cao": ({}, "series", {"iterations", "converged", "optimality"}),
    "entropy": (
        {},
        "snapshot",
        {"iterations", "converged", "residual_norm", "optimality"},
    ),
    "fanout": (
        {},
        "series",
        {"iterations", "converged", "residual_norm", "optimality"},
    ),
    "generalized-gravity": ({"peering_nodes": set()}, "snapshot", set()),
    "gravity": ({}, "snapshot", set()),
    "kl-projection": ({}, "snapshot", {"iterations", "converged"}),
    "kruithof": ({}, "snapshot", {"iterations", "converged"}),
    "supervised": (
        {"primary": "tomogravity"},
        "snapshot",
        {"iterations", "converged", "residual_norm", "optimality"},
    ),
    "tomogravity": (
        {},
        "snapshot",
        {"iterations", "converged", "residual_norm", "optimality"},
    ),
    "vardi": ({}, "series", {"iterations", "converged", "optimality"}),
    "worst-case-bounds": ({}, "snapshot", set()),
}


def test_every_registered_estimator_has_a_declared_convention():
    assert set(available_estimators()) == set(CONVENTIONS)


@pytest.mark.parametrize("name", sorted(CONVENTIONS))
def test_canonical_diagnostics_keys(name, small_scenario_session):
    params, kind, required = CONVENTIONS[name]
    estimator = get_estimator(name, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if kind == "series":
            result = estimator.estimate_series(
                small_scenario_session.series_problem()
            )
        else:
            result = estimator.estimate(small_scenario_session.snapshot_problem())
    diagnostics = result.diagnostics
    for alias in FORBIDDEN_ALIASES:
        assert alias not in diagnostics, (
            f"{name} emits legacy diagnostics key {alias!r}; use the "
            f"canonical spelling"
        )
    for key in required:
        assert key in diagnostics, f"{name} is missing canonical key {key!r}"
    if "converged" in diagnostics:
        assert isinstance(diagnostics["converged"], bool)
    if "iterations" in diagnostics:
        assert float(diagnostics["iterations"]) == int(diagnostics["iterations"])
    if "optimality" in diagnostics:
        assert isinstance(diagnostics["optimality"], float)
        assert diagnostics["optimality"] >= 0.0
