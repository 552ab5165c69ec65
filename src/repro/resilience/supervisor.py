"""Supervised estimation: budgets, retries and declared fallback chains.

:class:`SupervisedEstimator` wraps any registered estimation method with
the failure policy a production deployment needs spelled out:

* a cooperative :class:`~repro.resilience.budget.SolverBudget` bounding
  each attempt by wall-clock time and/or solver iterations (the
  link-space Newton solves, the FISTA projected gradient and the IPF
  scaling loops all tick the budget);
* bounded retry of the primary method with deterministically perturbed
  warm starts;
* a declared fallback chain (e.g. ``entropy → tomogravity → gravity``)
  walked until some method returns an estimate.

Whatever succeeds is returned under the supervisor's own method name with
a structured :class:`~repro.resilience.report.DegradationReport` in the
diagnostics, so a degraded result *says so* instead of dying or lying.
The report is computed deterministically inside the estimation call, which
keeps serial and parallel experiment records identical.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from typing import ContextManager, Mapping, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.errors import BudgetExceededError, EstimationError, SolverError
from repro.estimation.base import (
    EstimationProblem,
    EstimationResult,
    Estimator,
    SeriesEstimationResult,
)
from repro.estimation.registry import get_estimator, register
from repro.resilience.budget import SolverBudget
from repro.resilience.report import (
    DegradationEvent,
    DegradationReport,
    FailureReason,
)

__all__ = ["SupervisedEstimator"]


@register()
class SupervisedEstimator(Estimator):
    """Run a primary method under supervision, falling back down a chain.

    Parameters
    ----------
    primary:
        Registry name of the method whose estimate is wanted.
    fallbacks:
        Registry names tried in order when the primary (and its retries)
        fail.  The defaults end in ``"gravity"``, which needs no solver and
        therefore cannot time out.
    primary_params / fallback_params:
        Constructor keyword arguments for the primary, and a
        ``name -> kwargs`` mapping for fallbacks.
    max_seconds / max_iterations:
        Per-attempt :class:`~repro.resilience.budget.SolverBudget`
        allowance; ``None`` leaves that axis unbounded (no budget at all
        when both are ``None``).
    retries:
        Extra attempts of the *primary* after its first failure, each
        passing a deterministically perturbed ``start`` to ``estimate``
        (methods that ignore ``start``, and series retries, simply retry
        unperturbed).
    retry_seed:
        Seeds the warm-start perturbations, so retry behaviour is
        reproducible and identical across serial and parallel runs.
    require_convergence:
        Treat a result whose diagnostics report ``converged: False``
        as a failure (retry, then fall back) instead of returning it.
    inject_failures:
        Chaos knob: force the first N attempts to fail with a deterministic
        :class:`~repro.errors.EstimationError` before the method even runs.
        Used by the fault-injection suite to exercise the whole chain.
    """

    name = "supervised"

    def __init__(
        self,
        primary: str = "tomogravity",
        fallbacks: Sequence[str] = ("gravity",),
        primary_params: Optional[Mapping[str, object]] = None,
        fallback_params: Optional[Mapping[str, Mapping[str, object]]] = None,
        max_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
        retries: int = 1,
        retry_seed: int = 0,
        require_convergence: bool = False,
        inject_failures: int = 0,
    ) -> None:
        if retries < 0:
            raise EstimationError("retries must be non-negative")
        if inject_failures < 0:
            raise EstimationError("inject_failures must be non-negative")
        self.primary = str(primary)
        self.fallbacks = tuple(fallbacks)
        self.primary_params = dict(primary_params or {})
        self.fallback_params = {
            name: dict(params) for name, params in (fallback_params or {}).items()
        }
        self.max_seconds = max_seconds
        self.max_iterations = max_iterations
        self.retries = int(retries)
        self.retry_seed = int(retry_seed)
        self.require_convergence = bool(require_convergence)
        self.inject_failures = int(inject_failures)

    # ------------------------------------------------------------------
    def _budget(self) -> ContextManager:
        if self.max_seconds is None and self.max_iterations is None:
            return nullcontext()
        return SolverBudget(
            max_seconds=self.max_seconds, max_iterations=self.max_iterations
        )

    def _perturbed_start(
        self, problem: EstimationProblem, attempt: int
    ) -> np.ndarray:
        """A deterministic warm start for retry ``attempt`` (1-based)."""
        rng = np.random.default_rng((self.retry_seed, attempt))
        scale = float(np.sum(problem.snapshot)) / max(problem.num_pairs, 1)
        scale = max(scale, 1e-9)
        return rng.uniform(0.5, 1.5, size=problem.num_pairs) * scale

    def _run(
        self, problem: EstimationProblem, series: bool
    ) -> tuple[object, DegradationReport]:
        steps: list[tuple[str, dict, int]] = [
            (self.primary, self.primary_params, self.retries)
        ]
        steps.extend(
            (name, self.fallback_params.get(name, {}), 0) for name in self.fallbacks
        )

        events: list[DegradationEvent] = []
        attempts = 0
        for name, params, retries in steps:
            if name != self.primary:
                # Hop onto the next fallback of the declared chain.
                telemetry.counter_inc("supervisor.chain_hops")
                telemetry.add_event("supervisor.chain_hop", method=name)
            try:
                estimator = get_estimator(name, **params)
            except (EstimationError, TypeError) as exc:
                attempts += 1
                telemetry.counter_inc("supervisor.attempts")
                telemetry.counter_inc("supervisor.construct_failures")
                telemetry.add_event("supervisor.construct_failure", method=name)
                reason = FailureReason.from_exception(exc, spec=name, stage="construct")
                events.append(
                    DegradationEvent(
                        stage="construct",
                        kind=reason.exception,
                        detail=reason.describe(),
                    )
                )
                continue
            for attempt in range(retries + 1):
                attempts += 1
                telemetry.counter_inc("supervisor.attempts")
                start = None
                if attempt > 0:
                    start = self._perturbed_start(problem, attempt)
                    telemetry.counter_inc("supervisor.retries")
                    telemetry.add_event("supervisor.retry", method=name, attempt=attempt)
                    events.append(
                        DegradationEvent(
                            stage="retry",
                            kind="perturbed-warm-start",
                            detail=f"{name}: retry {attempt} of {retries}",
                        )
                    )
                try:
                    if attempts <= self.inject_failures:
                        raise EstimationError(
                            f"injected failure on attempt {attempts}"
                        )
                    with self._budget():
                        result = (
                            estimator.estimate_series(problem)
                            if series
                            else estimator.estimate(problem, start=start)
                        )
                    converged = result.diagnostics.get("converged")
                    if self.require_convergence and converged is False:
                        raise EstimationError(
                            f"method {name!r} reported converged=False"
                        )
                except (EstimationError, SolverError) as exc:
                    stage = (
                        "budget" if isinstance(exc, BudgetExceededError) else "estimate"
                    )
                    reason = FailureReason.from_exception(exc, spec=name, stage=stage)
                    detail = reason.describe()
                    if isinstance(exc, BudgetExceededError):
                        # The exception message already carries the
                        # structured accounting (ticks, limits, and elapsed
                        # seconds for time trips); wall-clock is kept out of
                        # iteration-trip details so serial and parallel
                        # degradation records stay identical.
                        telemetry.counter_inc("supervisor.budget_trips")
                        telemetry.add_event(
                            "supervisor.budget_trip",
                            method=name,
                            **{
                                key: value
                                for key, value in exc.budget_details().items()
                                if value is not None
                            },
                        )
                    events.append(
                        DegradationEvent(
                            stage=stage, kind=reason.exception, detail=detail
                        )
                    )
                    continue
                if name != self.primary:
                    telemetry.counter_inc("supervisor.fallbacks")
                    telemetry.add_event("supervisor.fallback", used=name)
                telemetry.histogram_observe("supervisor.attempts_per_call", attempts)
                report = DegradationReport(
                    requested=self.primary,
                    used=name,
                    attempts=attempts,
                    events=tuple(events),
                )
                return result, report

        summary = "; ".join(event.detail for event in events) or "no attempts ran"
        raise EstimationError(
            f"supervised estimation failed after {attempts} attempts "
            f"(primary {self.primary!r}, fallbacks {list(self.fallbacks)}): {summary}"
        )

    def _finish_diagnostics(self, result, report: DegradationReport) -> dict:
        if report.degraded:
            warnings.warn(
                f"supervised estimation degraded: {report.describe()}",
                RuntimeWarning,
                stacklevel=3,
            )
        diagnostics = dict(result.diagnostics)
        diagnostics["degradation"] = report.to_dict()
        return diagnostics

    # ------------------------------------------------------------------
    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Run the supervised chain on a snapshot problem.

        ``start`` is ignored: the first attempt of every method runs cold,
        and retries start from the seeded perturbations.
        """
        result, report = self._run(problem, series=False)
        return EstimationResult(
            estimate=result.estimate,
            method=self.name,
            diagnostics=self._finish_diagnostics(result, report),
        )

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Run the supervised chain on a series problem."""
        result, report = self._run(problem, series=True)
        return SeriesEstimationResult(
            estimates=result.estimates,
            pairs=result.pairs,
            method=self.name,
            diagnostics=self._finish_diagnostics(result, report),
        )
