"""Tests for the Lawson–Hanson NNLS reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.optimize import nnls_active_set


def random_problem(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rows, cols))
    x_true = np.maximum(rng.normal(size=cols), 0.0)
    b = A @ x_true
    return A, b, x_true


class TestActiveSet:
    def test_recovers_nonnegative_solution(self):
        A, b, x_true = random_problem(30, 10, seed=1)
        result = nnls_active_set(A, b)
        assert np.all(result.x >= 0)
        assert result.residual_norm < 1e-8

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            nnls_active_set(np.ones((3, 2)), np.ones(4))
        with pytest.raises(SolverError):
            nnls_active_set(np.ones(3), np.ones(3))
