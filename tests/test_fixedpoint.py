"""Tests for the retarded Volterra fixed-point engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflrw.fixedpoint import (
    NaNDetected,
    NoConvergence,
    PicardReport,
    picard_solve,
    picard_solve_with_halving,
)

from oracles import verify_retardation


def identity_functional(scale=1.0):
    return lambda x: (scale * x, None)


def ones(grid):
    return np.ones(grid.size)


class TestPicardSolve:
    def test_zero_functional_returns_f0(self):
        grid = np.linspace(0.0, 1.0, 11)
        f0 = 2.0 + np.sin(grid)
        solution, report, _ = picard_solve(
            f0, lambda x: (np.zeros(x.size), None), grid, tol=1e-12
        )
        assert np.array_equal(solution, f0)
        assert report.iterates == 1
        assert report.converged

    def test_exponential_oracle(self):
        # x' = x, x(0) = 1 on [0, 0.5]
        grid = np.linspace(0.0, 0.5, 501)
        solution, report, _ = picard_solve(
            ones(grid), identity_functional(), grid, tol=1e-12
        )
        assert report.converged
        error = np.max(np.abs(solution - np.exp(grid)))
        assert error < 1e-6

    def test_seed_reaches_the_same_fixed_point(self):
        grid = np.linspace(0.0, 0.5, 201)
        f0 = ones(grid)
        seed = 1.0 + 0.3 * np.cos(4.0 * grid)
        plain, _, _ = picard_solve(f0, identity_functional(), grid, tol=1e-12)
        seeded, report, _ = picard_solve(
            f0, identity_functional(), grid, tol=1e-12, x0=seed
        )
        assert report.converged
        assert np.max(np.abs(seeded - plain)) < 1e-11
        assert report.equation_residual < 2e-12

    def test_seed_grid_mismatch(self):
        grid = np.linspace(0.0, 0.5, 21)
        with pytest.raises(ValueError):
            picard_solve(
                ones(grid), identity_functional(), grid, x0=np.ones(31)
            )

    def test_contraction_ratios_decay(self):
        lam = 2.0
        grid = np.linspace(0.0, 0.4, 201)
        _, report, _ = picard_solve(
            ones(grid), identity_functional(lam), grid, tol=1e-13
        )
        ratios = report.contraction_ratios
        # coarse bound lam * span holds for every step
        assert all(r <= lam * 0.4 + 1e-12 for r in ratios)
        # the factorial gain makes ratios strictly decreasing past the start
        tail = [r for r in ratios[2:] if r > 0.0]
        assert all(b < a for a, b in zip(tail[:-1], tail[1:]))

    def test_equation_residual_below_twice_tol(self):
        grid = np.linspace(0.0, 0.4, 201)
        tol = 1e-11
        _, report, _ = picard_solve(
            ones(grid), identity_functional(1.7), grid, tol=tol
        )
        assert report.equation_residual is not None
        assert report.equation_residual < 2.0 * tol

    def test_no_convergence_carries_report(self):
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(NoConvergence) as excinfo:
            picard_solve(
                ones(grid), identity_functional(3.0), grid, tol=1e-12,
                max_iter=15,
            )
        report = excinfo.value.report
        assert isinstance(report, PicardReport)
        assert not report.converged
        assert report.iterates == 15
        assert len(report.residuals) == 15

    def test_nan_detected_with_node(self):
        grid = np.linspace(0.0, 1.0, 11)

        def poisoned(x):
            out = x.copy()
            out[5] = math.nan
            return out, None

        with pytest.raises(NaNDetected) as excinfo:
            picard_solve(ones(grid), poisoned, grid)
        assert excinfo.value.node_index == 5
        assert math.isclose(excinfo.value.tau, 0.5)

    def test_grid_mismatch_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        other = np.linspace(0.0, 1.0, 21)
        with pytest.raises(ValueError):
            picard_solve(ones(other), identity_functional(), grid)

    def test_determinism(self):
        grid = np.linspace(0.0, 0.4, 201)
        a, ra, _ = picard_solve(
            ones(grid), identity_functional(1.3), grid, tol=1e-12
        )
        b, rb, _ = picard_solve(
            ones(grid), identity_functional(1.3), grid, tol=1e-12
        )
        assert np.array_equal(a, b)
        assert ra.residuals == rb.residuals

    def test_byproduct_is_from_the_returned_solution(self):
        grid = np.linspace(0.0, 0.4, 201)
        calls = []

        def evaluate(x):
            calls.append(x)
            return 1.3 * x, x

        solution, report, byproduct = picard_solve(
            ones(grid), evaluate, grid, tol=1e-12
        )
        assert byproduct is solution
        # one evaluation per iterate: the last one's update norm is the
        # returned solution's equation residual
        assert len(calls) == report.iterates

    @given(lam=st.floats(0.1, 1.5))
    @settings(max_examples=20, deadline=None)
    def test_converged_runs_satisfy_equation(self, lam):
        span = min(0.8 / lam, 1.0)
        grid = np.linspace(0.0, span, 101)
        tol = 1e-10
        solution, report, _ = picard_solve(
            ones(grid), identity_functional(lam), grid, tol=tol
        )
        assert report.converged
        assert report.residuals[-1] < tol
        assert all(math.isfinite(r) for r in report.residuals)
        assert report.equation_residual < 2.0 * tol
        assert math.isclose(
            solution[-1], math.exp(lam * span), rel_tol=1e-3
        )


class TestRetardation:
    def test_cumulative_integral_is_retarded(self):
        grid = np.linspace(0.0, 1.0, 101)

        def running_integral(x):
            from scipy.integrate import cumulative_trapezoid

            return cumulative_trapezoid(x, grid, initial=0.0), None

        assert verify_retardation(running_integral, np.cos(grid))

    def test_end_anchored_functional_fails(self):
        grid = np.linspace(0.0, 1.0, 101)
        def end_anchored(x):
            return np.full(grid.size, x[-1]), None

        assert not verify_retardation(end_anchored, np.cos(grid))


class TestHalvingDriver:
    def test_shrinks_until_contraction(self):
        # residual floor ~ (lam * span)^n / n! passes tol only on a short span
        lam = 8.0
        grid = np.linspace(0.0, 1.0, 401)
        calls = []

        def build(nodes):
            calls.append(nodes[-1])
            return np.ones(nodes.size), identity_functional(lam)

        solution, report, final_nodes, _ = picard_solve_with_halving(
            build, grid, tol=1e-10, max_iter=12
        )
        assert report.converged
        assert report.halvings == len(calls) - 1
        assert 1 <= report.halvings <= 6
        assert final_nodes[-1] < 1.0
        # converged span solves x' = lam x from x(0) = 1 up to trapezoid error
        expected = np.exp(lam * final_nodes)
        assert np.max(np.abs(solution - expected)) < 1e-4

    def test_no_halving_when_first_try_converges(self):
        grid = np.linspace(0.0, 0.3, 151)
        solution, report, final_nodes, _ = picard_solve_with_halving(
            lambda nodes: (np.ones(nodes.size), identity_functional()), grid,
            tol=1e-12,
        )
        assert report.halvings == 0
        assert np.array_equal(final_nodes, grid)

    def test_gives_up_after_max_halvings(self):
        grid = np.linspace(0.0, 1.0, 513)

        def build(nodes):
            return np.ones(nodes.size), identity_functional(1e6)

        with pytest.raises(NoConvergence):
            picard_solve_with_halving(
                build, grid, tol=1e-12, max_iter=10, max_halvings=4
            )

    def test_gives_up_when_the_span_is_too_short_to_halve(self):
        # 5 nodes halve to 3, which halve no further: the rejection is
        # raised, not an error about the grid
        grid = np.linspace(0.0, 1.0, 5)

        def build(nodes):
            return np.ones(nodes.size), identity_functional(1e6)

        with pytest.raises(NoConvergence) as excinfo:
            picard_solve_with_halving(build, grid, tol=1e-12, max_iter=10)
        assert "after 1 halvings" in str(excinfo.value)

    def test_seed_starts_the_first_attempt_only(self):
        lam = 8.0
        grid = np.linspace(0.0, 1.0, 401)

        def build(nodes):
            return np.ones(nodes.size), identity_functional(lam)

        # a full-length seed would not fit the halved nodes
        _, report, final_nodes, _ = picard_solve_with_halving(
            build, grid, tol=1e-10, max_iter=12, x0=np.exp(lam * grid)
        )
        assert report.converged and report.halvings >= 1
        assert final_nodes.size < grid.size

        short = np.linspace(0.0, 0.3, 151)
        unseeded, plain, _, _ = picard_solve_with_halving(
            build, short, tol=1e-12, max_iter=40
        )
        seeded, warm, _, _ = picard_solve_with_halving(
            build, short, tol=1e-12, max_iter=40, x0=unseeded
        )
        assert warm.halvings == 0
        assert warm.iterates < plain.iterates
        assert np.max(np.abs(seeded - unseeded)) < 1e-11

    def test_front_half_preserves_node_alignment(self):
        grid = np.linspace(0.0, 1.0, 401)

        def build(nodes):
            return np.ones(nodes.size), identity_functional(3.0)

        _, _, final_nodes, _ = picard_solve_with_halving(
            build, grid, tol=1e-12, max_iter=25
        )
        assert np.all(np.isin(final_nodes, grid))
