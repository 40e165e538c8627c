"""Tests for the retarded Volterra fixed-point engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflrw.core import cumulative_integral
from semiflrw.fixedpoint import (
    NaNDetected,
    NoConvergence,
    PicardReport,
    Rejected,
    ZeroStep,
    picard_solve,
    picard_solve_with_halving,
    segment_nodes,
)

from oracles import verify_retardation


def identity_functional(scale=1.0):
    return lambda x: (scale * x, None)


def ones(grid):
    return np.ones(grid.size)


class TestPicardReport:
    def test_stores_only_residuals_tol_and_halvings(self):
        assert [f.name for f in dataclasses.fields(PicardReport)] == [
            "residuals", "tol", "halvings"
        ]

    def test_derived_values_follow_from_the_residuals(self):
        report = PicardReport((1e-3, 2e-6, 0.0, 5e-11), 1e-10, halvings=2)
        assert report.iterates == 4
        assert report.converged is True
        assert report.equation_residual == 5e-11
        assert report.contraction_ratios == (2e-6 / 1e-3, 0.0, 0.0)
        assert report.as_dict() == {
            "iterates": 4,
            "residuals": [1e-3, 2e-6, 0.0, 5e-11],
            "contraction_ratios": [2e-6 / 1e-3, 0.0, 0.0],
            "converged": True,
            "tol": 1e-10,
            "equation_residual": 5e-11,
            "halvings": 2,
        }

    def test_a_last_residual_at_tol_is_not_converged(self):
        report = PicardReport((1e-3, 1e-10), 1e-10)
        assert report.iterates == 2
        assert report.converged is False
        assert report.equation_residual is None
        assert report.halvings == 0


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

    def test_step_makes_the_next_iterate(self):
        # x' = 4 x: a step that runs the map itself ten times between two
        # evaluations needs fewer evaluations for the same fixed point
        grid = np.linspace(0.0, 0.5, 201)
        f0 = ones(grid)

        def rhs(x):
            return 4.0 * x, x.copy()  # byproduct: the iterate evaluated

        seen = []

        def step(update, byproduct):
            seen.append((update.copy(), byproduct))
            x = update
            for _ in range(10):
                x = f0 + cumulative_integral(4.0 * x, grid)
            return x

        plain, plain_report, _ = picard_solve(f0, rhs, grid, tol=1e-12)
        stepped, report, last = picard_solve(f0, rhs, grid, tol=1e-12, step=step)
        assert report.converged
        assert report.iterates < plain_report.iterates
        assert np.max(np.abs(stepped - plain)) < 1e-11
        # the step takes the update and byproduct of the evaluation at the
        # iterate it replaces, and the returned iterate is the last evaluated
        assert len(seen) == report.iterates - 1
        update, evaluated = seen[0]
        assert np.array_equal(evaluated, f0)
        assert np.array_equal(update, f0 + cumulative_integral(4.0 * f0, grid))
        assert np.array_equal(last, stepped)
        # a step that returns the update is plain Picard, bit for bit
        same, same_report, _ = picard_solve(
            f0, rhs, grid, tol=1e-12, step=lambda update, _: update
        )
        assert np.array_equal(same, plain) and same_report == plain_report

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

    def test_no_convergence_report_has_no_equation_residual(self):
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(NoConvergence) as excinfo:
            picard_solve(
                ones(grid), identity_functional(3.0), grid, tol=1e-12, max_iter=4
            )
        report = excinfo.value.report
        assert report.residuals[-1] >= report.tol == 1e-12
        assert report.converged is False
        assert report.equation_residual is None
        assert report.as_dict()["equation_residual"] is None

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


def linear(lam):
    """rhs(x, nodes) of x' = lam x."""
    return lambda x, nodes: (lam * x, None)


class TestHalvingDriver:
    def test_shrinks_until_contraction(self):
        # residual floor ~ (lam * span)^n / n! passes tol only on a short span
        lam = 8.0
        grid = np.linspace(0.0, 1.0, 401)
        spans = []

        def rhs(x, nodes):
            spans.append(nodes[-1])
            return lam * x, None

        solution, report, final_nodes, _, _ = picard_solve_with_halving(
            rhs, 1.0, grid, tol=1e-10, max_iter=12
        )
        assert report.converged
        assert report.halvings == len(set(spans)) - 1
        assert 1 <= report.halvings <= 6
        # a retry keeps the node count on the front half of the span
        assert np.array_equal(
            final_nodes, np.linspace(0.0, 0.5**report.halvings, grid.size)
        )
        # converged span solves x' = lam x from x(0) = 1 up to the rule's error
        expected = np.exp(lam * final_nodes)
        assert np.max(np.abs(solution - expected)) < 1e-4

    def test_no_halving_when_first_try_converges(self):
        grid = np.linspace(0.0, 0.3, 151)
        solution, report, final_nodes, estimate, _ = picard_solve_with_halving(
            linear(1.0), 1.0, grid, tol=1e-12
        )
        assert report.halvings == 0
        assert np.array_equal(final_nodes, grid)
        # the Richardson estimate is of the rule's error of int f
        assert 0.0 < estimate < 1e-6
        assert np.max(np.abs(solution - np.exp(grid))) < 10.0 * estimate

    def test_gives_up_after_max_halvings(self):
        grid = np.linspace(0.0, 1.0, 513)
        with pytest.raises(NoConvergence, match="after 4 halvings"):
            picard_solve_with_halving(
                linear(1e6), 1.0, grid, tol=1e-12, max_iter=10, max_halvings=4
            )

    def test_rejects_on_the_richardson_estimate_alone(self):
        # the trial converges on the full span; only its estimate, which falls
        # 8-fold per halving (h^3 on the trapezoid first interval), is too
        # large
        grid = np.linspace(0.0, 1.0, 9)
        _, report, _, estimate, _ = picard_solve_with_halving(
            linear(1.0), 1.0, grid, tol=1e-12
        )
        assert report.halvings == 0
        bound = 0.5 * estimate
        _, report, final_nodes, accepted, _ = picard_solve_with_halving(
            linear(1.0), 1.0, grid, tol=1e-12, max_error=bound
        )
        assert report.converged and report.halvings == 1
        assert np.array_equal(final_nodes, np.linspace(0.0, 0.5, 9))
        assert accepted < bound
        with pytest.raises(Rejected, match="Richardson estimate .* exceeds"):
            picard_solve_with_halving(
                linear(1.0), 1.0, grid, tol=1e-12, max_halvings=0, max_error=bound
            )

    def test_halving_below_the_float_spacing_raises_zero_step(self):
        class Refused(RuntimeError):
            pass

        def refuse(x, nodes):
            raise Refused

        # 5 nodes 4 ulp apart at 1e8: the third halving would repeat a node
        ulp = np.spacing(1e8)
        grid = segment_nodes(1e8, 16.0 * ulp, 5)
        with pytest.raises(ZeroStep, match="below the float spacing"):
            picard_solve_with_halving(
                refuse, 0.0, grid, max_halvings=10, retry_on=(Refused,)
            )

    def test_even_node_count_is_rejected(self):
        # every second node of an even count misses the last one
        with pytest.raises(ValueError, match="odd"):
            picard_solve_with_halving(linear(1.0), 1.0, np.linspace(0.0, 1.0, 4))

    def test_seed_starts_the_first_attempt_only(self):
        lam = 8.0
        grid = np.linspace(0.0, 1.0, 401)
        first = {}  # the first iterate of each trial, by its span's end
        asked = []  # (span end, halvings) of each seed call

        def rhs(x, nodes):
            first.setdefault(nodes[-1], x.copy())
            return lam * x, None

        def seed(nodes, halvings):
            asked.append((nodes[-1], halvings))
            return None if halvings else np.exp(lam * grid)

        _, report, _, _, _ = picard_solve_with_halving(
            rhs, 1.0, grid, tol=1e-10, max_iter=12, seed=seed
        )
        assert report.converged and report.halvings >= 1
        trials = list(first.values())
        assert len(trials) == report.halvings + 1
        # the seed is asked once per trial, with the trial's nodes
        assert asked == [(end, n) for n, end in enumerate(first)]
        assert np.array_equal(trials[0], np.exp(lam * grid))
        # a retry has as many nodes; None starts it from the constant
        assert all(np.array_equal(x, np.ones(grid.size)) for x in trials[1:])

        short = np.linspace(0.0, 0.3, 151)
        unseeded, plain, _, _, _ = picard_solve_with_halving(
            linear(lam), 1.0, short, tol=1e-12, max_iter=40
        )
        seeded, warm, _, _, _ = picard_solve_with_halving(
            linear(lam), 1.0, short, tol=1e-12, max_iter=40,
            seed=lambda nodes, halvings: unseeded,
        )
        assert warm.halvings == 0
        assert warm.iterates < plain.iterates
        assert np.max(np.abs(seeded - unseeded)) < 1e-11
