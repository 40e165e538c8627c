"""Tests for the retarded Volterra fixed-point engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflrw.core import cumulative_integral
from semiflrw.fixedpoint import (
    COLD,
    NaNDetected,
    NoConvergence,
    PicardReport,
    Rejected,
    ZeroStep,
    check_accuracy,
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
            "tol": 1e-10,
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
        plain, cold, _ = picard_solve(f0, identity_functional(), grid, tol=1e-12)
        seeded, report, _ = picard_solve(
            f0, identity_functional(), grid, tol=1e-12, x0=seed
        )
        assert report.converged
        assert np.max(np.abs(seeded - plain)) < 1e-11
        assert report.equation_residual < 2e-12
        # a seed at the fixed point needs fewer iterates than F0
        _, warm, _ = picard_solve(
            f0, identity_functional(), grid, tol=1e-12, x0=plain
        )
        assert warm.iterates < cold.iterates

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


def linear(lam, tol=1e-10, max_iter=60, max_error=math.inf, spans=None):
    """A trial solving x' = lam x from x(0) = 1 on its nodes and holding it
    to max_error; it returns (x, report, Richardson estimate) and appends
    the end of each span it is run on to spans."""

    def trial(nodes):
        if spans is not None:
            spans.append(nodes[-1])
        x, report, f = picard_solve(
            np.ones(nodes.size), lambda x: (lam * x, lam * x), nodes, tol,
            max_iter,
        )
        return x, report, check_accuracy(f, nodes, COLD, max_error)

    return trial


class TestHalvingDriver:
    def test_shrinks_until_contraction(self):
        # residual floor ~ (lam * span)^n / n! passes tol only on a short span
        lam = 8.0
        grid = np.linspace(0.0, 1.0, 401)
        spans = []
        (solution, report, _), final_nodes, halvings = picard_solve_with_halving(
            linear(lam, max_iter=12, spans=spans), grid
        )
        assert report.converged
        assert halvings == len(set(spans)) - 1
        assert 1 <= halvings <= 6
        # a retry keeps the node count on the front half of the span
        assert np.array_equal(
            final_nodes, np.linspace(0.0, 0.5**halvings, grid.size)
        )
        # converged span solves x' = lam x from x(0) = 1 up to the rule's error
        expected = np.exp(lam * final_nodes)
        assert np.max(np.abs(solution - expected)) < 1e-4

    def test_no_halving_when_first_try_converges(self):
        grid = np.linspace(0.0, 0.3, 151)
        (solution, _, estimate), final_nodes, halvings = picard_solve_with_halving(
            linear(1.0, tol=1e-12), grid
        )
        assert halvings == 0
        assert np.array_equal(final_nodes, grid)
        # the Richardson estimate is of the rule's error of int f
        assert 0.0 < estimate < 1e-6
        assert np.max(np.abs(solution - np.exp(grid))) < 10.0 * estimate

    def test_gives_up_after_max_halvings(self):
        grid = np.linspace(0.0, 1.0, 513)
        solve, raised = linear(1e6, tol=1e-12, max_iter=10), []

        def trial(nodes):
            try:
                return solve(nodes)
            except NoConvergence as err:
                raised.append(err)
                raise

        with pytest.raises(NoConvergence, match="after 4 halvings") as info:
            picard_solve_with_halving(trial, grid, max_halvings=4)
        # the last trial's report comes with it
        assert len(raised) == 5
        assert info.value.report is raised[-1].report
        assert info.value.__cause__ is raised[-1]

    def test_rejects_on_the_richardson_estimate_alone(self):
        # the trial converges on the full span; only its estimate, which falls
        # 8-fold per halving (h^3 on the trapezoid first interval), is too
        # large
        grid = np.linspace(0.0, 1.0, 9)
        (_, _, estimate), _, halvings = picard_solve_with_halving(
            linear(1.0, tol=1e-12), grid
        )
        assert halvings == 0
        bound = 0.5 * estimate
        (_, report, accepted), final_nodes, halvings = picard_solve_with_halving(
            linear(1.0, tol=1e-12, max_error=bound), grid
        )
        assert report.converged and halvings == 1
        assert np.array_equal(final_nodes, np.linspace(0.0, 0.5, 9))
        assert accepted < bound
        with pytest.raises(Rejected, match="Richardson estimate .* exceeds"):
            picard_solve_with_halving(
                linear(1.0, tol=1e-12, max_error=bound), grid, max_halvings=0
            )

    def test_a_cut_trial_retries_as_the_uncut_one(self):
        # a trial cut to 0.4 of a span that needs four halvings skips the
        # half span, longer than itself, and goes on as the uncut trial does,
        # with its halvings counted
        spans = []
        trial = linear(8.0, max_iter=12, spans=spans)

        def trials():
            return sorted(set(spans), reverse=True)

        (x, report, _), nodes, halvings = picard_solve_with_halving(
            trial, np.linspace(0.0, 1.0, 401)
        )
        assert trials() == [1.0, 0.5, 0.25, 0.125, 0.0625]
        spans.clear()
        got, got_nodes, got_halvings = picard_solve_with_halving(
            trial, np.linspace(0.0, 0.4, 401), span=1.0
        )
        assert trials() == [0.4, 0.25, 0.125, 0.0625]
        assert got[1] == report and got_halvings == halvings == 4
        assert np.array_equal(got[0], x) and np.array_equal(got_nodes, nodes)

    def test_halving_below_the_float_spacing_raises_zero_step(self):
        class Refused(RuntimeError):
            pass

        def refuse(nodes):
            raise Refused

        # 5 nodes 4 ulp apart at 1e8: the third halving would repeat a node
        ulp = np.spacing(1e8)
        grid = segment_nodes(1e8, 16.0 * ulp, 5)
        with pytest.raises(ZeroStep, match="below the float spacing"):
            picard_solve_with_halving(
                refuse, grid, max_halvings=10, retry_on=(Refused,)
            )

    def test_even_node_count_is_rejected(self):
        # every second node of an even count misses the last one
        with pytest.raises(ValueError, match="odd"):
            picard_solve_with_halving(linear(1.0), np.linspace(0.0, 1.0, 4))

    def test_each_retry_runs_on_the_front_half(self):
        # a trial is told its nodes only: each retry's are the front half of
        # the span before, with the node count kept, and the driver counts
        # the halvings
        asked = []  # the nodes of each trial

        def trial(nodes):
            asked.append(nodes)
            if nodes[-1] - nodes[0] > 0.125:
                raise Rejected("too long")
            return nodes.size

        result, nodes, halvings = picard_solve_with_halving(
            trial, np.linspace(0.25, 1.25, 5)
        )
        ends = [0.25 + 0.5**k for k in range(4)]
        assert len(asked) == len(ends)
        for got, end in zip(asked, ends):
            assert np.array_equal(got, np.linspace(0.25, end, 5))
        assert (result, halvings) == (5, 3)
        assert nodes is asked[-1]
