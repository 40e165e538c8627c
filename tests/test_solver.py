"""Segment driver tests: fixed points, terminations, continuation, restart."""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflrw import solver
from semiflrw.core import (
    COLD_START,
    DEFAULT_HUBBLE_CRITICAL,
    MAX_SEGMENT_NODES,
    RULE_ORDER,
    InitialData,
    PhysicalParams,
    segment_rule,
)
from semiflrw.fixedpoint import (
    NoConvergence,
    PicardReport,
    Rejected,
    picard_solve,
    richardson_error,
)
from semiflrw.solver import (
    EPSILON_SCALE,
    EXIT_CODES,
    MAX_ITER,
    BankCheckFailed,
    CriticalHubble,
    RunLog,
    SolverConfig,
    _rhs_detail,
    choose_step,
    continue_maximal,
    default_dt_target,
    extrapolate,
    initial_segment_state,
    load_checkpoint,
    picard_seed,
    save_checkpoint,
    solution_diagnostics,
    solve_segment,
    wick_square_renormalized,
)
from semiflrw.modes import evolve_bank, potential
from semiflrw.wick import TWO_PI_SQ, BogoliubovProfile, WickConfig, radial_grid

from oracles import (
    bogoliubov_delta_per_node, lam_for_root, massless_tau, verify_retardation,
)

HC = DEFAULT_HUBBLE_CRITICAL
W0 = WickConfig(k_max=10.0)


@pytest.fixture(scope="module")
def ds_run():
    lam = 0.5 * HC**4 / (960.0 * math.pi**2)
    h0 = math.sqrt(HC**2 - math.sqrt(HC**4 - 960.0 * math.pi**2 * lam))
    params = PhysicalParams(mass=0.0, cosmological_constant=lam)
    sol, rep = continue_maximal(
        InitialData(0.0, 1.0, h0), 0.005, params, W0, SolverConfig()
    )
    return sol, rep, h0, params


@pytest.fixture(scope="module")
def wall_run():
    lam = 2.0 * HC**4 / (960.0 * math.pi**2)
    params = PhysicalParams(mass=0.0, cosmological_constant=lam)
    sol, rep = continue_maximal(
        InitialData(0.0, 1.0, 0.0), 10.0, params, W0, SolverConfig()
    )
    return sol, rep, params


@pytest.fixture(scope="module")
def blowup_run():
    h0 = 60.0
    params = PhysicalParams(mass=0.0, cosmological_constant=lam_for_root(h0))
    sol, rep = continue_maximal(
        InitialData(0.0, 1.0, h0), 1.0, params, W0, SolverConfig()
    )
    return sol, rep, h0


@pytest.fixture(scope="module")
def mass_run():
    params = PhysicalParams(mass=1.0)
    wcfg = WickConfig(k_max=40.0, n_k=192)
    sol, rep = continue_maximal(
        InitialData(0.0, 1.0, 0.0), 0.004, params, wcfg, SolverConfig()
    )
    return sol, rep, params, wcfg


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.dt_target is None
        assert cfg.tol == 1e-10
        assert cfg.nodes_per_segment == 25
        assert cfg.epsilon_critical == 1e-6
        assert EPSILON_SCALE == 1e-6
        assert MAX_ITER == 40

    def test_a_segment_holds_at_most_max_segment_nodes(self):
        # a trial's rule is a matrix of nodes_per_segment^2 numbers
        assert SolverConfig(nodes_per_segment=MAX_SEGMENT_NODES).nodes_per_segment == 1025
        with pytest.raises(ValueError, match="1025"):
            SolverConfig(nodes_per_segment=MAX_SEGMENT_NODES + 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt_target": 0.0},
            {"dt_target": -1.0},
            {"dt_target": -math.inf},
            {"tol": 0.0},
            {"tol": -1e-10},
            {"tol": -math.inf},
            {"nodes_per_segment": 1},
            {"nodes_per_segment": 2},
            # an even count leaves the last interval out of richardson_error
            {"nodes_per_segment": 4},
            {"nodes_per_segment": 48},
            # the wall guard lies in [EPSILON_CRITICAL_MIN, 0.1): nearer the
            # critical rate no converged node lands between the wall guard
            # and CRITICAL_GUARD
            {"epsilon_critical": 0.0},
            {"epsilon_critical": -1e-3},
            {"epsilon_critical": 1e-12},
            {"epsilon_critical": 0.99 * solver.EPSILON_CRITICAL_MIN},
            {"epsilon_critical": 0.1},
            {"epsilon_critical": 0.5},
            {"max_segments": 0},
            {"max_segments": -1},
            {"max_halvings": -1},
            # NaN fails every comparison: each check must be written to fail
            {"dt_target": math.nan},
            {"tol": math.nan},
            {"epsilon_critical": math.nan},
            # the integer fields take integers only: NaN passes `< 1` and
            # never exhausts a segment budget, and 5.5 is no count
            {"max_halvings": math.nan},
            {"max_halvings": 5.5},
            {"nodes_per_segment": math.nan},
            {"nodes_per_segment": 5.5},
            {"max_segments": math.nan},
            {"max_segments": 5.5},
            {"max_segments": math.inf},
            # an infinite tol accepts every first iterate
            {"tol": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_default_dt_target(self):
        assert default_dt_target(0.0, 1.0, 0.0) == 0.1
        assert default_dt_target(50.0, 2.0, 0.0) == 0.1 / 100.0
        assert default_dt_target(0.0, 2.0, 3.0) == 0.1 / 6.0

    def test_effective_wick_config_fills_knee(self):
        # the knee follows from the run: 10 a0 m = 60 for a0 = 3, m = 2
        params = PhysicalParams(mass=2.0)
        initial = InitialData(0.0, 3.0, 0.0)
        wcfg = WickConfig(k_max=80.0, n_k=64)
        momenta, weights = radial_grid(80.0, 64, 60.0)
        sol, _ = continue_maximal(initial, 1e-4, params, wcfg, SolverConfig())
        for state in (initial_segment_state(initial, params, wcfg), sol.final_state):
            bank = state.mode_bank_carry
            assert bank.momenta.tobytes() == momenta.tobytes()
            assert bank.weights.tobytes() == weights.tobytes()
        # graded: half of the 8 panels lie below the knee (linear ones: 6)
        assert np.count_nonzero(momenta <= 60.0) == 32

    def test_effective_wick_config_massless(self):
        # a massless run has no bank, so no knee and no grid
        initial = InitialData(0.0, 3.0, 0.0)
        wcfg = WickConfig(k_max=80.0, n_k=64)
        massless = initial_segment_state(initial, PhysicalParams(mass=0.0), wcfg)
        assert massless.mode_bank_carry is None


class TestInitialState:
    def test_massless_state_has_no_bank(self):
        state = initial_segment_state(
            InitialData(0.0, 1.0, 0.0), PhysicalParams(mass=0.0), W0
        )
        assert state.mode_bank_carry is None
        assert state.anchor_digest is None
        assert state.hist_wick[0] == 0.0
        assert state.tau_start == 0.0
        assert state.a_start == 1.0

    def test_massive_state_wick_square_at_start(self):
        state = initial_segment_state(
            InitialData(0.0, 1.0, 0.0),
            PhysicalParams(mass=1.0),
            WickConfig(k_max=40.0, n_k=192),
        )
        expected = -1.0 / (32.0 * math.pi**2)
        assert state.hist_wick[0] == pytest.approx(expected, rel=1e-10)
        assert state.mode_bank_carry is not None
        assert state.anchor_digest == state.mode_bank_carry.anchor_digest()

    def test_carried_bank_anchor_takes_no_in_place_write(self):
        # the anchor the digest is derived from cannot change under a run:
        # neither the initial bank's nor the bank a segment carries on
        state = initial_segment_state(
            InitialData(0.0, 1.0, 0.0), PhysicalParams(mass=1.0), W0
        )
        segment = solve_segment(state, 0.004)
        for carried in (state, segment):
            bank = carried.mode_bank_carry
            for name in ("momenta", "weights", "k0"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(bank, name)[-1] = 0.0
        assert segment.anchor_digest == state.anchor_digest

    def test_rejects_supercritical_start(self):
        with pytest.raises(ValueError):
            initial_segment_state(
                InitialData(0.0, 1.0, 1.01 * HC), PhysicalParams(mass=0.0), W0
            )

    def test_rejects_horizon_before_start(self):
        with pytest.raises(ValueError):
            continue_maximal(
                InitialData(1.0, 1.0, 0.0), 0.5, PhysicalParams(mass=0.0), W0
            )


class TestDeSitter:
    def test_reaches_horizon(self, ds_run):
        sol, rep, h0, params = ds_run
        assert rep.reason == "TimeHorizon"
        assert rep.exit_code == 0
        assert rep.tau_stop == pytest.approx(0.005, abs=1e-12)

    def test_hubble_constant_to_machine_precision(self, ds_run):
        sol, rep, h0, params = ds_run
        assert np.max(np.abs(sol.hubble - h0)) == 0.0

    def test_picard_needs_at_most_two_iterations(self, ds_run):
        sol, rep, h0, params = ds_run
        assert all(r.iterates <= 2 for r in sol.reports)
        assert all(r.converged for r in sol.reports)

    def test_scale_factor_matches_closed_form(self, ds_run):
        sol, rep, h0, params = ds_run
        expected = 1.0 / (1.0 - h0 * sol.taus)
        assert np.max(np.abs(sol.scale_factor / expected - 1.0)) < 1e-12

    def test_histories_aligned(self, ds_run):
        sol, rep, h0, params = ds_run
        n = sol.taus.size
        assert sol.hubble.size == n
        assert sol.scale_factor.size == n
        assert sol.wick_square.size == n
        assert np.all(np.diff(sol.taus) > 0.0)
        assert len(sol.segment_bounds) == len(sol.reports) + 1


class TestMinkowski:
    def test_static_solution_is_exact(self):
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 0.2, PhysicalParams(mass=0.0), W0
        )
        assert rep.reason == "TimeHorizon"
        assert np.max(np.abs(sol.hubble)) == 0.0
        assert np.max(np.abs(sol.scale_factor - 1.0)) == 0.0
        assert np.max(np.abs(sol.wick_square)) == 0.0


class TestWallPush:
    def test_terminates_at_critical_hubble(self, wall_run):
        sol, rep, params = wall_run
        assert rep.reason == "HitCriticalHubble"
        assert rep.exit_code == 10

    def test_stop_invariant(self, wall_run):
        sol, rep, params = wall_run
        wall = (1.0 - 1e-6) * HC
        assert abs(sol.hubble[-1]) >= wall
        assert np.all(np.abs(sol.hubble) < HC)
        assert rep.tau_stop == sol.taus[-1]

    def test_margin_diagnostics(self, wall_run):
        sol, rep, params = wall_run
        assert 0.0 < rep.diagnostics["margin_hubble"] <= 2e-6 * HC
        assert abs(rep.diagnostics["extrapolated_breach_tau"] - rep.tau_stop) < 1e-6

    def test_interior_nodes_below_wall_before_stop(self, wall_run):
        sol, rep, params = wall_run
        wall = (1.0 - 1e-6) * HC
        assert np.all(np.abs(sol.hubble[:-1]) < wall)

    def test_a_massive_approach_from_below_reaches_the_wall(self):
        # found by a random sweep: at the contraction target 0.05 this run
        # shrank dt below the float spacing at H = -119.215, a margin of
        # 1.3e-4 against a guard of 1.2e-4; at 0.1 without the accuracy
        # ladder the Richardson bound rejected every retry of a trial at
        # tau 0.081
        params = PhysicalParams(
            mass=2.363, cosmological_constant=-0.0012 * HC**4 / (960.0 * math.pi**2)
        )
        sol, rep = continue_maximal(
            InitialData(0.0, 1.824, 18.598), 0.8852, params,
            WickConfig(k_max=20.0, n_k=64), SolverConfig(max_segments=3000),
        )
        assert rep.reason == "HitCriticalHubble"
        assert sol.hubble[-1] <= -(1.0 - 1e-6) * HC
        assert all(r.converged for r in sol.reports)

    @pytest.mark.parametrize(
        "mass, c, h0, wick_cfg",
        [(0.0, 2.0, 0.0, W0), (1.0, 1.1, 0.9 * HC, WickConfig(k_max=20.0, n_k=32))],
    )
    def test_the_least_wall_guard_ends_at_a_converged_node(self, mass, c, h0, wick_cfg):
        # at the least epsilon_critical a converged node still lands between
        # the wall guard and CRITICAL_GUARD, where iterates raise
        params = PhysicalParams(
            mass=mass, cosmological_constant=c * HC**4 / (960.0 * math.pi**2)
        )
        cfg = SolverConfig(epsilon_critical=solver.EPSILON_CRITICAL_MIN)
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, h0), 10.0, params, wick_cfg, cfg
        )
        assert rep.reason == "HitCriticalHubble"
        assert "raised_at_tau" not in rep.diagnostics
        wall = (1.0 - cfg.epsilon_critical) * HC
        assert wall <= abs(sol.hubble[-1]) < (1.0 - solver.CRITICAL_GUARD) * HC
        assert np.all(np.abs(sol.hubble[:-1]) < wall)


class TestMasslessOracle:
    """Massless runs against the exact solution of the separable equation."""

    # Lambda = c Hc^4 / (960 pi^2) makes the source S(H) = H^4 - 2 Hc^2 H^2
    # + c Hc^4.  The runs keep their nodes' tau within this many tolerances,
    # relative, of the tau at which the exact solution takes their H.
    BOUND_PER_TOL = 100.0

    @staticmethod
    def params(c: float) -> PhysicalParams:
        lam = c * HC**4 / (960.0 * math.pi**2)
        return PhysicalParams(mass=0.0, cosmological_constant=lam)

    def test_wall_breach_is_the_exact_one(self):
        # the massless_wall benchmark inputs: Lambda 1.1 Hc^4 / (960 pi^2),
        # H0 = 0 and the guard at (1 - 1e-3) Hc.  At tol 1e-10 the run's
        # breach is 7.5e-10 relative off the exact one
        params = self.params(1.1)
        cfg = SolverConfig(epsilon_critical=1e-3)
        wall = (1.0 - cfg.epsilon_critical) * HC
        exact = massless_tau(wall, params, 0.0, 1.0, 0.0)
        assert exact == pytest.approx(0.0077850715053808675, rel=1e-13, abs=0.0)
        sol, rep = continue_maximal(InitialData(0.0, 1.0, 0.0), 10.0, params, W0, cfg)
        assert rep.reason == "HitCriticalHubble"
        breach = rep.diagnostics["extrapolated_breach_tau"]
        assert breach == pytest.approx(exact, rel=2e-9, abs=0.0)

    @settings(max_examples=8, deadline=None)
    @given(
        c=st.floats(min_value=1.1, max_value=3.0),
        u=st.floats(min_value=-0.5, max_value=0.5),
        a0=st.floats(min_value=0.5, max_value=1.5),
    )
    def test_without_a_root_the_run_breaches_where_the_oracle_does(self, c, u, a0):
        # for c > 1, S has no real root: H rises from H0 = u Hc to the wall
        params, cfg, h0 = self.params(c), SolverConfig(epsilon_critical=1e-3), u * HC
        sol, rep = continue_maximal(InitialData(0.0, a0, h0), 10.0, params, W0, cfg)
        assert rep.reason == "HitCriticalHubble"
        bound = self.BOUND_PER_TOL * cfg.tol
        j = sol.taus.size // 2
        exact = massless_tau(float(sol.hubble[j]), params, 0.0, a0, h0)
        assert sol.taus[j] == pytest.approx(exact, rel=bound, abs=0.0)
        wall = (1.0 - cfg.epsilon_critical) * HC
        breach = rep.diagnostics["extrapolated_breach_tau"]
        exact = massless_tau(wall, params, 0.0, a0, h0)
        assert breach == pytest.approx(exact, rel=bound, abs=0.0)

    @settings(max_examples=8, deadline=None)
    @given(
        c=st.floats(min_value=0.2, max_value=0.9),
        u=st.floats(min_value=-0.5, max_value=0.5),
        a0=st.floats(min_value=0.5, max_value=1.5),
    )
    def test_between_the_roots_the_run_keeps_to_the_oracle(self, c, u, a0):
        # for c < 1, S has the roots +-r, r^2 = Hc^2 (1 - sqrt(1 - c)), inside
        # the wall: H0 = u r runs toward r and never reaches the wall.  Kept
        # half r off the roots and at c >= 0.2: near a root or at small c, H
        # moves little, and tau(H) is ill-conditioned
        root = HC * math.sqrt(1.0 - math.sqrt(1.0 - c))
        params, cfg, h0 = self.params(c), SolverConfig(), u * root
        sol, rep = continue_maximal(InitialData(0.0, a0, h0), 0.005, params, W0, cfg)
        assert rep.reason == "TimeHorizon"
        exact = massless_tau(float(sol.hubble[-1]), params, 0.0, a0, h0)
        assert sol.taus[-1] == pytest.approx(
            exact, rel=self.BOUND_PER_TOL * cfg.tol, abs=0.0
        )


class TestRejectedTrial:
    """A trial span that no converged segment can take is retried shorter."""

    def test_over_long_first_trial_ends_at_a_converged_wall_node(self):
        # the massless_wall benchmark inputs: H reaches the guard at tau
        # 0.0077851; on a first trial of 0.01 the second iterate crosses Hc.
        # The trial of 0.005 converges with a Richardson estimate of 1.5e-4,
        # 12300 times the bound REJECT_ACCURACY * ACCURACY_PER_TOL * tol =
        # 1.2e-8, and the estimate falls 2^3 = 8-fold per halving (the cold
        # rule's trapezoid first interval): 8^4 < 12300 < 8^5, so 1 + 5 = 6
        # retries
        lam = 1.1 * HC**4 / (960.0 * math.pi**2)
        params = PhysicalParams(mass=0.0, cosmological_constant=lam)
        initial = InitialData(0.0, 1.0, 0.0)
        start = replace(
            initial_segment_state(initial, params, W0),
            next_step=(0.01, "contraction"),
        )
        cfg = SolverConfig(epsilon_critical=1e-3, max_halvings=8)
        sol, rep = continue_maximal(
            initial, 10.0, params, W0, cfg, resume_from=start
        )
        assert rep.reason == "HitCriticalHubble"
        # the run ends at a converged node past the guard, not at an iterate
        assert "raised_at_tau" not in rep.diagnostics
        wall = (1.0 - cfg.epsilon_critical) * HC
        assert abs(sol.hubble[-1]) >= wall
        assert np.all(np.abs(sol.hubble[:-1]) < wall)
        assert rep.diagnostics["extrapolated_breach_tau"] == pytest.approx(
            0.007785071643136283, rel=1e-6
        )
        assert sol.reports[0].halvings == 6

    def test_richardson_error_reaches_the_last_interval(self):
        # f is nonzero on the last node only.  On every node (width 1/4) only
        # the last interval's Adams-Moulton 4 weight 9/24 reaches it: 3/32.
        # On every second node (width 1/2) the last interval is the second,
        # Adams-Moulton 3 with weight 5/12: 5/24.  They differ by 11/96,
        # which the estimate divides by 2^3 - 1 = 7.  SolverConfig allows
        # only odd node counts, whose every second node ends on the last one.
        f = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        estimate = richardson_error(f, np.linspace(0.0, 1.0, 5))
        assert estimate == pytest.approx(11.0 / 672.0)


class TestInSegmentBreach:
    """A run that crosses the wall guard inside a segment, massive and fast."""

    LAMBDA = 1.1 * HC**4 / (960.0 * math.pi**2)
    WICK = WickConfig(k_max=20.0, n_k=32)

    def test_final_state_stops_at_the_breach_node(self):
        params = PhysicalParams(mass=1.0, cosmological_constant=self.LAMBDA)
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 0.905 * HC), 1.0, params, self.WICK,
            SolverConfig(epsilon_critical=0.09),
        )
        assert rep.reason == "HitCriticalHubble"
        assert "raised_at_tau" not in rep.diagnostics
        state = sol.final_state
        bank = state.mode_bank_carry
        # a, the mode bank and tau all sit at tau_stop
        assert state.tau_start == rep.tau_stop == sol.taus[-1]
        assert state.a_start == sol.scale_factor[-1]
        assert bank.tau == rep.tau_stop
        assert bank.anchor_digest() == state.anchor_digest
        # the bank's modes are those that gave the last W of the series
        w_bank = wick_square_renormalized(
            state.a_start, bank, bank.chi, params, self.WICK
        )
        assert w_bank == pytest.approx(sol.wick_square[-1], rel=1e-12, abs=0.0)


class TestContinuationContract:
    """Invariants of continue_maximal over (mass, H0, Lambda, horizon).

    H0 stays below the critical rate, the validity condition of the initial
    data; every other input is one PhysicalParams and InitialData accept.
    """

    # a bank of 32 momenta is too coarse for a clean tail fit at some masses
    @pytest.mark.filterwarnings("ignore::semiflrw.wick.TailFitFailed")
    @settings(max_examples=16, deadline=None)
    @given(
        mass=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=3.0)),
        h0_fraction=st.floats(min_value=-0.99, max_value=0.99),
        lambda_fraction=st.floats(min_value=-2.0, max_value=2.0),
        horizon=st.floats(min_value=1e-4, max_value=0.05),
    )
    @example(mass=1.0, h0_fraction=0.905, lambda_fraction=1.1, horizon=1.0)
    def test_terminal_state_matches_the_reason(
        self, mass, h0_fraction, lambda_fraction, horizon
    ):
        lam = lambda_fraction * HC**4 / (960.0 * math.pi**2)
        params = PhysicalParams(mass=mass, cosmological_constant=lam)
        cfg = SolverConfig(epsilon_critical=0.09, max_segments=30)
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, h0_fraction * HC), horizon, params,
            WickConfig(k_max=20.0, n_k=32), cfg,
        )
        state = sol.final_state
        assert np.all(np.diff(sol.taus) > 0.0)
        assert rep.tau_stop == sol.taus[-1] == state.tau_start
        assert state.a_start == sol.scale_factor[-1]
        assert sol.segment_bounds[-1] == rep.tau_stop
        assert len(sol.segment_bounds) == len(sol.reports) + 1
        if mass > 0.0:
            assert state.mode_bank_carry.tau == rep.tau_stop
        diagnostics = rep.diagnostics
        if rep.reason == "TimeHorizon":
            assert horizon - rep.tau_stop <= 1e-12 * max(1.0, horizon)
        elif rep.reason == "HitCriticalHubble":
            # only a converged node ends a run at the wall or the margin
            assert abs(sol.hubble[-1]) >= (1.0 - cfg.epsilon_critical) * HC
        elif rep.reason == "ScaleFactorBlowUp":
            assert 1.0 / sol.scale_factor[-1] <= EPSILON_SCALE
        else:
            assert rep.reason == "ConvergenceFailure"
            assert {"error", "picard_residuals", "note"} & set(diagnostics)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_horizon_not_past_tau0_is_rejected(self, horizon):
        # a NaN horizon would otherwise run until the segment budget is spent
        with pytest.raises(ValueError, match="tau_horizon must exceed tau0"):
            continue_maximal(
                InitialData(0.0, 1.0, 0.0), horizon, PhysicalParams(mass=0.0), W0
            )

    def test_infinite_horizon_is_rejected(self):
        # its slack 1e-12 |horizon| would end the run at once as TimeHorizon
        with pytest.raises(ValueError, match="tau_horizon must .* be finite"):
            continue_maximal(
                InitialData(0.0, 1.0, 0.0), math.inf, PhysicalParams(mass=0.0), W0
            )


class TestChooseStep:
    """The accuracy limit scales the last span by a power of 2^(1/4), so
    the rounding of the Richardson estimate does not reach the span."""

    # at H = 0 and Lambda = 0, f vanishes: no growth or denominator limit,
    # and a ratio of 1e-3 puts the contraction limit at MAX_FACTOR dt
    params = PhysicalParams(mass=0.0)
    dt = 1.234e-3
    # the exponent of the span in the error of the rule with back points,
    # which made every estimate but a run's first
    power = RULE_ORDER + 1

    def step(self, error, retried=False, power=power):
        return choose_step(
            0.0, 1.0, 0.0, 0.0, self.params, (self.dt, 1e-3, error, retried, power)
        )

    def test_an_accuracy_limited_span_is_a_rung_above_the_aim(self):
        # factors up to the rung 2^(7/4) below MAX_FACTOR, with the exponent
        # of the rule that made the estimate: 5, or 3 on a cold start
        assert (self.power, COLD_START.power) == (5, 3)
        for power in (self.power, COLD_START.power):
            for factor in np.geomspace(0.26, 3.3, 23):
                span, limit = self.step(
                    solver.ACCURACY_AIM / factor**power, power=power
                )
                rung = round(4.0 * math.log2(span / self.dt))
                assert (span, limit) == (self.dt * 2.0 ** (rung / 4.0), "accuracy")
                assert factor * (1.0 - 1e-12) <= span / self.dt < factor * 2.0**0.25

    def test_a_span_between_rungs_ignores_rounding_of_the_estimate(self):
        for rung in range(-7, 8):
            # the factor half a rung below 2^(rung/4)
            factor = 2.0 ** ((rung - 0.5) / 4.0)
            error = solver.ACCURACY_AIM / factor**self.power
            span = self.dt * 2.0 ** (rung / 4.0)
            for moved in (error, error * (1.0 + 1e-9), error * (1.0 - 1e-9)):
                assert self.step(moved) == (span, "accuracy")

    def test_a_zero_estimate_leaves_the_accuracy_limit_infinite(self):
        # only the clip to MAX_FACTOR, or to 1 after a retry, bounds it
        assert self.step(0.0)[0] == solver.MAX_FACTOR * self.dt
        assert self.step(0.0, retried=True)[0] == self.dt

    def test_a_massive_segment_reads_only_the_ratio_its_sweeps_showed(self):
        # at the source root H = 60 at W = 0, f vanishes: |df/dH| = 4 a H =
        # 240, no growth limit and a denominator limit of 1 / 120, above
        # MAX_FACTOR dt.  Lambda takes up the mass term -7.5 m^4 of m = 1
        h = 60.0
        previous = (self.dt, 1e-3, 0.0, False, self.power)
        massive = PhysicalParams(
            mass=1.0,
            cosmological_constant=lam_for_root(h) + 7.5 / (960.0 * math.pi**2),
        )
        span, limit = choose_step(h, 1.0, 0.0, h, massive, previous)
        assert (span, limit) == (solver.MAX_FACTOR * self.dt, "contraction")
        # a massless run has no sweeps: the estimate 240 dt = 0.30 sets rho
        massless = PhysicalParams(mass=0.0, cosmological_constant=lam_for_root(h))
        span, limit = choose_step(h, 1.0, 0.0, h, massless, previous)
        assert limit == "contraction"
        assert span == pytest.approx(solver.TARGET_CONTRACTION / 240.0, rel=1e-9)


class TestRunProperties:
    """Properties of whole runs that hold for every input: the horizon does
    not steer the segments before the last, and the equation's a0-scaling
    symmetry survives the discretization."""

    WICK = WickConfig(k_max=20.0, n_k=32)

    @settings(max_examples=10, deadline=None)
    @given(
        h0=st.floats(min_value=-8.0, max_value=8.0),
        fraction=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_a_shorter_run_is_a_prefix_of_the_longer_one(self, h0, fraction):
        # a run to T1 < T2 is the run to T2, bit for bit, up to the start of
        # its last segment, the one the remaining span cuts short
        short, long = (
            continue_maximal(
                InitialData(0.0, 1.0, h0), horizon, PhysicalParams(mass=1.0),
                self.WICK, SolverConfig(),
            )[0]
            for horizon in (fraction * 0.02, 0.02)
        )
        cut = int(np.flatnonzero(short.taus == short.segment_bounds[-2])[0]) + 1
        for name in ("taus", "hubble", "scale_factor", "wick_square"):
            ours, theirs = getattr(short, name), getattr(long, name)
            assert ours[:cut].tobytes() == theirs[:cut].tobytes()
        kept = len(short.reports) - 1
        assert short.reports[:kept] == long.reports[:kept]
        assert short.segment_bounds[: kept + 1] == long.segment_bounds[: kept + 1]

    # tail_model "none": the power-law fit gates on its own conditioning, so
    # rounding alone can flip it; with it W moves by up to 5e-11 under this
    # map, and by 1e-11 when a0 and k_max change by a factor 1 + 2^-40
    @settings(max_examples=10, deadline=None)
    @given(
        scale=st.floats(min_value=0.5, max_value=3.0),
        h0=st.floats(min_value=-8.0, max_value=8.0),
        tau0=st.floats(min_value=0.0, max_value=0.5),
    )
    @example(scale=2.0, h0=5.0, tau0=0.0)
    # at the contraction target 0.1 and 49 nodes accuracy set three spans of
    # this run, and without the accuracy ladder tau moved by 5e-10
    @example(scale=2.754, h0=-7.511, tau0=0.013)
    def test_a0_scaling_maps_a_run_onto_a_run(self, scale, h0, tau0):
        self.assert_scaling(scale, h0, tau0)

    def test_a0_scaling_holds_where_accuracy_sets_the_span(self):
        # accuracy, from the first segment's estimate, sets the second of
        # the three spans of the base run; without the accuracy ladder of
        # choose_step tau moves by 6.5e-11 under the map
        limits = self.assert_scaling(1.649, -3.363, 0.011)
        assert limits[0] == "accuracy"

    def assert_scaling(self, scale, h0, tau0) -> list[str]:
        """Check the a0-scaling of one run; return the limits that set the
        base run's spans."""
        # a0 -> s a0, tau -> tau / s and k -> s k leave H and W unchanged and
        # take a to s a: the mode equation, the knee 10 a0 m, dt_target and
        # the step controller all scale alike
        def run(s, callback=None):
            return continue_maximal(
                InitialData(tau0 / s, s, h0), (tau0 + 0.02) / s,
                PhysicalParams(mass=1.0),
                WickConfig(k_max=20.0 * s, n_k=32, tail_model="none"),
                SolverConfig(), segment_callback=callback,
            )[0]

        limits = []
        base = run(1.0, lambda log: limits.append(log.carry.next_step[1]))
        scaled = run(scale)
        assert len(scaled.reports) == len(base.reports)
        assert_close = np.testing.assert_allclose
        assert_close(scale * scaled.taus, base.taus, rtol=1e-11, atol=1e-14)
        assert_close(scaled.scale_factor / scale, base.scale_factor, rtol=1e-11)
        assert_close(scaled.hubble, base.hubble, rtol=1e-11, atol=1e-11)
        assert_close(scaled.wick_square, base.wick_square, rtol=0.0, atol=1e-11)
        return limits


class TestBlowUp:
    def test_terminates_at_scale_blowup(self, blowup_run):
        sol, rep, h0 = blowup_run
        assert rep.reason == "ScaleFactorBlowUp"
        assert rep.exit_code == 11
        assert rep.diagnostics["margin_scale"] <= 1e-6

    def test_hubble_stays_on_root(self, blowup_run):
        sol, rep, h0 = blowup_run
        assert np.max(np.abs(sol.hubble - h0)) == 0.0

    def test_extrapolated_breach_matches_pole(self, blowup_run):
        sol, rep, h0 = blowup_run
        tau_star = 1.0 / h0
        assert abs(rep.diagnostics["extrapolated_breach_tau"] - tau_star) < 1e-3
        assert abs(rep.diagnostics["extrapolated_breach_tau"] - tau_star) < 1e-9

    def test_stop_before_pole(self, blowup_run):
        sol, rep, h0 = blowup_run
        assert rep.tau_stop < 1.0 / h0

    def test_a_trial_that_only_blows_up_is_no_blow_up(self):
        # a carried span 6000 times the distance 1 / H0 to the pole leaves
        # it 94 times that after the six halvings, so every retry's a(H)
        # blows up; no converged node reached the scale margin
        h0 = 60.0
        params = PhysicalParams(mass=0.0, cosmological_constant=lam_for_root(h0))
        initial = InitialData(0.0, 1.0, h0)
        carry = replace(
            initial_segment_state(initial, params, W0),
            next_step=(100.0, "contraction"),
        )
        sol, rep = continue_maximal(
            initial, 1000.0, params, W0, SolverConfig(dt_target=1e6),
            resume_from=carry,
        )
        assert rep.reason == "ConvergenceFailure"
        assert rep.diagnostics["segments"] == 0
        assert rep.diagnostics["margin_scale"] == 1.0
        assert rep.diagnostics["raised_at_tau"] > 0.0


class TestSegmenting:
    def test_segment_span_independence_on_shared_lattice(self):
        lam = lam_for_root(5.0)
        params = PhysicalParams(mass=0.0, cosmological_constant=lam)
        init = InitialData(0.0, 1.0, 0.0)
        sol_p, _ = continue_maximal(
            init, 0.004, params, W0,
            SolverConfig(dt_target=5e-4, nodes_per_segment=13),
        )
        sol_q, _ = continue_maximal(
            init, 0.004, params, W0,
            SolverConfig(dt_target=1e-3, nodes_per_segment=25),
        )
        assert sol_p.taus.size == sol_q.taus.size
        assert np.max(np.abs(sol_p.taus - sol_q.taus)) < 1e-15
        assert np.max(np.abs(sol_p.hubble - sol_q.hubble)) < 5e-10
        assert np.max(np.abs(sol_p.scale_factor - sol_q.scale_factor)) < 5e-10

    @staticmethod
    def lattice_solve(nodes, state0):
        """(H, f at H) on a fixed lattice from the state0 carry."""

        rule = segment_rule(nodes, state0.back[0])
        share = rule.on_back @ state0.back[1]

        def rhs(x):
            f = _rhs_detail(x, nodes, state0, rule, share)[0]
            return f, f

        start = np.full(nodes.size, state0.hubble_start)
        hubble, report, f = picard_solve(start, rhs, nodes)
        assert report.converged
        return hubble, f

    def test_grid_convergence_is_third_order(self):
        # the step controller picks its own spans, so the lattice is fixed
        # here: two segments' worth of n nodes each on [0, 0.004], 2n - 1
        # nodes in all, solved in one Picard iteration.  The trapezoid step
        # on the first interval sets the order: the error falls 2^3-fold
        # per halving of the width (ratios 8.1 and 9.0 against n = 97).
        lam = lam_for_root(5.0)
        params = PhysicalParams(mass=0.0, cosmological_constant=lam)
        state0 = initial_segment_state(InitialData(0.0, 1.0, 0.0), params, W0)
        values = []
        for n in (13, 25, 49, 97):
            nodes = np.linspace(0.0, 0.004, 2 * n - 1)
            values.append(float(self.lattice_solve(nodes, state0)[0][-1]))
        diffs = [abs(v - values[-1]) for v in values[:-1]]
        assert diffs[0] > diffs[1] > diffs[2] > 0.0
        assert diffs[0] / diffs[1] > 6.0
        assert diffs[1] / diffs[2] > 6.0

    @pytest.mark.parametrize("h0, span", [(0.0, 0.004), (30.0, 0.001)])
    def test_richardson_estimate_is_the_error_of_the_solve(self, h0, span):
        # on the lattice above, the estimate from f at the solution reads
        # the error against a solve on 8 times as many intervals (1.00 of
        # it; the 2^4 - 1 of a fourth-order rule would read 0.47)
        lam = lam_for_root(5.0)
        params = PhysicalParams(mass=0.0, cosmological_constant=lam)
        state0 = initial_segment_state(InitialData(0.0, 1.0, h0), params, W0)
        for n in (13, 25, 49, 97):
            nodes = np.linspace(0.0, span, 2 * n - 1)
            hubble, f = self.lattice_solve(nodes, state0)
            fine = np.linspace(0.0, span, 8 * (nodes.size - 1) + 1)
            error = np.max(np.abs(hubble - self.lattice_solve(fine, state0)[0][::8]))
            assert 0.5 * error <= richardson_error(f, nodes) <= 2.0 * error

    @pytest.mark.parametrize("h0, span", [(0.0, 0.004), (30.0, 0.001)])
    def test_richardson_estimate_with_back_points_is_the_error_of_the_solve(
        self, h0, span
    ):
        # the same on the second segment of a run, whose rule starts from
        # the first segment's last nodes: fourth order, so the estimate
        # divides by 2^4 - 1 and the error falls 16-fold per halving
        lam = lam_for_root(5.0)
        params = PhysicalParams(mass=0.0, cosmological_constant=lam)
        state0 = initial_segment_state(InitialData(0.0, 1.0, h0), params, W0)
        carry = solve_segment(state0, 1.0, SolverConfig(dt_target=span))

        def history(nodes):
            return segment_rule(nodes, carry.back[0]), carry.back[2]

        def solve(nodes):
            rule, f_back = history(nodes)
            share = rule.on_back @ carry.back[1]

            def rhs(x):
                f = _rhs_detail(x, nodes, carry, rule, share)[0]
                return f, f

            start = np.full(nodes.size, carry.hubble_start)
            hubble, _, f = picard_solve(
                start, rhs, nodes, 1e-13, history=(rule, f_back)
            )
            return hubble, f

        errors = []
        for n in (13, 25, 49):
            nodes = np.linspace(carry.tau_start, carry.tau_start + span, 2 * n - 1)
            hubble, f = solve(nodes)
            fine = np.linspace(nodes[0], nodes[-1], 8 * (nodes.size - 1) + 1)
            errors.append(np.max(np.abs(hubble - solve(fine)[0][::8])))
            estimate = richardson_error(f, nodes, history(nodes))
            assert 0.5 * errors[-1] <= estimate <= 2.0 * errors[-1]
        assert errors[0] / errors[1] > 12.0

    def test_determinism(self, mass_run):
        sol, rep, params, wcfg = mass_run
        sol2, rep2 = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 0.004, params, wcfg, SolverConfig()
        )
        assert np.array_equal(sol.taus, sol2.taus)
        assert np.array_equal(sol.hubble, sol2.hubble)
        assert np.array_equal(sol.wick_square, sol2.wick_square)
        assert rep2.reason == rep.reason

    def test_segment_budget_exhaustion_reports_failure(self):
        lam = lam_for_root(5.0)
        params = PhysicalParams(mass=0.0, cosmological_constant=lam)
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 0.004, params, W0,
            SolverConfig(dt_target=1e-4, max_segments=3),
        )
        assert rep.reason == "ConvergenceFailure"
        assert rep.exit_code == 20
        assert "note" in rep.diagnostics

    def test_horizon_on_the_last_budgeted_segment_is_reached(self):
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 3e-4, PhysicalParams(mass=0.0), W0,
            SolverConfig(dt_target=1e-4, max_segments=3),
        )
        assert len(sol.reports) == 3
        assert rep.reason == "TimeHorizon"
        assert rep.tau_stop == 3e-4

    def test_carried_bank_check_is_reported_not_raised(self, monkeypatch):
        import semiflrw.solver as solver

        # the fresh bank's Wronskian error, a few ulp, already exceeds 1e-18
        monkeypatch.setattr(solver, "WRONSKIAN_TOLERANCE", 1e-18)
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 5.0), 0.02, PhysicalParams(mass=1.0), W0
        )
        assert rep.reason == "ConvergenceFailure"
        assert rep.exit_code == 20
        assert rep.tau_stop == 0.0
        assert "Wronskian drift" in rep.diagnostics["error"]
        assert sol.taus.tolist() == [0.0]

    def test_zero_step_is_reported_not_raised(self):
        # a0 H0 = 1e310 overflows f, |df/dH| and a max|H| at the start to
        # inf, so every local limit of the step is 0
        sol, rep = continue_maximal(
            InitialData(0.0, 1e308, 100.0), 1.0, PhysicalParams(mass=0.0), W0
        )
        assert rep.reason == "ConvergenceFailure"
        assert rep.exit_code == 20
        assert rep.tau_stop == 0.0
        assert "step underflow" in rep.diagnostics["error"]
        assert sol.taus.tolist() == [0.0]

    def test_step_below_the_float_spacing_is_reported_not_raised(self):
        # near the wall the step falls below the spacing of floats at
        # tau = 1e8, so a segment's nodes can no longer increase
        lam = 1.1 * HC**4 / (960.0 * math.pi**2)
        sol, rep = continue_maximal(
            InitialData(1e8, 1.0, 0.0), 1e8 + 10.0,
            PhysicalParams(mass=0.0, cosmological_constant=lam), W0,
            SolverConfig(epsilon_critical=1e-6),
        )
        assert rep.reason == "ConvergenceFailure"
        assert rep.exit_code == 20
        assert rep.tau_stop == sol.taus[-1] == sol.final_state.tau_start
        error = rep.diagnostics["error"]
        assert error.startswith("step ") and "below the float spacing" in error
        assert np.all(np.diff(sol.taus) > 0.0)

    def test_overflowing_tube_bound_is_reported_not_raised(self):
        # H0**4 ~ 1e320 leaves the float range in the step estimate at the
        # start, which took over from the tube bound
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 1e80), 1.0,
            PhysicalParams(mass=0.0, hubble_critical=1e100), W0,
        )
        assert rep.reason == "ConvergenceFailure"
        assert rep.exit_code == 20
        assert rep.tau_stop == 0.0
        assert "out of range" in rep.diagnostics["error"]
        assert sol.taus.tolist() == [0.0]

    def test_nan_in_the_wick_square_is_reported_not_raised(self, monkeypatch):
        import semiflrw.solver as solver

        wick = solver.wick_square_renormalized

        def poisoned(a, bank, chi, params, config):
            value = wick(a, bank, chi, params, config)
            if np.ndim(value):  # a segment's rows, not the carried bank
                value = value.copy()
                value[3] = math.nan
            return value

        monkeypatch.setattr(solver, "wick_square_renormalized", poisoned)
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 5.0), 0.02, PhysicalParams(mass=1.0), W0
        )
        assert rep.reason == "ConvergenceFailure"
        assert rep.exit_code == 20
        assert rep.tau_stop == 0.0
        assert "non-finite value at node 3" in rep.diagnostics["error"]
        assert rep.diagnostics["raised_at_tau"] > 0.0
        assert sol.taus.tolist() == [0.0]

    def test_one_rhs_evaluation_per_picard_iterate(self, monkeypatch):
        # each segment evaluates f once per iterate; the last evaluation's
        # update norm is the equation residual of the iterate it was made
        # at, whose byproducts (W, a, bank) are carried on
        import semiflrw.solver as solver

        rhs = solver._rhs_detail
        wick = solver.wick_square_renormalized
        calls = []
        wick_calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return rhs(*args, **kwargs)

        def counted_wick(*args, **kwargs):
            wick_calls.append(args[0])
            return wick(*args, **kwargs)

        monkeypatch.setattr(solver, "_rhs_detail", counted)
        monkeypatch.setattr(solver, "wick_square_renormalized", counted_wick)
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 5.0), 0.005, PhysicalParams(mass=1.0),
            WickConfig(k_max=40.0, n_k=192), SolverConfig(),
        )
        assert rep.reason == "TimeHorizon"
        assert all(r.halvings == 0 for r in sol.reports)
        assert len(calls) == sum(r.iterates for r in sol.reports)
        # one Wick quadrature per evaluation plus the initial one: the step
        # estimate reads the carried W from the history
        assert len(wick_calls) == len(calls) + 1


class TestMassiveRun:
    def test_reaches_horizon(self, mass_run):
        sol, rep, params, wcfg = mass_run
        assert rep.reason == "TimeHorizon"
        assert rep.tau_stop == pytest.approx(0.004, abs=1e-12)

    def test_initial_source_is_minus_fifteen_m4(self, mass_run):
        sol, rep, params, wcfg = mass_run
        source0 = 240.0 * math.pi**2 * sol.wick_square[0] - 7.5
        assert source0 == pytest.approx(-15.0, abs=5e-12)

    def test_picard_reports_clean(self, mass_run):
        sol, rep, params, wcfg = mass_run
        assert all(r.converged for r in sol.reports)
        assert all(r.iterates <= 5 for r in sol.reports)
        assert all(
            r.equation_residual is not None and r.equation_residual < 2e-10
            for r in sol.reports
        )

    def test_wronskian_preserved(self, mass_run):
        sol, rep, params, wcfg = mass_run
        bank = sol.final_state.mode_bank_carry
        assert bank.wronskian_error_max < 1e-8
        assert bank.tau == pytest.approx(rep.tau_stop, abs=1e-12)

    def test_anchor_digest_stable(self, mass_run):
        sol, rep, params, wcfg = mass_run
        state0 = initial_segment_state(InitialData(0.0, 1.0, 0.0), params, wcfg)
        assert sol.final_state.anchor_digest == state0.anchor_digest
        assert sol.final_state.mode_bank_carry.anchor_digest() == state0.anchor_digest

    def test_hubble_drifts_negative(self, mass_run):
        # negative source at rest means contraction sets in
        sol, rep, params, wcfg = mass_run
        assert sol.hubble[-1] < 0.0
        assert abs(sol.hubble[-1]) < 1e-3

    def test_wick_square_stays_near_start(self, mass_run):
        sol, rep, params, wcfg = mass_run
        w_start = -1.0 / (32.0 * math.pi**2)
        assert np.max(np.abs(sol.wick_square - w_start)) < 1e-5

    def test_final_hubble_converges_in_k_max(self):
        # the massive_vacuum benchmark inputs: doubling k_max and n_k moves
        # the final H by 3.6e-6 relative (1.2e-7 without the tail fit)
        finals = []
        for k_max, n_k in ((40.0, 192), (80.0, 384)):
            sol, rep = continue_maximal(
                InitialData(0.0, 1.0, 5.0), 0.05, PhysicalParams(mass=1.0),
                WickConfig(k_max=k_max, n_k=n_k), SolverConfig(),
            )
            assert rep.reason == "TimeHorizon"
            finals.append(sol.hubble[-1])
        assert abs(finals[1] - finals[0]) <= 1e-5 * abs(finals[1])

    def test_final_wick_square_at_25_nodes_is_that_of_97(self):
        # the massive_vacuum inputs, spans capped by dt_target and W without
        # the tail fit: with V between nodes the cubic of V and
        # V' = 2 m^2 a^3 H at its ends, the final W at 25 nodes per segment
        # is 4.3e-10 relative off the one at 97 (3.6e-7 with V linear)
        finals = []
        for n in (25, 97):
            sol, rep = continue_maximal(
                InitialData(0.0, 1.0, 5.0), 0.05, PhysicalParams(mass=1.0),
                WickConfig(k_max=40.0, n_k=192, tail_model="none"),
                SolverConfig(dt_target=0.005, nodes_per_segment=n),
            )
            assert rep.reason == "TimeHorizon"
            finals.append(sol.wick_square[-1])
        assert finals[0] == pytest.approx(finals[1], rel=1e-8, abs=0.0)

    def test_final_wick_square_at_k_max_320_holds_on_nodes_refined_four_times(self):
        # the massive_vacuum inputs at k_max 320, where one Magnus step per
        # interval reaches omega h ~ 0.27: the bank swept again over the
        # run's history on nodes refined 4x, V and V' there from the same
        # cubic, gives the same final W (to 1.7e-8 relative)
        from scipy.interpolate import CubicHermiteSpline

        initial, params = InitialData(0.0, 1.0, 5.0), PhysicalParams(mass=1.0)
        wcfg = WickConfig(k_max=320.0, n_k=768)
        sol, rep = continue_maximal(initial, 0.05, params, wcfg, SolverConfig())
        assert rep.reason == "TimeHorizon"
        taus, a = sol.taus, sol.scale_factor
        cubic = CubicHermiteSpline(
            taus, potential(a, 1.0, 1.0), 2.0 * a**3 * sol.hubble
        )
        fine = np.concatenate(
            [np.linspace(lo, hi, 5)[:-1] for lo, hi in zip(taus[:-1], taus[1:])]
            + [taus[-1:]]
        )
        bank = solver.initial_bank(initial, params, wcfg)
        chi, _ = evolve_bank(bank, cubic(fine), cubic(fine, 1), fine)
        reference = wick_square_renormalized(float(a[-1]), bank, chi[-1], params, wcfg)
        assert sol.wick_square[-1] == pytest.approx(reference, rel=1e-6, abs=0.0)

    def test_concurrent_runs_match_their_sequential_runs_bit_for_bit(self):
        # a library caller may solve runs in threads: two different massive
        # runs at once must each give the series of their run alone, so no state
        # that one run computes may leak into the other's arithmetic
        wick_cfg = WickConfig(k_max=20.0, n_k=32)
        runs = [
            (InitialData(0.0, 1.0, 5.0), PhysicalParams(mass=1.0)),
            (InitialData(0.0, 0.5, -3.0), PhysicalParams(mass=2.0)),
        ]
        barrier = threading.Barrier(len(runs))

        def series(initial, params, wait=False):
            if wait:
                barrier.wait(timeout=60.0)
            sol, rep = continue_maximal(initial, 0.02, params, wick_cfg)
            assert rep.reason == "TimeHorizon"
            return [
                values.tobytes()
                for values in (sol.taus, sol.hubble, sol.scale_factor, sol.wick_square)
            ]

        alone = [series(*run) for run in runs]
        with ThreadPoolExecutor(len(runs)) as pool:
            together = list(
                pool.map(lambda run: series(*run, wait=True), runs, timeout=120.0)
            )
        assert together == alone


class TestRhs:
    def test_retarded_in_the_hubble_argument(self):
        params = PhysicalParams(mass=1.0)
        wcfg = WickConfig(k_max=40.0, n_k=192)
        state0 = initial_segment_state(InitialData(0.0, 1.0, 0.0), params, wcfg)
        nodes = np.linspace(0.0, 0.001, 25)

        rule = segment_rule(nodes, state0.back[0])
        share = rule.on_back @ state0.back[1]

        def rhs(x):
            return _rhs_detail(x, nodes, state0, rule, share)[0], None

        probe = 1e-4 * np.cos(np.linspace(0.0, 3.0, 25))
        assert verify_retardation(rhs, probe)

    def test_massless_rhs_closed_form_at_start(self):
        lam = 1.0e4
        params = PhysicalParams(mass=0.0, cosmological_constant=lam)
        state0 = initial_segment_state(InitialData(0.0, 1.0, 20.0), params, W0)
        nodes = np.linspace(0.0, 0.001, 9)
        rule = segment_rule(nodes)
        share = rule.on_back @ state0.back[1]
        rhs = _rhs_detail(np.full(9, 20.0), nodes, state0, rule, share)[0]
        h = 20.0
        expected = (
            h**4 - 2.0 * HC**2 * h**2 + 960.0 * math.pi**2 * lam
        ) / (HC**2 - h**2)
        assert rhs[0] == pytest.approx(expected, rel=1e-14)

    def test_raises_at_critical_hubble(self):
        params = PhysicalParams(mass=0.0)
        state0 = initial_segment_state(InitialData(0.0, 1.0, 0.0), params, W0)
        nodes = np.linspace(0.0, 0.001, 9)
        rule = segment_rule(nodes)
        share = rule.on_back @ state0.back[1]
        with pytest.raises(CriticalHubble) as err:
            _rhs_detail(np.full(9, HC), nodes, state0, rule, share)
        assert err.value.node_index == 0

    def test_rejects_shifted_grid(self):
        params = PhysicalParams(mass=0.0)
        state0 = initial_segment_state(InitialData(0.0, 1.0, 0.0), params, W0)
        nodes = np.linspace(0.5, 0.501, 9)
        rule = segment_rule(nodes)
        share = rule.on_back @ state0.back[1]
        with pytest.raises(ValueError):
            _rhs_detail(np.zeros(9), nodes, state0, rule, share)

    def test_solve_segment_rejects_exhausted_horizon(self):
        params = PhysicalParams(mass=0.0)
        state0 = initial_segment_state(InitialData(0.0, 1.0, 0.0), params, W0)
        with pytest.raises(ValueError):
            solve_segment(state0, 0.0)


class TestCheckpoint:
    def test_roundtrip_and_bitwise_resume(self, tmp_path, mass_run):
        _, _, params, wcfg = mass_run
        # dt_target makes the run four segments long, so it can be cut
        cfg = SolverConfig(dt_target=1e-3)
        sol_ref, rep_ref = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 0.004, params, wcfg, cfg
        )
        cut = replace(cfg, max_segments=2)
        sol_cut, rep_cut = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 0.004, params, wcfg, cut
        )
        assert rep_cut.reason == "ConvergenceFailure"
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, RunLog(sol_cut.final_state), 0.004)
        carry, _, _, horizon = load_checkpoint(path)
        assert horizon == 0.004
        assert carry.anchor_digest == sol_cut.final_state.anchor_digest
        assert np.array_equal(carry.hist_taus, sol_cut.final_state.hist_taus)
        assert np.array_equal(
            carry.mode_bank_carry.chi, sol_cut.final_state.mode_bank_carry.chi
        )
        assert np.array_equal(
            carry.mode_bank_carry.k0, sol_cut.final_state.mode_bank_carry.k0
        )
        sol_res, rep_res = continue_maximal(
            InitialData(0.0, 1.0, 0.0), horizon, params, wcfg, cfg, resume_from=carry
        )
        assert rep_res.reason == rep_ref.reason
        assert np.array_equal(sol_res.taus, sol_ref.taus)
        assert np.array_equal(sol_res.hubble, sol_ref.hubble)
        assert np.array_equal(sol_res.scale_factor, sol_ref.scale_factor)
        assert np.array_equal(sol_res.wick_square, sol_ref.wick_square)
        assert sol_res.segment_bounds == sol_ref.segment_bounds
        assert [r.residuals for r in sol_res.reports] == [
            r.residuals for r in sol_ref.reports
        ]

    def test_massless_checkpoint_roundtrip(self, tmp_path, ds_run):
        sol, rep, h0, params = ds_run
        path = tmp_path / "ckpt0.json"
        log = RunLog(sol.final_state)
        save_checkpoint(path, log, 0.005)
        carry, reports, bounds, horizon = load_checkpoint(path)
        assert carry.mode_bank_carry is None
        assert carry.anchor_digest is None
        assert np.array_equal(carry.hist_hubble, sol.final_state.hist_hubble)
        assert len(reports) == len(sol.reports)
        assert reports[0].halvings == sol.reports[0].halvings

    def test_resume_of_another_run_raises(self, mass_run):
        sol, _, params, wcfg = mass_run
        carry = sol.final_state
        start = InitialData(0.0, 1.0, 0.0)
        gaussian = BogoliubovProfile.gaussian(0.5, 3.0)
        for initial, run_params, run_wick, profile, differs in (
            (start, PhysicalParams(mass=2.0), wcfg, None, "mass"),
            (start, PhysicalParams(mass=0.0), wcfg, None, "mass"),
            (InitialData(0.0, 2.0, 0.0), params, wcfg, None, "initial data"),
            (start, params, wcfg, gaussian, "vacuum state"),
            (
                start, params, replace(wcfg, tail_model="none"), None,
                "tail_model 'power-fit' differs from the config's 'none'",
            ),
            (start, params, replace(wcfg, n_k=96), None, "n_k 192 differs"),
        ):
            with pytest.raises(ValueError, match=f"the checkpoint's {differs}"):
                continue_maximal(
                    initial, 0.008, run_params, run_wick, resume_from=carry,
                    profile=profile,
                )

    def test_resume_under_another_state_raises(self):
        params, wcfg = PhysicalParams(mass=1.0), WickConfig(k_max=20.0, n_k=32)
        initial = InitialData(0.0, 1.0, 0.0)
        carry = initial_segment_state(
            initial, params, wcfg, BogoliubovProfile.gaussian(0.5, 3.0)
        )
        for profile, differs in (
            (None, "Bogoliubov state differs from the config's vacuum state"),
            (BogoliubovProfile.gaussian(0.6, 3.0), "Bogoliubov state differs"),
        ):
            with pytest.raises(ValueError, match=f"the checkpoint's {differs}"):
                continue_maximal(
                    initial, 0.008, params, wcfg, resume_from=carry, profile=profile
                )
        # the same state continues
        _, report = continue_maximal(
            initial, 0.001, params, wcfg, resume_from=carry,
            profile=BogoliubovProfile.gaussian(0.5, 3.0),
        )
        assert report.reason == "TimeHorizon"

    def test_header_holds_the_settings_not_the_grid(self, tmp_path):
        import json

        params, wcfg = PhysicalParams(mass=1.0), WickConfig(k_max=20.0, n_k=32)
        initial = InitialData(0.0, 1.0, 0.0)
        profile = BogoliubovProfile.gaussian(0.5, 3.0)
        carry = initial_segment_state(initial, params, wcfg, profile)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, RunLog(carry), 0.01)
        header = json.loads(path.read_text())
        assert header["version"] == solver.CHECKPOINT_VERSION == 14
        assert {
            "version", "tau_horizon", "initial", "params", "wick", "bogoliubov",
            "anchor_digest",
        } <= set(header)
        # the grid follows from the settings: no momenta, weights or mass
        assert "bank_anchor" not in header
        assert not {"momenta", "weights"} & set(header["wick"])
        # the settings as given: the knee follows from a0 and the mass
        assert header["wick"] == {"k_max": 20.0, "n_k": 32, "tail_model": "power-fit"}
        assert set(header["bogoliubov"]) == {"A_re", "A_im", "B_re", "B_im"}
        loaded = load_checkpoint(path)[0]
        assert loaded.wick_cfg == carry.wick_cfg
        for held, given in zip(loaded.bogoliubov, carry.bogoliubov):
            assert held.tobytes() == given.tobytes()
        assert loaded.mode_bank_carry.momenta.tobytes() == (
            carry.mode_bank_carry.momenta.tobytes()
        )

    def test_load_rejects_a_bank_off_its_digest(self, tmp_path, mass_run):
        import json

        sol = mass_run[0]
        path = tmp_path / "ckpt.json"
        log = RunLog(sol.final_state)
        save_checkpoint(path, log, 0.004)
        header = json.loads(path.read_text())
        header["params"]["mass"] = 2.0
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="anchor digest"):
            load_checkpoint(path)

    def test_header_digest_is_sha256_of_the_anchor(self, tmp_path):
        # the header digest is SHA-256 over the anchor's bytes, as format 13
        # has always written it, pinned for this config's radial grid
        import json

        state = initial_segment_state(
            InitialData(0.0, 1.0, 0.0), PhysicalParams(mass=1.0),
            WickConfig(k_max=40.0, n_k=192),
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, RunLog(state), 0.004)
        header = json.loads(path.read_text())
        assert header["anchor_digest"] == (
            "98137a1fa34fd4da13c150bf524141afe2b9bf6f62220413d61b1fe795f4a54d"
        )

    def test_unchanged_log_appends_nothing(self, tmp_path, ds_run):
        sol = ds_run[0]
        path = tmp_path / "ckpt.json"
        log = RunLog(sol.final_state)
        written = save_checkpoint(path, log, 0.005)
        content = path.read_bytes()
        assert save_checkpoint(path, log, 0.005, written) == written
        assert path.read_bytes() == content

    def test_version_guard(self, tmp_path, ds_run):
        import json

        sol, rep, h0, params = ds_run
        path = tmp_path / "ckpt1.json"
        log = RunLog(sol.final_state)
        save_checkpoint(path, log, 0.005)
        payload = json.loads(path.read_text())
        # format 3 had no physical parameters in its header, format 4 no
        # Wick settings or state, format 5 stored the knee, the fit window
        # and each report's derived values, format 6 was written by the
        # trapezoid rule, format 7 by a rule that read no history, format 8
        # by a frozen-W solve that iterated to rounding and format 9 by a
        # step controller that capped massive spans at the stiffness
        # estimate, so no run of this one continues them bit for bit; a
        # Bogoliubov run's format-13 records hold the vacuum's modes, which
        # this one would carry as the state's
        for version in (3, 4, 5, 6, 7, 8, 9, 13, 99):
            payload["version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=f"version {version}.*rerun"):
                load_checkpoint(path)


class TestDiagnostics:
    def test_de_sitter_curvature(self, ds_run):
        sol, rep, h0, params = ds_run
        diag = solution_diagnostics(sol)
        assert np.max(np.abs(diag["R"] / (12.0 * h0**2) - 1.0)) < 1e-9
        assert np.max(np.abs(diag["dH"])) < 1e-6
        # terms in the source are O(Hc^4), zero only up to their ulp scale
        assert np.max(np.abs(diag["source"])) < 1e-7
        assert np.all(np.diff(diag["t"]) < 0.0)
        assert np.all(diag["margin_hubble"] > 0.0)
        assert np.all(diag["margin_scale"] > 0.0)
        for values in diag.values():
            assert np.all(np.isfinite(values))

    def test_de_sitter_time_is_the_closed_form(self, ds_run):
        # a = a0 / (1 - a0 H0 dtau) on the exact root, so t = t0 +
        # ln(1 - a0 H0 dtau) / H0: the segment rule meets it to 3.9e-9
        # relative at the end, the trapezoid over the joined history 7.2e-7
        sol, rep, h0, params = ds_run
        t = solution_diagnostics(sol)["t"]
        a0 = sol.final_state.initial.a0
        exact = math.log1p(-a0 * h0 * (sol.taus[-1] - sol.taus[0])) / h0
        assert len(sol.reports) > 1
        assert t[-1] == pytest.approx(exact, rel=1e-8)

    def test_minkowski_series(self):
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 0.2, PhysicalParams(mass=0.0), W0
        )
        diag = solution_diagnostics(sol)
        assert np.max(np.abs(diag["R"])) == 0.0
        assert np.max(np.abs(diag["dH"])) == 0.0
        assert np.max(np.abs(diag["t"] + diag["tau"])) < 1e-12

    def test_exit_code_table(self):
        assert EXIT_CODES == {
            "TimeHorizon": 0,
            "HitCriticalHubble": 10,
            "ScaleFactorBlowUp": 11,
            "ConvergenceFailure": 20,
        }


class TestBogoliubovState:
    def test_gaussian_profile_shifts_initial_wick_square(self):
        from semiflrw.wick import BogoliubovProfile

        params = PhysicalParams(mass=1.0)
        wcfg = WickConfig(k_max=40.0, n_k=192)
        profile = BogoliubovProfile.gaussian(amplitude=0.2, k_scale=2.0)
        init = InitialData(0.0, 1.0, 0.0)
        state_v = initial_segment_state(init, params, wcfg)
        state_b = initial_segment_state(init, params, wcfg, profile)
        assert state_b.hist_wick[0] > state_v.hist_wick[0]

    def test_massless_state_is_rejected(self):
        profile = BogoliubovProfile.gaussian(3.0, 2.0)
        initial, params = InitialData(0.0, 1.0, 5.0), PhysicalParams(mass=0.0)
        with pytest.raises(ValueError, match="Bogoliubov state needs mass > 0"):
            initial_segment_state(initial, params, W0, profile)
        with pytest.raises(ValueError, match="Bogoliubov state needs mass > 0"):
            continue_maximal(initial, 0.01, params, W0, profile=profile)

    def test_non_finite_profile_is_rejected_up_front(self):
        from semiflrw.wick import BogoliubovProfile, InvalidProfile

        profile = BogoliubovProfile(
            A=lambda k: np.ones_like(k), B=lambda k: np.where(k > 5.0, math.nan, 0.0)
        )
        with pytest.raises(InvalidProfile, match="not finite"):
            continue_maximal(
                InitialData(0.0, 1.0, 5.0), 0.02, PhysicalParams(mass=1.0),
                WickConfig(k_max=40.0, n_k=192), SolverConfig(), profile=profile,
            )

    @given(amplitude=st.floats(-2.0, 2.0), k_scale=st.floats(0.5, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_folded_bank_carries_the_state(self, amplitude, k_scale):
        initial, params = InitialData(0.0, 1.0, 0.0), PhysicalParams(mass=1.0)
        wcfg = WickConfig(k_max=20.0, n_k=32, tail_model="none")
        profile = BogoliubovProfile.gaussian(amplitude, k_scale)
        vacuum = initial_segment_state(initial, params, wcfg).mode_bank_carry
        state = initial_segment_state(initial, params, wcfg, profile)
        # the fold keeps the Wronskian, (|A|^2 - |B|^2) i, to its rounding
        a_sq, b_sq = (np.abs(values) ** 2 for values in state.bogoliubov)
        bank, eps = state.mode_bank_carry, np.finfo(float).eps
        wronskian = bank.dchi * np.conj(bank.chi) - bank.chi * np.conj(bank.dchi)
        assert np.all(np.abs(wronskian - (a_sq - b_sq) * 1j) <= 4.0 * eps * (a_sq + b_sq))
        # the vacuum's modes swept against the state's first segment
        segment = solve_segment(state, 0.01)
        h, a = segment.hist_hubble, segment.hist_a
        chi, _ = evolve_bank(
            vacuum, potential(a, 1.0, 1.0), 2.0 * a**3 * h, segment.hist_taus
        )
        # W of the state's modes less W of the vacuum's is the state's
        # correction, at tau0 and after the segment, to the rounding of the
        # two quadratures
        for w, a_tau, xi, chi_vac in (
            (state.hist_wick[0], 1.0, bank.chi, vacuum.chi),
            (segment.hist_wick[-1], a[-1], segment.mode_bank_carry.chi, chi[-1]),
        ):
            shift = w - wick_square_renormalized(a_tau, vacuum, chi_vac, params, wcfg)
            oracle = bogoliubov_delta_per_node(a_tau, vacuum, chi_vac, profile, wcfg)
            size = np.sum(
                vacuum.weights * vacuum.momenta**2 * (np.abs(xi) ** 2 + np.abs(chi_vac) ** 2)
            ) / TWO_PI_SQ / a_tau**2
            assert abs(shift - oracle) <= 16.0 * eps * size

    @pytest.mark.parametrize("amplitude", [2.0, 1e6])
    def test_perturbed_folded_bank_fails_the_drift_check(self, amplitude):
        # at amplitude 1e6 the drift check allows the fold's rounding,
        # 4 eps max(|A|^2 + |B|^2) = 1.8e-3 over WRONSKIAN_TOLERANCE; a
        # corrupt carry still exceeds it, the carry itself does not.  The
        # modes are real at tau0 = 0, so the corruption is imaginary: a
        # real one would keep the Wronskian
        carry = initial_segment_state(
            InitialData(0.0, 1.0, 0.0), PhysicalParams(mass=1.0),
            WickConfig(k_max=40.0, n_k=192), BogoliubovProfile.gaussian(amplitude, 2.0),
        )
        bank = carry.mode_bank_carry
        corrupt = bank.moved_to(bank.chi, bank.dchi + 1e-3j, bank.tau)
        with pytest.raises(BankCheckFailed, match="carried Wronskian drift"):
            solve_segment(replace(carry, mode_bank_carry=corrupt), 0.01)
        assert solve_segment(carry, 0.01).tau_start > 0.0

    def test_strongly_squeezed_state_reaches_the_critical_rate(self):
        # the folded tau0 modes drift by 2.7e-4 here, eps (|A|^2 + |B|^2) in
        # size: held to the plain WRONSKIAN_TOLERANCE, the run would end a
        # ConvergenceFailure
        _, report = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 0.01, PhysicalParams(mass=1.0),
            WickConfig(k_max=40.0, n_k=192), SolverConfig(),
            profile=BogoliubovProfile.gaussian(1e6, 2.0),
        )
        assert report.reason == "HitCriticalHubble"

    def test_profile_changes_dynamics(self):
        from semiflrw.wick import BogoliubovProfile

        params = PhysicalParams(mass=1.0)
        wcfg = WickConfig(k_max=40.0, n_k=192)
        profile = BogoliubovProfile.gaussian(amplitude=0.2, k_scale=2.0)
        init = InitialData(0.0, 1.0, 0.0)
        sol_b, rep_b = continue_maximal(
            init, 0.003, params, wcfg, SolverConfig(), profile=profile
        )
        sol_v, rep_v = continue_maximal(init, 0.003, params, wcfg, SolverConfig())
        assert rep_b.reason == "TimeHorizon"
        assert sol_b.hubble[-1] != sol_v.hubble[-1]
        # excited state carries positive energy density relative to vacuum
        assert sol_b.hubble[-1] > sol_v.hubble[-1]


class TestResumeFromTheState:
    """A state carries its run's Picard reports and segment bounds, so a
    resume is one value: resume_from."""

    @pytest.mark.parametrize("mass, horizon", [(1.0, 0.03), (0.0, 0.02)])
    def test_a_resume_after_any_segment_is_the_uninterrupted_run(self, mass, horizon):
        initial, params = InitialData(0.0, 1.0, 5.0), PhysicalParams(mass=mass)
        wick_cfg = WickConfig(k_max=20.0, n_k=32)
        joined = []
        whole, report = continue_maximal(
            initial, horizon, params, wick_cfg,
            segment_callback=lambda log: joined.append(log.join()),
        )
        assert report.reason == "TimeHorizon"
        assert len(joined) == len(whole.reports) >= 4
        # a trial is retried, so the halvings are compared too
        assert any(r.halvings for r in whole.reports)
        expected = solution_diagnostics(whole)
        for carry in joined[:-1]:
            sol, rep = continue_maximal(
                initial, horizon, params, wick_cfg, resume_from=carry
            )
            assert rep == report
            assert rep.diagnostics["segments"] == len(whole.reports)
            for ours, theirs in zip(
                (sol.taus, sol.hubble, sol.scale_factor, sol.wick_square),
                (whole.taus, whole.hubble, whole.scale_factor, whole.wick_square),
            ):
                assert np.array_equal(ours, theirs)
            assert sol.segment_bounds == whole.segment_bounds
            assert [(r.residuals, r.halvings) for r in sol.reports] == [
                (r.residuals, r.halvings) for r in whole.reports
            ]
            got = solution_diagnostics(sol)
            assert got.keys() == expected.keys()
            assert all(np.array_equal(got[k], expected[k]) for k in expected)

    def test_a_longer_run_from_a_final_state_keeps_its_segments(self):
        # resumed from a final_state alone, a run once lost the reports and
        # bounds before it: its bounds started at the resume and its
        # diagnostics counted 4 segments of 8
        initial, params = InitialData(0.0, 1.0, 5.0), PhysicalParams(mass=0.0)
        wick_cfg = WickConfig(k_max=40.0, n_k=64)
        first, _ = continue_maximal(initial, 0.02, params, wick_cfg)
        assert (len(first.reports), first.taus.size) == (4, 97)
        sol, rep = continue_maximal(
            initial, 0.05, params, wick_cfg, resume_from=first.final_state
        )
        assert rep.reason == "TimeHorizon"
        assert sol.segment_bounds[:5] == first.segment_bounds
        assert sol.segment_bounds[0] == 0.0 and sol.segment_bounds[-1] == 0.05
        assert sol.reports[:4] == first.reports
        assert rep.diagnostics["segments"] == len(sol.reports) == 8
        assert solution_diagnostics(sol)["t"].size == sol.taus.size


def carry_with_history(hubble_of, report=PicardReport((1e-11,), 1e-10)):
    """A massless carry whose 49-node history on [0, 1e-3] is hubble_of(tau)."""
    taus = np.linspace(0.0, 1e-3, 49)
    state0 = initial_segment_state(
        InitialData(0.0, 1.0, 0.0), PhysicalParams(mass=0.0), W0
    )
    return replace(
        state0, hist_taus=taus, hist_hubble=hubble_of(taus), hist_a=np.ones(49),
        hist_wick=np.zeros(49), reports=(report,), bounds=(0.0, 1e-3),
    )


class TestPicardSeed:
    nodes = np.linspace(1e-3, 2e-3, 49)

    def test_extrapolates_a_quartic_history(self):
        def quartic(tau):
            return 10.0 + 3e3 * tau - 4e6 * tau**2 + 2e9 * tau**3 - 7e11 * tau**4

        carry = carry_with_history(quartic)
        seed = picard_seed(carry, self.nodes, 10.0)
        assert seed[0] == carry.hubble_start
        # extrapolating one segment ahead amplifies the history's rounding
        # by the Lebesgue constant, about 1e3 for these five nodes
        np.testing.assert_allclose(seed, quartic(self.nodes), rtol=1e-10, atol=0)

    def test_no_seed_on_the_first_segment(self):
        state0 = initial_segment_state(
            InitialData(0.0, 1.0, 5.0), PhysicalParams(mass=0.0), W0
        )
        assert picard_seed(state0, self.nodes - 1e-3, 10.0) is None

    def test_a_carry_whose_last_segment_halved_is_seeded(self):
        # the seed reads the history alone, not the halvings that made it
        def line(tau):
            return 10.0 + 1e3 * tau

        halved = PicardReport((1e-11,), 1e-10, halvings=1)
        seed = picard_seed(carry_with_history(line, halved), self.nodes, 10.0)
        assert seed is not None
        assert np.array_equal(
            seed, picard_seed(carry_with_history(line), self.nodes, 10.0)
        )

    def test_no_seed_with_fewer_than_nine_nodes_per_segment(self):
        carry = carry_with_history(lambda tau: 10.0 + 1e3 * tau)
        assert picard_seed(carry, self.nodes, 10.0) is not None
        assert picard_seed(carry, np.linspace(1e-3, 2e-3, 7), 10.0) is None

    def test_no_seed_on_a_constant_history(self):
        carry = carry_with_history(lambda tau: np.full(tau.size, 10.0))
        assert picard_seed(carry, self.nodes, 10.0) is None

    def test_no_seed_out_of_the_tube_just_below_the_wall(self):
        # H climbs steeply to 1e-3 below Hc; the tube radius is half the gap
        carry = carry_with_history(lambda tau: HC - 1e-3 - 1e2 * (1e-3 - tau))
        delta = 0.5 * (HC - abs(carry.hubble_start))
        assert picard_seed(carry, self.nodes, 1e3) is not None
        assert picard_seed(carry, self.nodes, delta) is None

    def test_seeded_segments_take_at_most_two_iterates(self):
        # unseeded, every segment of this run takes 5 or 6 iterates
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 5.0), 0.01, PhysicalParams(mass=1.0),
            WickConfig(k_max=20.0, n_k=32), SolverConfig(dt_target=1.12e-3),
        )
        assert rep.reason == "TimeHorizon"
        assert len(sol.reports) == 9
        assert all(r.halvings == 0 for r in sol.reports)
        assert max(r.iterates for r in sol.reports[1:]) <= 2

    def test_loaded_carry_holds_the_reports_and_bounds(self, tmp_path, mass_run):
        sol = mass_run[0]
        path = tmp_path / "ckpt.json"
        log = RunLog(sol.final_state)
        save_checkpoint(path, log, 0.004)
        carry, reports, bounds, _ = load_checkpoint(path)
        assert carry.reports == reports == sol.final_state.reports == sol.reports
        assert carry.bounds == bounds == sol.final_state.bounds == sol.segment_bounds


def massive_segments(initial, params, wick_cfg, count):
    """The first count segments of a run, each with the carry it started
    from, as solve_segment returns them."""
    carry = initial_segment_state(initial, params, wick_cfg)
    out = []
    for _ in range(count):
        segment = solve_segment(carry, 1.0)
        out.append((carry, segment))
        carry = segment
    return out


class TestFixedWickSplit:
    """A massive segment's iterates solve the equation at a frozen W
    between two bank sweeps; the sweep at an iterate still decides."""

    initial = InitialData(0.0, 1.0, 5.0)
    params = PhysicalParams(mass=1.0)
    wick_cfg = WickConfig(k_max=20.0, n_k=32)

    def test_a_segment_accepted_on_its_seed(self):
        # the twentieth segment is the first that its seed solves: the first
        # sweeps of the nineteen before it leave full-map residuals of 4e-8
        # to 1.6e-3, above tol 1e-10, and the twentieth's leaves 5.7e-11
        segments = massive_segments(self.initial, self.params, self.wick_cfg, 20)
        seeded = [(c, s) for c, s in segments if s.reports[0].iterates == 1]
        assert seeded
        for carry, segment in seeded:
            report = segment.reports[0]
            assert report.residuals[0] < report.tol
            # W, a and the bank are those of the one sweep, at the stored H
            rule = segment_rule(segment.hist_taus, carry.back[0])
            f, (w, a, history) = _rhs_detail(
                segment.hist_hubble, segment.hist_taus, carry, rule,
                rule.on_back @ carry.back[1],
            )
            assert np.array_equal(w, segment.hist_wick)
            assert np.array_equal(a, segment.hist_a)
            assert np.array_equal(history[0][-1], segment.mode_bank_carry.chi)

    def test_the_split_changes_the_iterates_not_the_fixed_point(self):
        (_, first), (carry, segment) = massive_segments(
            self.initial, self.params, self.wick_cfg, 2
        )
        assert segment.reports[0].halvings == 0
        nodes = segment.hist_taus
        tol = SolverConfig().tol

        rule = segment_rule(nodes, carry.back[0])
        share = rule.on_back @ carry.back[1]

        def plain(tol):
            # from the back points of the segment's rule
            return picard_solve(
                np.full(nodes.size, carry.hubble_start),
                lambda h: _rhs_detail(h, nodes, carry, rule, share), nodes, tol,
                MAX_ITER,
                history=(rule, carry.back[2]),
            )

        # against the fixed point to 1e-3 tol, and against plain Picard at tol
        for reference, _, _ in (plain(1e-3 * tol), plain(tol)):
            assert np.max(np.abs(segment.hist_hubble - reference)) < tol
        # every sweep is one bank evolution: the split needs fewer
        assert segment.reports[0].iterates < plain(tol)[1].iterates

    def test_a_sweep_after_a_fixed_w_solve_leaves_rounding(self):
        # W moves with H only through a(H), so the fixed point at the swept
        # W leaves a residual orders of magnitude below the one before,
        # where a plain Picard step cuts it by about the contraction target
        segments = massive_segments(self.initial, self.params, self.wick_cfg, 8)
        swept = [s.reports[0] for _, s in segments if s.reports[0].iterates > 1]
        assert swept
        for report in swept:
            assert max(report.contraction_ratios) < 1e-3

    def test_a_frozen_solve_that_stalls_rejects_its_trial(self, monkeypatch, sweeps):
        # a frozen-W solve that does not converge rejects its trial before
        # the bank sweeps there, and the run that no frozen solve converges
        # on ends with that solve's residuals
        picard = solver.picard_solve
        stalls, stalled = [1], []

        def frozen(f0, rhs, nodes, tol, *args, **kwargs):
            if stalls[0] > 0:
                stalls[0] -= 1
                stalled.append(nodes[-1] - nodes[0])
                raise NoConvergence("stalled", PicardReport((1.0,), tol))
            return picard(f0, rhs, nodes, tol, *args, **kwargs)

        monkeypatch.setattr(solver, "picard_solve", frozen)
        start = initial_segment_state(self.initial, self.params, self.wick_cfg)
        segment = solve_segment(start, 1.0)
        assert segment.reports[0].converged
        assert segment.reports[0].halvings >= 1
        assert sweeps and max(t[-1] - t[0] for t in sweeps) < stalled[0]
        stalls[0], sweeps[:] = math.inf, []
        sol, rep = continue_maximal(self.initial, 0.01, self.params, self.wick_cfg)
        assert rep.reason == "ConvergenceFailure"
        assert rep.diagnostics["picard_residuals"] == [1.0]
        assert not sweeps and sol.taus.tolist() == [0.0]

    def test_the_seed_screen_removes_only_sweeps(self, monkeypatch, sweeps):
        # the massive_vacuum benchmark inputs: the cold first trial's seed
        # has a Richardson estimate of 9.0e-8 against the bound 1.2e-8, so
        # the screen rejects it before any sweep.  Without the screen (the
        # first check_accuracy of each trial skipped; the check after the
        # sweeps still runs) it sweeps twice before the same rejection, and
        # the run is otherwise the same
        initial, params = InitialData(0.0, 1.0, 5.0), PhysicalParams(mass=1.0)
        wick_cfg = WickConfig(k_max=40.0, n_k=192)
        start = initial_segment_state(initial, params, wick_cfg)
        driver, check = solver.picard_solve_with_halving, solver.check_accuracy
        checks = []  # per trial, the accuracy checks it has made

        def counted(trial, *args, **kwargs):
            def each(*trial_args):
                checks.append(0)
                return trial(*trial_args)

            return driver(each, *args, **kwargs)

        def unscreened(*args):
            checks[-1] += 1
            return check(*args) if checks[-1] > 1 else 0.0

        runs = []
        for screened, first, total in ((True, 0, 10), (False, 2, 12)):
            if not screened:
                monkeypatch.setattr(solver, "picard_solve_with_halving", counted)
                monkeypatch.setattr(solver, "check_accuracy", unscreened)
            sweeps.clear()
            with pytest.raises(Rejected):
                solve_segment(start, 0.05, SolverConfig(max_halvings=0))
            assert len(sweeps) == first
            sweeps.clear()
            sol, rep = continue_maximal(initial, 0.05, params, wick_cfg)
            assert rep.reason == "TimeHorizon"
            assert len(sweeps) == total
            runs.append((sol.taus, sol.hubble, sol.scale_factor, sol.wick_square))
        assert all(map(np.array_equal, *runs))

    def test_a_retry_seeds_from_the_history_on_its_own_nodes(self, monkeypatch):
        # a trial reads its nodes alone: every trial's first frozen-W solve,
        # a retry's as the first one's, is at the W history extrapolated onto
        # its nodes, from the H history extrapolated onto them
        carry = massive_segments(self.initial, self.params, self.wick_cfg, 3)[-1][1]
        # 8 times the proposed span, which the default dt_target would cap
        carry = replace(carry, next_step=(8.0 * carry.next_step[0], "contraction"))
        driver, frozen = solver.picard_solve_with_halving, solver.hubble_at_fixed_wick
        trials, first = [], []  # each trial's nodes, and its first frozen solve

        def counted(trial, *args, **kwargs):
            def each(nodes):
                trials.append(nodes)
                return trial(nodes)

            return driver(each, *args, **kwargs)

        def spied(carry, nodes, rule, w, x, *rest):
            if len(first) < len(trials):
                first.append((nodes, w, x))
            return frozen(carry, nodes, rule, w, x, *rest)

        monkeypatch.setattr(solver, "picard_solve_with_halving", counted)
        monkeypatch.setattr(solver, "hubble_at_fixed_wick", spied)
        segment = solve_segment(carry, 1.0, SolverConfig(dt_target=1.0))
        halvings = segment.reports[0].halvings
        assert halvings >= 1
        assert len(first) == len(trials) == halvings + 1
        for nodes, (at, w, x) in zip(trials, first):
            assert at is nodes
            assert np.array_equal(w, extrapolate(carry, carry.hist_wick, nodes))
            assert np.array_equal(x, extrapolate(carry, carry.hist_hubble, nodes))

    def test_a_stiff_span_at_the_wall_converges_or_is_rejected(self, sweeps):
        # near the wall a span 15 or 500 times the proposed one is too stiff
        # for the frozen-W solve.  At 500 every trial's seed solve meets the
        # critical rate, so the trials are rejected before the bank sweeps
        # and the run ends ConvergenceFailure where it started: no converged
        # node reached the wall.  At 15 the trial converges after halvings,
        # and the trials before the accepted one are rejected unswept, so
        # only that one sweeps, twice; that run reaches the wall.  (The
        # spans are those of 30 and 1000 times the proposal at the
        # contraction target 0.1.)
        params = PhysicalParams(
            mass=1.0, cosmological_constant=1.1 * HC**4 / (960.0 * math.pi**2)
        )
        initial = InitialData(0.0, 1.0, 0.99 * HC)
        start = initial_segment_state(initial, params, self.wick_cfg)
        span, _ = choose_step(
            start.hubble_start, start.a_start, float(start.hist_wick[-1]),
            start.hubble_start, params,
        )
        for factor, most in ((15.0, 2), (500.0, 0)):
            sweeps.clear()
            carry = replace(start, next_step=(factor * span, "contraction"))
            if most:
                segment = solve_segment(carry, 1.0)
                assert segment.reports[0].converged
                assert segment.reports[0].halvings > 0
            else:
                with pytest.raises(CriticalHubble):
                    solve_segment(carry, 1.0)
            assert len(sweeps) <= most
            sol, rep = continue_maximal(
                initial, 1.0, params, self.wick_cfg, resume_from=carry
            )
            assert all(r.converged for r in sol.reports)
            if most:
                assert rep.reason == "HitCriticalHubble"
            else:
                assert rep.reason == "ConvergenceFailure"
                assert rep.diagnostics["segments"] == 0
                assert rep.diagnostics["margin_hubble"] > 0.0
                assert "raised_at_tau" in rep.diagnostics


class TestSegmentCallback:
    def test_called_once_per_segment_with_growing_records(self):
        params = PhysicalParams(mass=0.0, cosmological_constant=lam_for_root(5.0))
        calls = []
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, 0.0), 0.004, params, W0,
            SolverConfig(dt_target=1e-3),
            segment_callback=lambda log: calls.append(
                (log.carry.tau_start, len(log.reports), len(log.bounds))
            ),
        )
        assert len(calls) == len(sol.reports)
        assert [c[1] for c in calls] == list(range(1, len(calls) + 1))
        assert calls[-1][0] == sol.taus[-1]


class TestRootFamily:
    @settings(max_examples=10, deadline=None)
    @given(fraction=st.floats(min_value=0.05, max_value=0.9))
    def test_source_roots_are_fixed_points(self, fraction):
        lam = fraction * HC**4 / (960.0 * math.pi**2)
        h_root = math.sqrt(HC**2 - math.sqrt(HC**4 - 960.0 * math.pi**2 * lam))
        params = PhysicalParams(mass=0.0, cosmological_constant=lam)
        sol, rep = continue_maximal(
            InitialData(0.0, 1.0, h_root), 3e-4, params, W0,
            SolverConfig(dt_target=1e-4, nodes_per_segment=13),
        )
        assert rep.reason == "TimeHorizon"
        assert np.max(np.abs(sol.hubble - h_root)) < 1e-10
