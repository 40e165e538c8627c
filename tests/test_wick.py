"""Tests for the renormalized Wick square: quadrature, tail fit, subtraction."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from semiflrw.core import EULER_GAMMA, PhysicalParams
from semiflrw.modes import ModeBank, evolve_bank
from semiflrw.wick import (
    PANEL_NODES,
    PANEL_POINTS,
    PANEL_WEIGHTS,
    TWO_PI_SQ,
    BogoliubovProfile,
    InvalidProfile,
    TailFit,
    TailFitFailed,
    WickConfig,
    finite_terms,
    radial_grid,
    radial_integral,
    wick_integrand,
    wick_square_renormalized,
)

from oracles import (
    Potential,
    bogoliubov_delta_per_node,
    perturbative_orders,
    wick_square_per_node,
)

MASS = 1.0


def sine_background(n_nodes=401):
    """The background bg = (taus, a) and its Potential."""
    taus = np.linspace(0.0, 2.0, n_nodes)
    a = 1.0 + 0.1 * np.sin(taus)
    return (taus, a), Potential.from_scale_factor(taus, a, MASS)


def a_at(bg, tau):
    return float(np.interp(tau, *bg))


def evolved_bank(config, knee):
    bg, pot = sine_background()
    momenta, weights = radial_grid(config.k_max, config.n_k, knee)
    bank = ModeBank.at_initial(momenta, weights, a0=1.0, mass=MASS, tau0=0.0)
    chi, dchi = evolve_bank(bank, pot.V, pot.dV, pot.taus)
    return bg, bank.moved_to(chi[-1], dchi[-1], pot.taus[-1])


@pytest.fixture(scope="module")
def bank20():
    config = WickConfig(k_max=20.0, n_k=96)
    bg, bank = evolved_bank(config, knee=10.0)
    return config, bg, bank


@pytest.fixture(scope="module")
def bank40():
    config = WickConfig(k_max=40.0, n_k=192)
    bg, bank = evolved_bank(config, knee=10.0)
    return config, bg, bank


@pytest.fixture(scope="module")
def bank80():
    config = WickConfig(k_max=80.0, n_k=384)
    bg, bank = evolved_bank(config, knee=10.0)
    return config, bg, bank


class TestConfig:
    def test_defaults_valid(self):
        config = WickConfig(k_max=20.0)
        assert config.tail_model == "power-fit"
        assert config.n_k == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_max": 0.0},
            {"k_max": math.inf},
            {"k_max": 10.0, "n_k": 8},
            {"k_max": 10.0, "tail_model": "spline"},
            {"k_max": -1.0},
            {"k_max": -math.inf},
            # n_k must be a multiple of the panel size, 8
            {"k_max": 10.0, "n_k": 20},
            {"k_max": 10.0, "n_k": -64},
            {"k_max": math.nan},
            {"k_max": 10.0, "tail_model": "None"},
            # integer fields take integers only, not a float that divides
            {"k_max": 10.0, "n_k": math.nan},
            {"k_max": 10.0, "n_k": 64.0},
            {"k_max": -0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            WickConfig(**kwargs)


class TestRadialGrid:
    def test_panel_rule_is_numpys_gauss_legendre_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(PANEL_POINTS)
        assert PANEL_NODES.tobytes() == nodes.tobytes()
        assert PANEL_WEIGHTS.tobytes() == weights.tobytes()

    def test_nodes_inside_interval(self):
        nodes, weights = radial_grid(30.0, 64, 2.0)
        assert nodes.size == 64
        assert np.all(np.diff(nodes) > 0.0)
        assert nodes[0] > 0.0 and nodes[-1] < 30.0
        assert np.all(weights > 0.0)
        assert math.isclose(float(np.sum(weights)), 30.0, rel_tol=1e-12)

    def test_grading_concentrates_below_knee(self):
        nodes, _ = radial_grid(30.0, 64, 2.0)
        # half the panels cover [0, knee]
        assert int(np.count_nonzero(nodes <= 2.0)) == 32

    def test_knee_rounded_below_k_max_is_uniform_panels(self):
        # 10 a0 m for m = 2 - 1 ulp lands one ulp under k_max = 20
        knee = 10.0 * 1.9999999999999998
        assert knee < 20.0
        nodes, weights = radial_grid(20.0, 32, knee)
        uniform, _ = radial_grid(20.0, 32)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, uniform)

    def test_no_knee_is_uniform_panels(self):
        nodes, weights = radial_grid(16.0, 32, 0.0)
        assert nodes.size == 32
        # a zero knee is the default and means linear panels: widths all equal
        assert np.array_equal(nodes, radial_grid(16.0, 32)[0])
        np.testing.assert_allclose(
            np.sum(weights.reshape(4, 8), axis=1), 4.0, rtol=1e-12, atol=0.0
        )


class TestRadialIntegral:
    # int_0^inf k^2/(k^2+1)^2 dk = pi/4
    exact = math.pi / 4.0 / TWO_PI_SQ

    def quartic_result(self, k_max, n_k, tail_model):
        config = WickConfig(k_max=k_max, n_k=n_k, tail_model=tail_model)
        nodes, weights = radial_grid(k_max, n_k, 2.0)
        samples = 1.0 / (nodes**2 + 1.0) ** 2
        return radial_integral(samples, config, momenta=nodes, weights=weights)

    def test_quartic_decay_oracle(self):
        value, tail = self.quartic_result(60.0, 96, "power-fit")
        assert math.isclose(value, self.exact, rel_tol=5e-4)
        assert 3.9 < tail.p_raw < 4.1

    def test_tail_fit_beats_truncation(self):
        with_fit, _ = self.quartic_result(60.0, 96, "power-fit")
        without, tail = self.quartic_result(60.0, 96, "none")
        assert abs(with_fit - self.exact) < 0.1 * abs(without - self.exact)
        assert tail is None

    def test_shape_mismatch_rejected(self):
        config = WickConfig(k_max=10.0, n_k=16)
        with pytest.raises(ValueError):
            radial_integral(np.ones(7), config, momenta=np.ones(5), weights=np.ones(5))

    def test_zero_samples_integrate_to_zero(self):
        config = WickConfig(k_max=10.0, n_k=16)
        nodes, weights = radial_grid(10.0, 16)
        value, tail = radial_integral(np.zeros(16), config, momenta=nodes, weights=weights)
        assert value == 0.0
        # an all-zero window has no fit, and no tail is added
        assert not tail.ok
        assert tail.correction == 0.0

    @given(
        alpha=st.floats(-3.0, 3.0, allow_nan=False),
        beta=st.floats(-3.0, 3.0, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity_without_tail(self, alpha, beta):
        config = WickConfig(k_max=10.0, n_k=32, tail_model="none")
        nodes, weights = radial_grid(10.0, 32)
        g = np.exp(-nodes)
        h = 1.0 / (1.0 + nodes**2)
        combined, _ = radial_integral(
            alpha * g + beta * h, config, momenta=nodes, weights=weights
        )
        parts = alpha * radial_integral(g, config, momenta=nodes, weights=weights)[0]
        parts += beta * radial_integral(h, config, momenta=nodes, weights=weights)[0]
        assert math.isclose(combined, parts, rel_tol=1e-10, abs_tol=1e-15)

    def test_rows_match_single_rows(self):
        # an all-zero window, an ill-conditioned one and a fitted one in
        # one block each get their own case
        config = WickConfig(k_max=60.0, n_k=96)
        nodes, weights = radial_grid(60.0, 96, 2.0)
        spike = np.zeros(96)
        spike[-1] = 1.0
        block = np.array([np.zeros(96), spike, 1.0 / (nodes**2 + 1.0) ** 2])
        with pytest.warns(TailFitFailed, match="at row 1"):
            values, tails = radial_integral(block, config, momenta=nodes, weights=weights)
        assert list(tails.ok) == [False, False, True]
        for j, samples in enumerate(block):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TailFitFailed)
                value, tail = radial_integral(samples, config, momenta=nodes, weights=weights)
            assert values[j] == value
            # the rows without a fit hold NaN for its coefficient and exponents
            for field in fields(TailFit):
                assert np.array_equal(
                    getattr(tails, field.name)[j], getattr(tail, field.name), equal_nan=True
                )

    def test_ill_conditioned_tail_warns(self):
        config = WickConfig(k_max=10.0, n_k=16)
        nodes, weights = radial_grid(10.0, 16)
        samples = np.zeros(16)
        samples[-1] = 1.0
        with pytest.warns(TailFitFailed):
            _, tail = radial_integral(samples, config, momenta=nodes, weights=weights)
        assert tail.correction == 0.0
        assert not tail.ok


class TestIntegrand:
    def test_vacuum_cancellation(self):
        k = np.array([0.5, 2.0, 7.0])
        k0 = np.sqrt(k**2 + MASS**2)
        chi = np.sqrt(1.0 / (2.0 * k0)) * np.exp(1j * k0 * 0.3)
        values = wick_integrand(chi, k0, 0.0)
        assert np.max(np.abs(values)) < 1e-15

    def test_rejects_nonpositive_k0(self):
        with pytest.raises(ValueError):
            wick_integrand(np.array([1.0 + 0j]), np.array([0.0]), 0.0)

    def test_order_zero_cancellation_is_exact(self):
        # counterterm V/(4 k0^3) enters at first order, so order 0 uses V = 0
        _, pot = sine_background(2001)
        for k in (0.7, 2.3, 11.0):
            k0 = math.sqrt(k**2 + pot.freq_shift)
            chi0 = perturbative_orders(k, pot, 0, 2.0)[0]
            assert abs(wick_integrand(chi0, k0, 0.0)) < 1e-15

    @pytest.mark.parametrize("k", [0.7, 2.3, 11.0])
    def test_order_one_matches_cosine_transform(self, k):
        _, pot = sine_background(2001)
        tau_eval = 2.0
        k0 = math.sqrt(k**2 + pot.freq_shift)
        orders = perturbative_orders(k, pot, 1, tau_eval)
        v_tau = float(np.interp(tau_eval, pot.taus, pot.V))
        first_order = 2.0 * (orders[1] * np.conj(orders[0])).real + v_tau / (4.0 * k0**3)
        etas = pot.taus
        v_prime = np.gradient(pot.V, etas, edge_order=2)
        transform = simpson(
            np.cos(2.0 * k0 * (etas - tau_eval)) * v_prime, x=etas
        ) / (4.0 * k0**3)
        assert abs(first_order - transform) < 1e-8


class TestWickSquare:
    def test_initial_time_closed_form_default_scale(self, bank20):
        config, bg, bank = bank20
        fresh = ModeBank.at_initial(
            bank.momenta, bank.weights, a0=1.0, mass=MASS, tau0=0.0
        )
        params = PhysicalParams(mass=MASS)
        value = wick_square_renormalized(a_at(bg, 0.0), fresh, fresh.chi, params, config)
        assert math.isclose(value, -1.0 / (32.0 * math.pi**2), rel_tol=1e-12)

    def test_initial_time_closed_form_custom_scale(self, bank20):
        config, bg, bank = bank20
        fresh = ModeBank.at_initial(
            bank.momenta, bank.weights, a0=1.0, mass=MASS, tau0=0.0
        )
        params = PhysicalParams(mass=MASS, length_scale=2.0)
        value = wick_square_renormalized(a_at(bg, 0.0), fresh, fresh.chi, params, config)
        expected = (
            MASS**2
            / (16.0 * math.pi**2)
            * (2.0 * (EULER_GAMMA + math.log(MASS * 2.0 / math.sqrt(2.0))) - 0.5)
        )
        assert math.isclose(value, expected, rel_tol=1e-12)

    def test_zero_mass_short_circuit(self, bank20):
        config, bg, bank = bank20
        params = PhysicalParams(mass=0.0)
        a_end = a_at(bg, 2.0)
        assert wick_square_renormalized(a_end, bank, bank.chi, params, config) == 0.0

    def test_row_count_mismatch_rejected(self, bank20):
        config, bg, bank = bank20
        params = PhysicalParams(mass=MASS)
        a_end = a_at(bg, 2.0)
        with pytest.raises(ValueError, match="one row of bank modes"):
            wick_square_renormalized(
                np.array([a_end, a_end]), bank, bank.chi, params, config
            )
        with pytest.raises(ValueError, match="one row of bank modes"):
            wick_square_renormalized(a_end, bank, bank.chi[:-1], params, config)

    def test_kmax_doubling_below_tolerance(self, bank40, bank80):
        config40, bg, b40 = bank40
        config80, _, b80 = bank80
        params = PhysicalParams(mass=MASS)
        a_end = a_at(bg, 2.0)
        coarse = wick_square_renormalized(a_end, b40, b40.chi, params, config40)
        fine = wick_square_renormalized(a_end, b80, b80.chi, params, config80)
        assert abs(fine - coarse) < 1e-4 * abs(coarse)

    def test_tail_exponent_at_least_cubic(self, bank20, bank40):
        params = PhysicalParams(mass=MASS)
        for config, bg, bank in (bank20, bank40):
            _, tail = wick_square_renormalized(
                a_at(bg, 2.0), bank, bank.chi, params, config, detail=True
            )
            assert tail.p_raw >= 3.0

    def test_bounded_response_to_background_perturbation(self):
        taus = np.linspace(0.0, 2.0, 401)
        config = WickConfig(k_max=20.0, n_k=96)
        momenta, weights = radial_grid(20.0, 96, 10.0)
        params = PhysicalParams(mass=MASS)

        def wick_at_end(delta):
            a = 1.0 + 0.1 * np.sin(taus) + delta * np.sin(3.0 * taus)
            pot = Potential.from_scale_factor(taus, a, MASS)
            bank = ModeBank.at_initial(momenta, weights, a0=1.0, mass=MASS, tau0=0.0)
            chi, _ = evolve_bank(bank, pot.V, pot.dV, taus)
            return wick_square_renormalized(
                a_at((taus, a), 2.0), bank, chi[-1], params, config
            )

        base = wick_at_end(0.0)
        shifts = {delta: abs(wick_at_end(delta) - base) for delta in (1e-2, 1e-3)}
        for delta, shift in shifts.items():
            assert shift < 0.1 * delta
        ratio = (shifts[1e-2] / 1e-2) / (shifts[1e-3] / 1e-3)
        assert 0.5 < ratio < 2.0


class TestFiniteTerms:
    def test_zero_mass(self):
        assert finite_terms(2.0, 1.0, 0.0, 1.0) == 0.0

    def test_scale_dependence_is_logarithmic(self):
        low = finite_terms(1.5, 1.0, 1.0, 1.0)
        high = finite_terms(1.5, 1.0, 1.0, math.e)
        assert math.isclose(high - low, 2.0 / (16.0 * math.pi**2), rel_tol=1e-12)


def state_shift(a, bank, chi, coefficients, config):
    """W on the state's modes A chi + conj(B chi), as the solver folds the
    bank's tau0 modes, less W on the vacuum modes chi, per row, with no
    tail: the state's part of W."""
    a_vals, b_vals = coefficients
    params, none = PhysicalParams(mass=bank.mass), replace(config, tail_model="none")
    folded = a_vals * chi + np.conj(b_vals * chi)
    return wick_square_renormalized(
        a, bank, folded, params, none
    ) - wick_square_renormalized(a, bank, chi, params, none)


class TestBogoliubov:
    def test_vacuum_profile_gives_zero(self, bank20):
        config, bg, bank = bank20
        profile = BogoliubovProfile(A=lambda k: np.ones_like(k), B=lambda k: np.zeros_like(k))
        a_tau = a_at(bg, 2.0)
        shift = state_shift(a_tau, bank, bank.chi, profile.on(bank.momenta), config)
        none = replace(config, tail_model="none")
        assert shift == 0.0
        assert bogoliubov_delta_per_node(a_tau, bank, bank.chi, profile, none) == 0.0

    def test_single_node_matches_hand_sum(self, bank20):
        config, bg, bank = bank20
        j = 10
        k_j = bank.momenta[j]
        b0 = 0.3

        def b_func(k):
            return np.where(np.abs(k - k_j) < 1e-9, b0, 0.0)

        def a_func(k):
            return np.sqrt(1.0 + np.abs(b_func(k)) ** 2)

        a_tau = a_at(bg, 2.0)
        profile = BogoliubovProfile(A=a_func, B=b_func)
        shift = state_shift(a_tau, bank, bank.chi, profile.on(bank.momenta), config)
        chi_j = bank.chi[j]
        hand = (
            2.0
            / a_tau**2
            / TWO_PI_SQ
            * bank.weights[j]
            * k_j**2
            * (b0**2 * abs(chi_j) ** 2 + (math.sqrt(1.0 + b0**2) * b0 * chi_j**2).real)
        )
        oracle = bogoliubov_delta_per_node(
            a_tau, bank, bank.chi, profile, replace(config, tail_model="none")
        )
        assert math.isclose(oracle, hand, rel_tol=1e-12)
        assert math.isclose(shift, oracle, rel_tol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_profile_raises(self, bad, bank20):
        # a NaN constraint passes any |constraint| > tol test
        config, _, bank = bank20
        profile = BogoliubovProfile(
            A=lambda k: np.ones_like(k), B=lambda k: np.where(k > 5.0, bad, 0.0)
        )
        with pytest.raises(InvalidProfile, match="not finite"):
            profile.on(bank.momenta)

    def test_invalid_profile_raises(self, bank20):
        config, _, bank = bank20
        profile = BogoliubovProfile(
            A=lambda k: np.ones_like(k), B=lambda k: 0.5 * np.ones_like(k)
        )
        with pytest.raises(InvalidProfile, match=r"\|A\|\^2-\|B\|\^2 = 0.75 "):
            profile.on(bank.momenta)

    @pytest.mark.parametrize("amplitude", [1e4, 3e4, 1e5, 1e6])
    def test_large_amplitudes_pass_within_rounding(self, amplitude, bank20):
        # A = sqrt(1 + B^2) rounds, so |A|^2 - |B|^2 misses 1 by about
        # eps |B|^2: 1.5e-8 at amplitude 1e4, above the plain tol 1e-8
        _, _, bank = bank20
        a_vals, b_vals = BogoliubovProfile.gaussian(amplitude, 2.0).on(bank.momenta)
        assert np.all(np.isfinite(a_vals)) and np.any(np.abs(b_vals) > 1e3)

    @pytest.mark.parametrize("amplitude,k_scale", [(0.5, 2.0), (2.0, 0.7), (0.0, 1.0)])
    def test_gaussian_profile_constraint(self, amplitude, k_scale, bank20):
        config, bg, bank = bank20
        profile = BogoliubovProfile.gaussian(amplitude, k_scale)
        a_vals = profile.A(bank.momenta)
        b_vals = profile.B(bank.momenta)
        assert np.max(np.abs(np.abs(a_vals) ** 2 - np.abs(b_vals) ** 2 - 1.0)) < 1e-12
        a_tau = a_at(bg, 2.0)
        shift = state_shift(a_tau, bank, bank.chi, profile.on(bank.momenta), config)
        oracle = bogoliubov_delta_per_node(
            a_tau, bank, bank.chi, profile, replace(config, tail_model="none")
        )
        assert math.isclose(shift, oracle, rel_tol=1e-12)


def spiked_rows(bank, a0, n_spikes):
    """Three mode rows at a = a0 whose subtracted integrand vanishes but for
    1 + (i mod n_spikes) top nodes in row i: fewer than 4 fit nodes, an
    ill-conditioned tail."""
    rows = []
    for i in range(3):
        target = np.zeros(bank.momenta.size)
        count = 1 + i % n_spikes
        target[-count:] = 1e-6 / (2.0 * bank.k0[-count:])
        rows.append(np.sqrt(1.0 / (2.0 * bank.k0) + target) * np.exp(0.3j * bank.k0))
    return np.full(3, a0), np.array(rows)


class TestRowsMatchPerNodeOracle:
    """The row-vectorised quadrature and closed-form tail fit against the
    per-node numpy.polyfit path.  The two fits round differently (about
    1e-13 relative on W on the massive benchmark run), so W is held to
    1e-10 relative to the size of the two parts it sums, the radial
    integral and the finite terms, which can cancel."""

    @given(
        mass=st.floats(0.2, 3.0),
        a0=st.floats(0.5, 2.0),
        growth=st.floats(-0.3, 0.6),
        k_max=st.floats(8.0, 40.0),
        n_panels=st.integers(3, 16),
        knee=st.sampled_from([0.0, 0.1, 0.3, 0.7]),
        n_spikes=st.integers(1, 3),
        amplitude=st.floats(0.05, 1.0),
        k_scale=st.floats(0.5, 3.0),
    )
    # an a0 whose square by C pow can be one ulp off a0 * a0: V(tau0) must still
    # vanish, or the vacuum row at tau0 fits rounding noise
    @example(
        mass=0.2, a0=0.9529018931275899, growth=0.0, k_max=40.0, n_panels=7,
        knee=0.3, n_spikes=1, amplitude=1.0, k_scale=1.0,
    )
    # row 1's integrand is rounding noise: its two error estimates differ by
    # 8e-5 relative, 1.2e-16 absolute
    @example(
        mass=1.0, a0=1.5, growth=1e-14, k_max=8.0, n_panels=3,
        knee=0.0, n_spikes=1, amplitude=1.0, k_scale=1.0,
    )
    @settings(max_examples=25, deadline=None)
    def test_rows_match_per_node_oracle(
        self, mass, a0, growth, k_max, n_panels, knee, n_spikes, amplitude, k_scale,
    ):
        config = WickConfig(k_max=k_max, n_k=8 * n_panels)
        params = PhysicalParams(mass=mass)
        momenta, weights = radial_grid(k_max, 8 * n_panels, knee * k_max)
        bank = ModeBank.at_initial(momenta, weights, a0=a0, mass=mass, tau0=0.0)
        taus = np.linspace(0.0, 0.05, 9)
        a = a0 * (1.0 + growth * taus / 0.05)
        pot = Potential.from_scale_factor(taus, a, mass, a0=a0)
        chi, _ = evolve_bank(bank, pot.V, pot.dV, taus)
        a_spiked, chi_spiked = spiked_rows(bank, a0, n_spikes)
        a_rows = np.concatenate([a, a_spiked])
        chi_rows = np.concatenate([chi, chi_spiked])

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            w_rows, tail = wick_square_renormalized(
                a_rows, bank, chi_rows, params, config, detail=True
            )
            n_warned = sum(issubclass(w.category, TailFitFailed) for w in caught)
            caught.clear()
            oracle = [
                wick_square_per_node(a, bank, chi, params, config)
                for a, chi in zip(a_rows, chi_rows)
            ]
            n_warned_ref = sum(issubclass(w.category, TailFitFailed) for w in caught)
        w_ref = np.array([value for value, _ in oracle])
        ok_ref = np.array([radial.ok for _, radial in oracle])
        assert np.all(~ok_ref[-3:])
        assert np.array_equal(tail.ok, ok_ref)
        # an all-zero window has no fit but warns nothing
        assert n_warned == n_warned_ref
        w_scale = np.abs([radial.value for _, radial in oracle]) / a_rows**2 + np.abs(
            finite_terms(a_rows, a0, mass, params.length_scale)
        )
        assert np.all(np.abs(w_rows - w_ref) <= 1e-10 * w_scale)
        # the added tail over a^2 is part of W, so it is held as W is
        correction_ref = np.array([radial.correction for _, radial in oracle])
        correction_gap = np.abs(tail.correction - correction_ref) / a_rows**2 / TWO_PI_SQ
        assert np.all(correction_gap <= 1e-10 * w_scale)
        # the same rows have no fit (NaN), and the fitted exponents agree but
        # where a is a0 up to rounding: there V, and so the integrand, is
        # rounding noise, which the two routes round differently
        p_ref = np.array([radial.p_raw for _, radial in oracle])
        assert np.array_equal(np.isnan(tail.p_raw), np.isnan(p_ref))
        held = ~np.isnan(p_ref) & (np.abs(a_rows**2 - a0 * a0) > 1e-12 * a0 * a0)
        np.testing.assert_allclose(tail.p_raw[held], p_ref[held], rtol=1e-8, atol=0.0)

        # the state's part of W, from its folded modes, against the per-node
        # correction to the vacuum's
        profile = BogoliubovProfile.gaussian(amplitude, k_scale)
        delta = state_shift(a_rows, bank, chi_rows, profile.on(bank.momenta), config)
        none = replace(config, tail_model="none")
        delta_ref = np.array([
            bogoliubov_delta_per_node(a, bank, chi, profile, none)
            for a, chi in zip(a_rows, chi_rows)
        ])
        # the correction oscillates in sign, so it is held relative to the
        # quadrature of its integrand's magnitude
        b_vals = profile.B(momenta)
        scale = 2.0 / a_rows**2 / TWO_PI_SQ * np.sum(
            weights * momenta**2 * (np.abs(b_vals) ** 2 + np.abs(profile.A(momenta) * b_vals))
            * np.abs(chi_rows) ** 2, axis=-1,
        )
        assert np.all(np.abs(delta - delta_ref) <= 1e-10 * scale)

    def test_single_row_is_the_one_row_case(self, bank20):
        config, bg, bank = bank20
        params = PhysicalParams(mass=MASS)
        a_end = a_at(bg, 2.0)
        value, detail = wick_square_renormalized(
            a_end, bank, bank.chi, params, config, detail=True
        )
        rows, rows_detail = wick_square_renormalized(
            np.array([a_end]), bank, bank.chi[None, :], params, config, detail=True
        )
        assert isinstance(value, float) and isinstance(detail.ok, bool)
        assert rows.shape == (1,) and rows[0] == value
        assert rows_detail.p_raw[0] == detail.p_raw
