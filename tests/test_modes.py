import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflrw.modes import (
    DegenerateMode,
    ModeBank,
    _rk4_sweep,
    evolve_bank,
    resolve_substep,
    wronskian_error,
)

from oracles import (
    ModeState,
    Potential,
    StepTooLarge,
    _rk4_steps,
    evolve_mode,
    initial_mode,
    mode_bound,
    perturbative_mode,
    perturbative_orders,
)


def sine_background(n_nodes=1501, amp=0.1, mass=1.0, tau_end=2.0):
    grid = np.linspace(0.0, tau_end, n_nodes)
    return Potential.from_scale_factor(grid, 1.0 + amp * np.sin(grid), mass=mass)


def test_initial_mode_pythagorean_case():
    state = initial_mode(k=3.0, a0=1.0, mass=4.0, tau0=0.0)
    assert state.k0 == pytest.approx(5.0, rel=1e-15)
    assert state.chi == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-15)
    assert state.dchi == pytest.approx(5j / math.sqrt(10.0), rel=1e-15)


def test_initial_mode_wronskian_identity():
    state = initial_mode(k=0.7, a0=2.0, mass=0.3, tau0=-1.5)
    assert state.wronskian_error < 1e-15


def test_initial_mode_degenerate():
    with pytest.raises(DegenerateMode):
        initial_mode(k=0.0, a0=1.0, mass=0.0, tau0=0.0)


@given(
    k=st.floats(min_value=0.0, max_value=40.0),
    a0=st.floats(min_value=0.2, max_value=5.0),
    mass=st.floats(min_value=0.01, max_value=10.0),
    tau0=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_initial_mode_wronskian_property(k, a0, mass, tau0):
    state = initial_mode(k, a0, mass, tau0)
    assert state.k0 == pytest.approx(math.hypot(k, a0 * mass), rel=1e-14)
    assert state.wronskian_error < 1e-14


def test_potential_anchoring():
    pot = sine_background()
    assert pot.V[0] == 0.0
    assert pot.freq_shift == pytest.approx(1.0)


def test_potential_vanishes_at_the_anchor_for_every_a0():
    # an a0 whose square by C pow can be one ulp away from a0 * a0
    a0 = 0.9529018931275899
    grid = np.linspace(0.0, 1.0, 11)
    pot = Potential.from_scale_factor(grid, np.full(11, a0), mass=1.0)
    assert np.all(pot.V == 0.0)


def test_potential_explicit_anchor_allows_offset_start():
    grid = np.linspace(1.0, 2.0, 11)
    pot = Potential.from_scale_factor(grid, np.full(11, 3.0), mass=2.0, a0=1.0)
    # V = m^2 (a^2 - a0^2) = 4*(9-1) = 32 on the whole segment
    np.testing.assert_allclose(pot.V, 32.0, rtol=1e-14)
    assert pot.freq_shift == pytest.approx(4.0)


def test_evolve_constant_shift_matches_analytic():
    # constant V = c: exact solution is a free oscillator at sqrt(k0^2+c)
    grid = np.linspace(0.0, 2.0, 801)
    c = 3.0
    pot = Potential(grid, np.full(grid.size, c), freq_shift=4.0)
    state = initial_mode(k=2.0, a0=1.0, mass=2.0, tau0=0.0)
    traj = evolve_mode(state, pot, 2.0, step=2e-3)
    omega = math.sqrt(state.k0**2 + c)
    delta = grid
    expected = state.chi * np.cos(omega * delta) + state.dchi * np.sin(omega * delta) / omega
    np.testing.assert_allclose(traj.chi, expected, rtol=0, atol=2e-10)


def test_evolve_zero_potential_short_circuit_exact():
    grid = np.linspace(0.0, 5.0, 101)
    pot = Potential.zero(grid, freq_shift=9.0)
    state = initial_mode(k=4.0, a0=1.0, mass=3.0, tau0=0.0)
    traj = evolve_mode(state, pot, 5.0, step=1.0)
    expected = np.exp(1j * state.k0 * grid) / math.sqrt(2.0 * state.k0)
    np.testing.assert_allclose(traj.chi, expected, rtol=1e-13)
    assert traj.wronskian_errors.max() < 1e-13


def test_wronskian_conservation_and_order():
    pot = sine_background()
    errors = {}
    for step_scale in (0.02, 0.01):
        worst = 0.0
        for k in (0.5, 10.0, 30.0, 50.0):
            state = initial_mode(k, 1.0, 1.0, 0.0)
            traj = evolve_mode(state, pot, 2.0, step=step_scale / state.k0)
            worst = max(worst, float(traj.wronskian_errors.max()))
        errors[step_scale] = worst
    assert errors[0.02] < 1e-8
    assert errors[0.02] / errors[0.01] >= 8.0


def test_step_too_large_guard():
    pot = sine_background()
    state = initial_mode(50.0, 1.0, 1.0, 0.0)
    with pytest.raises(StepTooLarge):
        evolve_mode(state, pot, 2.0, step=0.02)


def test_evolve_rejects_offgrid_target():
    pot = sine_background(n_nodes=101)
    state = initial_mode(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve_mode(state, pot, 2.0 + 0.0123, step=1e-3)
    with pytest.raises(ValueError):
        evolve_mode(state, pot, 2.0, step=-1.0)


def test_oracle_equivalence_small_potential():
    # smooth, compactly supported, small perturbation
    grid = np.linspace(0.0, 2.0, 2001)
    v = 0.02 * np.sin(np.pi * grid / 2.0) ** 2
    pot = Potential(grid, v, freq_shift=1.0)
    for k in (0.3, 2.0, 10.0, 30.0):
        # freq_shift = 1 corresponds to a0*m = 1
        state = initial_mode(k, 1.0, 1.0, 0.0)
        traj = evolve_mode(state, pot, 2.0, step=0.01 / state.k0)
        oracle = perturbative_mode(k, pot, 6, 2.0)
        assert abs(traj.chi[-1] - oracle) < 1e-6 * abs(traj.chi[-1])


def test_perturbative_zeroth_order():
    pot = sine_background()
    k = 2.5
    k0 = pot.frequency(k)
    orders = perturbative_orders(k, pot, 0, 2.0)
    assert orders[0] == pytest.approx(np.exp(2j * k0) / math.sqrt(2 * k0), rel=1e-14)


def test_perturbative_zero_potential_all_orders_vanish():
    grid = np.linspace(0.0, 1.0, 201)
    pot = Potential.zero(grid, freq_shift=4.0)
    orders = perturbative_orders(1.0, pot, 4, 1.0)
    assert np.all(np.abs(orders[1:]) == 0.0)
    assert perturbative_mode(1.0, pot, 4, 1.0) == pytest.approx(complex(orders[0]), rel=1e-15)


def test_recurrence_orders_respect_bound():
    pot = sine_background(amp=0.2)
    for k in (0.5, 3.0):
        orders = perturbative_orders(k, pot, 5, 2.0)
        for n in range(1, 6):
            cap = min(
                mode_bound(n, k, pot, 2.0, l=0),
                mode_bound(n, k, pot, 2.0, l=n),
            )
            assert abs(orders[n]) <= cap * (1.0 + 1e-9)


def test_mode_bound_trivia():
    pot = sine_background()
    k = 1.0
    assert mode_bound(0, k, pot, 2.0, l=0) == pytest.approx(
        1.0 / math.sqrt(2.0 * pot.frequency(k)), rel=1e-14
    )
    grid = np.linspace(0.0, 1.5, 301)
    zero = Potential.zero(grid, freq_shift=1.0)
    assert mode_bound(3, k, zero, 1.5, l=0) == 0.0


def test_mode_bound_unit_potential_closed_form():
    tau = 1.5
    grid = np.linspace(0.0, tau, 601)
    pot = Potential(grid, np.ones(grid.size), freq_shift=3.0)
    k0 = pot.frequency(1.0)
    for n in (1, 2, 4):
        expected = (tau**2 / 2.0) ** n / math.factorial(n) / math.sqrt(2.0 * k0)
        assert mode_bound(n, 1.0, pot, tau, l=0) == pytest.approx(expected, rel=1e-10)
    with pytest.raises(ValueError):
        mode_bound(2, 1.0, pot, tau, l=3)


def test_bound_compliance_epsilon_extraction():
    # fit chi(eps) as a polynomial in the scaled potential eps*V and compare
    # each extracted order against the factorial estimate
    grid = np.linspace(0.0, 2.0, 1501)
    v_base = 0.4 * np.sin(np.pi * grid / 2.0) ** 2
    k, shift = 2.0, 1.0
    k0 = math.sqrt(k**2 + shift)
    eps_grid = np.linspace(0.15, 1.0, 9)
    finals = []
    for eps in eps_grid:
        pot = Potential(grid, eps * v_base, freq_shift=shift)
        state = initial_mode(k, 1.0, 1.0, 0.0)
        traj = evolve_mode(state, pot, 2.0, step=0.02 / k0)
        finals.append(traj.chi[-1])
    coeffs = np.polynomial.polynomial.polyfit(eps_grid, np.array(finals), 6)
    pot_full = Potential(grid, v_base, freq_shift=shift)
    for n in range(1, 5):
        cap = min(
            mode_bound(n, k, pot_full, 2.0, l=0),
            mode_bound(n, k, pot_full, 2.0, l=n),
        )
        assert abs(coeffs[n]) <= cap * (1.0 + 1e-6)


def test_evolve_linearity_in_initial_data():
    pot = sine_background(n_nodes=801)
    k = 3.0
    base = initial_mode(k, 1.0, 1.0, 0.0)
    conj = ModeState(k, base.k0, complex(np.conj(base.chi)), complex(np.conj(base.dchi)), 0.0)
    c1, c2 = 0.8 + 0.3j, -0.2 + 1.1j
    mixed = ModeState(
        k,
        base.k0,
        c1 * base.chi + c2 * conj.chi,
        c1 * base.dchi + c2 * conj.dchi,
        0.0,
    )
    step = 0.02 / base.k0
    t_base = evolve_mode(base, pot, 2.0, step)
    t_conj = evolve_mode(conj, pot, 2.0, step)
    t_mix = evolve_mode(mixed, pot, 2.0, step)
    np.testing.assert_allclose(
        t_mix.chi, c1 * t_base.chi + c2 * t_conj.chi, rtol=1e-12, atol=1e-14
    )


def test_small_potential_first_order_residual_scaling():
    # evolve vs first-order truncation: residual should shrink like ||V||^2
    grid = np.linspace(0.0, 2.0, 1201)
    v_shape = np.sin(np.pi * grid / 2.0) ** 2
    k, shift = 1.5, 1.0
    resid = {}
    for eps in (0.02, 0.01):
        pot = Potential(grid, eps * v_shape, freq_shift=shift)
        state = initial_mode(k, 1.0, 1.0, 0.0)
        traj = evolve_mode(state, pot, 2.0, step=0.01 / state.k0)
        first = perturbative_mode(k, pot, 1, 2.0)
        resid[eps] = abs(traj.chi[-1] - first)
    ratio = resid[0.02] / resid[0.01]
    assert 3.0 < ratio < 5.0


def test_bank_matches_scalar_initials():
    momenta = np.array([0.5, 1.0, 4.0])
    weights = np.ones(3)
    bank = ModeBank.at_initial(momenta, weights, a0=2.0, mass=1.5, tau0=0.3)
    for j, k in enumerate(momenta):
        state = initial_mode(float(k), 2.0, 1.5, 0.3)
        assert bank.k0[j] == pytest.approx(state.k0, rel=1e-15)
        assert bank.chi[j] == pytest.approx(state.chi, rel=1e-15)
        assert bank.dchi[j] == pytest.approx(state.dchi, rel=1e-15)
    assert bank.wronskian_error_max < 1e-14


def test_bank_anchor_digest_stable_under_evolution():
    pot = sine_background(n_nodes=401)
    momenta = np.linspace(0.2, 10.0, 12)
    bank = ModeBank.at_initial(momenta, np.ones(12), 1.0, 1.0, 0.0)
    digest = bank.anchor_digest()
    chi, dchi = evolve_bank(bank, pot.V, pot.dV, pot.taus)
    moved = bank.moved_to(chi[-1], dchi[-1], pot.taus[-1])
    assert moved.anchor_digest() == digest
    assert moved.tau == pytest.approx(2.0)
    assert np.max(wronskian_error(chi, dchi)) < 1e-8


def test_bank_evolution_consistent_with_scalar_path():
    pot = sine_background(n_nodes=801)
    momenta = np.array([0.5, 5.0, 20.0])
    bank = ModeBank.at_initial(momenta, np.ones(3), 1.0, 1.0, 0.0)
    chi, _ = evolve_bank(bank, pot.V, pot.dV, pot.taus)
    omega_max = math.sqrt(float(np.max(bank.k0) ** 2) + max(float(np.max(pot.V)), 0.0))
    step = resolve_substep(2.0, omega_max)
    for j, k in enumerate(momenta):
        state = initial_mode(float(k), 1.0, 1.0, 0.0)
        traj = evolve_mode(state, pot, 2.0, step=step)
        np.testing.assert_allclose(chi[:, j], traj.chi, rtol=1e-13, atol=0)


def test_bank_rejects_a_potential_off_the_nodes():
    pot = sine_background(n_nodes=101)
    bank = ModeBank.at_initial(np.array([0.5, 5.0]), np.ones(2), 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="one value per node"):
        evolve_bank(bank, pot.V[:-1], pot.dV[:-1], pot.taus)


def _sweep_args(nodes, step):
    """(k0^2, chi, chi', nodes, V, V', step) of one bank's sweep."""
    bank = ModeBank.at_initial(np.linspace(0.1, 40.0, 24), np.ones(24), 1.0, 1.0,
                               float(nodes[0]))
    v = 0.5 * np.sin(7.0 * nodes) + 0.3 * nodes
    dv = 3.5 * np.cos(7.0 * nodes) + 0.3
    return bank.k0**2, bank.chi, bank.dchi, nodes, v, dv, step


def _sweep_case(nodes, step):
    """The transfer-map sweep and the per-substep stepper on one bank."""
    args = _sweep_args(nodes, step)
    return _rk4_sweep(*args), _rk4_steps(*args)


@pytest.mark.parametrize("n_sub", [1, 2, 5])
def test_map_sweep_matches_the_substep_stepper(n_sub):
    nodes = np.linspace(0.2, 0.6, 81)
    width = nodes[1] - nodes[0]
    assert int(math.ceil(width / (width / n_sub) - 1e-12)) == n_sub
    (chi, dchi), (chi_ref, dchi_ref) = _sweep_case(nodes, width / n_sub)
    np.testing.assert_allclose(chi, chi_ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(dchi, dchi_ref, rtol=1e-13, atol=0)


def test_map_sweep_gives_every_interval_the_substeps_of_the_widest():
    # widths of 1, 2.5 and 4.2 steps: every interval takes the 5 substeps
    # of the widest, each a fifth of its own width
    step = 1e-3
    widths = np.tile([1.0, 2.5, 4.2], 30) * step
    nodes = 0.2 + np.concatenate([[0.0], np.cumsum(widths)])
    assert math.ceil(np.max(np.diff(nodes)) / step - 1e-12) == 5
    k0_sq, c, d, _, v, dv, _ = args = _sweep_args(nodes, step)
    chi, dchi = _rk4_sweep(*args)
    for j in range(nodes.size - 1):
        # the stepper across one interval, at 5 substeps
        span = slice(j, j + 2)
        width = nodes[j + 1] - nodes[j]
        c, d = (
            out[-1]
            for out in _rk4_steps(k0_sq, c, d, nodes[span], v[span], dv[span], width / 5)
        )
        np.testing.assert_allclose(chi[j + 1], c, rtol=1e-13, atol=0)
        np.testing.assert_allclose(dchi[j + 1], d, rtol=1e-13, atol=0)
