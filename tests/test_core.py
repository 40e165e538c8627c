import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from semiflrw.core import (
    DEFAULT_HUBBLE_CRITICAL,
    EULER_GAMMA,
    BlowUp,
    InitialData,
    PhysicalParams,
    cosmological_time,
    cumulative_integral,
    cumulative_trapezoid,
    ricci_scalar,
    scale_factor_from_hubble,
)


def test_default_constants():
    p = PhysicalParams(mass=1.0)
    assert p.hubble_critical**2 == pytest.approx(1440.0 * math.pi**2, rel=1e-15)
    # default subtraction scale kills the tau0 log term: e^gamma*m*lam/sqrt(2) = 1
    assert math.exp(EULER_GAMMA) * p.mass * p.length_scale / math.sqrt(2) == pytest.approx(1.0, rel=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(mass=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass=1.0, hubble_critical=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass=1.0, length_scale=-2.0)
    # massless: length scale defaults to a harmless placeholder
    assert PhysicalParams(mass=0.0).length_scale == 1.0


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData(tau0=0.0, a0=0.0, hubble0=1.0)
    data = InitialData(tau0=0.0, a0=1.0, hubble0=200.0)
    with pytest.raises(ValueError, match="H_c"):
        data.validate_against(PhysicalParams(mass=0.0))
    InitialData(tau0=0.0, a0=1.0, hubble0=1.0).validate_against(PhysicalParams(mass=0.0))


def test_scale_factor_zero_hubble():
    taus = np.linspace(0.0, 3.0, 31)
    a = scale_factor_from_hubble(np.zeros(taus.size), taus, a0=2.0)
    np.testing.assert_allclose(a, 2.0, rtol=0, atol=0)


def test_scale_factor_constant_hubble_closed_form():
    c = 0.3
    taus = np.linspace(0.0, 2.0, 2001)
    a = scale_factor_from_hubble(np.full(taus.size, c), taus, a0=1.0)
    expected = 1.0 / (1.0 - c * taus)
    # the rule integrates a constant exactly, so this is tight
    np.testing.assert_allclose(a, expected, rtol=1e-13)


def test_scale_factor_blowup_node():
    taus = np.linspace(0.0, 1.5, 151)
    with pytest.raises(BlowUp) as err:
        scale_factor_from_hubble(np.ones(taus.size), taus, a0=1.0)
    # denominator root at tau = 1 exactly; first offending node is the node at 1.0
    assert err.value.tau == pytest.approx(1.0, abs=1e-12)


def test_cosmological_time_unit_conformal_factor():
    taus = np.linspace(1.0, 4.0, 61)
    t = cosmological_time(taus, np.ones(taus.size), t0=0.0)
    np.testing.assert_allclose(t, -(taus - 1.0), atol=1e-14)


def test_cosmological_time_constant_three():
    taus = np.linspace(0.0, 2.0, 41)
    t = cosmological_time(taus, np.full(taus.size, 3.0), t0=5.0)
    assert t[-1] == pytest.approx(5.0 - 6.0, rel=1e-14)


def test_cosmological_time_log_case():
    # a = 1/(1 - tau) on [0, 0.5]: t(0.5) = t0 - int = t0 + ln(0.5)
    taus = np.linspace(0.0, 0.5, 4001)
    t = cosmological_time(taus, 1.0 / (1.0 - taus), t0=0.0)
    assert t[-1] == pytest.approx(math.log(0.5), abs=5e-9)
    assert np.all(np.diff(t) < 0.0)


def test_ricci_zero_hubble():
    taus = np.linspace(0.0, 1.0, 11)
    h = np.zeros(taus.size)
    np.testing.assert_array_equal(ricci_scalar(h, h, np.ones(taus.size)), 0.0)


def test_ricci_de_sitter_check():
    # constant H with a from the closed-form map: R = 12 H^2 + O(grid^2)
    c = 0.4
    taus = np.linspace(0.0, 1.0, 801)
    h = np.full(taus.size, c)
    a = scale_factor_from_hubble(h, taus, a0=1.0)
    r = ricci_scalar(h, np.gradient(h, taus, edge_order=2), a)
    np.testing.assert_allclose(r, 12.0 * c**2, rtol=1e-10)


def test_ricci_linear_hubble_frozen_a():
    taus = np.linspace(0.0, 1.0, 101)
    h = 0.25 * taus
    r = ricci_scalar(h, np.gradient(h, taus, edge_order=2), np.ones(taus.size))
    expected = 6.0 * (2.0 * (0.25 * taus) ** 2 - 0.25)
    np.testing.assert_allclose(r, expected, rtol=1e-10, atol=1e-12)


def test_scale_factor_derivative_identity():
    # differentiating the printed map gives a' = +a^2 H to O(h^2) at interior nodes
    taus = np.linspace(0.0, 1.0, 401)
    h = 0.3 + 0.2 * np.sin(2.0 * taus)
    a = scale_factor_from_hubble(h, taus, a0=1.0)
    a_prime = np.gradient(a, taus, edge_order=2)
    target = a**2 * h
    np.testing.assert_allclose(a_prime[2:-2], target[2:-2], rtol=5e-5)


def test_scale_factor_monotone_in_hubble():
    taus = np.linspace(0.0, 1.0, 101)
    h1 = 0.1 + 0.05 * np.cos(taus)
    h2 = h1 + 0.2
    a1 = scale_factor_from_hubble(h1, taus, a0=1.0)
    a2 = scale_factor_from_hubble(h2, taus, a0=1.0)
    assert np.all(a2 >= a1)


def test_operations_are_pure():
    taus = np.linspace(0.0, 1.0, 51)
    h = 0.2 * np.sin(taus)
    a_first = scale_factor_from_hubble(h, taus, a0=1.5)
    a_second = scale_factor_from_hubble(h, taus, a0=1.5)
    np.testing.assert_array_equal(a_first, a_second)
    t_first = cosmological_time(taus, a_first)
    t_second = cosmological_time(taus, a_second)
    np.testing.assert_array_equal(t_first, t_second)


@given(
    a0=st.floats(min_value=0.1, max_value=10.0),
    amp=st.floats(min_value=-0.3, max_value=0.3),
)
@settings(max_examples=40, deadline=None)
def test_scale_factor_positive_and_anchored(a0, amp):
    taus = np.linspace(0.0, 1.0, 64)
    h = amp * np.cos(3.0 * taus)
    try:
        a = scale_factor_from_hubble(h, taus, a0=a0)
    except BlowUp:
        return
    assert a[0] == pytest.approx(a0, rel=1e-15)
    assert np.all(a > 0.0)


@given(c=st.floats(min_value=-5.0, max_value=5.0), t0=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_cosmological_time_decreasing(c, t0):
    taus = np.linspace(0.0, 1.0, 33)
    a = np.full(taus.size, math.exp(c * 0.1) + 0.01)
    t = cosmological_time(taus, a, t0=t0)
    assert t[0] == t0
    assert np.all(np.diff(t) < 0.0)


_magnitudes = st.floats(min_value=1e-10, max_value=1e10)


@given(
    start=st.floats(min_value=-100.0, max_value=100.0),
    samples=st.lists(
        st.tuples(
            st.floats(min_value=1e-6, max_value=10.0),
            _magnitudes,
            st.sampled_from([1.0, -1.0]),
        ),
        min_size=2,
        max_size=80,
    ),
)
@settings(max_examples=200, deadline=None)
def test_cumulative_trapezoid_matches_scipy_bitwise(start, samples):
    widths, magnitudes, signs = (np.array(column) for column in zip(*samples))
    nodes = start + np.cumsum(widths)
    values = signs * magnitudes
    ours = cumulative_trapezoid(values, nodes)
    reference = integrate.cumulative_trapezoid(values, nodes, initial=0.0)
    assert ours.dtype == reference.dtype
    assert ours.tobytes() == reference.tobytes()


@pytest.mark.parametrize("degree, exact_from", [(1, 0), (2, 1), (3, 2)])
def test_cumulative_integral_is_exact_per_interval(degree, exact_from):
    # the trapezoid first interval is exact for lines, the Adams-Moulton 3
    # second for quadratics, the Adams-Moulton 4 ones after for cubics; the
    # nodes are exact in binary, so every width is the same
    coefficients = (0.7, -1.3, 2.1, -0.9)[: degree + 1]
    nodes = 0.5 + 0.125 * np.arange(12.0)
    values = sum(c * nodes**i for i, c in enumerate(coefficients))
    primitive = sum(c * nodes ** (i + 1) / (i + 1) for i, c in enumerate(coefficients))
    increments = np.diff(cumulative_integral(values, nodes))
    exact = np.diff(primitive)
    np.testing.assert_allclose(increments[exact_from:], exact[exact_from:], rtol=1e-13)
    if exact_from:
        assert abs(increments[exact_from - 1] / exact[exact_from - 1] - 1.0) > 1e-6


def test_cumulative_integral_is_retarded():
    # changing the integrand at node j + 1 leaves the integral at nodes <= j
    # bit for bit as it was
    nodes = np.linspace(0.3, 1.1, 13)
    values = np.cos(3.0 * nodes)
    base = cumulative_integral(values, nodes)
    assert base[0] == 0.0
    for j in range(nodes.size - 1):
        changed = values.copy()
        changed[j + 1] += 1.0
        out = cumulative_integral(changed, nodes)
        assert out[: j + 1].tobytes() == base[: j + 1].tobytes()
        assert out[j + 1] != base[j + 1]


def test_cumulative_integral_on_two_nodes_is_one_trapezoid_step():
    # the every-second-node rule of a three-node segment has two nodes
    out = cumulative_integral(np.array([1.0, 3.0]), np.array([0.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 4.0])


def test_default_hubble_critical_value():
    assert DEFAULT_HUBBLE_CRITICAL == pytest.approx(math.sqrt(1440 * math.pi**2), rel=1e-15)
