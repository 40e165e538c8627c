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
    Grid,
    InitialData,
    PhysicalParams,
    SampledFunction,
    cosmological_time,
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


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, np.nan, 1.0]))
    g = Grid.uniform(0.0, 2.0, 21)
    assert np.allclose(np.diff(g.nodes), 0.1, rtol=1e-12, atol=0.0)
    assert g.size == 21
    assert g.tau_start == 0.0 and g.tau_end == 2.0
    # nodes are frozen
    with pytest.raises(ValueError):
        g.nodes[0] = 5.0


def test_sampled_function_basics():
    g = Grid.uniform(0.0, 1.0, 11)
    f = SampledFunction(g, g.nodes**2)
    # exact at nodes, linear between
    assert f(0.5) == pytest.approx(0.25)
    assert f(0.55) == pytest.approx(0.5 * (0.25 + 0.36), rel=1e-12)
    assert np.max(np.abs(f.values)) == pytest.approx(1.0)
    anti = cumulative_trapezoid(f.values, g.nodes)
    assert anti[0] == 0.0
    assert anti[-1] == pytest.approx(1.0 / 3.0, abs=2e-3)
    with pytest.raises(ValueError):
        SampledFunction(g, np.ones(5))
    with pytest.raises(ValueError):
        SampledFunction(g, np.full(11, np.inf))


def test_sampled_function_complex_roundtrip():
    g = Grid.uniform(0.0, 1.0, 9)
    f = SampledFunction(g, np.exp(1j * g.nodes))
    assert f.values.dtype == np.complex128
    assert f(g.nodes[3]) == pytest.approx(np.exp(1j * g.nodes[3]))


def test_scale_factor_zero_hubble():
    g = Grid.uniform(0.0, 3.0, 31)
    a = scale_factor_from_hubble(np.zeros(g.size), g.nodes, a0=2.0)
    np.testing.assert_allclose(a, 2.0, rtol=0, atol=0)


def test_scale_factor_constant_hubble_closed_form():
    c = 0.3
    g = Grid.uniform(0.0, 2.0, 2001)
    a = scale_factor_from_hubble(np.full(g.size, c), g.nodes, a0=1.0)
    expected = 1.0 / (1.0 - c * g.nodes)
    # trapezoid integral of a constant is exact, so this is tight
    np.testing.assert_allclose(a, expected, rtol=1e-13)


def test_scale_factor_blowup_node():
    g = Grid.uniform(0.0, 1.5, 151)
    with pytest.raises(BlowUp) as err:
        scale_factor_from_hubble(np.ones(g.size), g.nodes, a0=1.0)
    # denominator root at tau = 1 exactly; first offending node is the node at 1.0
    assert err.value.tau == pytest.approx(1.0, abs=1e-12)


def test_cosmological_time_unit_conformal_factor():
    g = Grid.uniform(1.0, 4.0, 61)
    t = cosmological_time(SampledFunction.constant(g, 1.0), t0=0.0)
    np.testing.assert_allclose(t.values, -(g.nodes - 1.0), atol=1e-14)


def test_cosmological_time_constant_three():
    g = Grid.uniform(0.0, 2.0, 41)
    t = cosmological_time(SampledFunction.constant(g, 3.0), t0=5.0)
    assert t.values[-1] == pytest.approx(5.0 - 6.0, rel=1e-14)


def test_cosmological_time_log_case():
    # a = 1/(1 - tau) on [0, 0.5]: t(0.5) = t0 - int = t0 + ln(0.5)
    g = Grid.uniform(0.0, 0.5, 4001)
    a = SampledFunction(g, 1.0 / (1.0 - g.nodes))
    t = cosmological_time(a, t0=0.0)
    assert t.values[-1] == pytest.approx(math.log(0.5), abs=5e-9)
    assert np.all(np.diff(t.values) < 0.0)


def test_ricci_zero_hubble():
    g = Grid.uniform(0.0, 1.0, 11)
    h = SampledFunction.constant(g, 0.0)
    a = SampledFunction.constant(g, 1.0)
    np.testing.assert_array_equal(ricci_scalar(h, a).values, 0.0)


def test_ricci_de_sitter_check():
    # constant H with a from the closed-form map: R = 12 H^2 + O(grid^2)
    c = 0.4
    g = Grid.uniform(0.0, 1.0, 801)
    h = SampledFunction.constant(g, c)
    a = SampledFunction(g, scale_factor_from_hubble(h.values, g.nodes, a0=1.0))
    r = ricci_scalar(h, a)
    np.testing.assert_allclose(r.values, 12.0 * c**2, rtol=1e-10)


def test_ricci_linear_hubble_frozen_a():
    g = Grid.uniform(0.0, 1.0, 101)
    h = SampledFunction(g, 0.25 * g.nodes)
    a = SampledFunction.constant(g, 1.0)
    r = ricci_scalar(h, a)
    expected = 6.0 * (2.0 * (0.25 * g.nodes) ** 2 - 0.25)
    np.testing.assert_allclose(r.values, expected, rtol=1e-10, atol=1e-12)


def test_scale_factor_derivative_identity():
    # differentiating the printed map gives a' = +a^2 H to O(h^2) at interior nodes
    g = Grid.uniform(0.0, 1.0, 401)
    h = 0.3 + 0.2 * np.sin(2.0 * g.nodes)
    a = scale_factor_from_hubble(h, g.nodes, a0=1.0)
    a_prime = np.gradient(a, g.nodes, edge_order=2)
    target = a**2 * h
    np.testing.assert_allclose(a_prime[2:-2], target[2:-2], rtol=5e-5)


def test_scale_factor_monotone_in_hubble():
    g = Grid.uniform(0.0, 1.0, 101)
    h1 = 0.1 + 0.05 * np.cos(g.nodes)
    h2 = h1 + 0.2
    a1 = scale_factor_from_hubble(h1, g.nodes, a0=1.0)
    a2 = scale_factor_from_hubble(h2, g.nodes, a0=1.0)
    assert np.all(a2 >= a1)


def test_operations_are_pure():
    g = Grid.uniform(0.0, 1.0, 51)
    h = 0.2 * np.sin(g.nodes)
    a_first = scale_factor_from_hubble(h, g.nodes, a0=1.5)
    a_second = scale_factor_from_hubble(h, g.nodes, a0=1.5)
    np.testing.assert_array_equal(a_first, a_second)
    t_first = cosmological_time(SampledFunction(g, a_first))
    t_second = cosmological_time(SampledFunction(g, a_second))
    np.testing.assert_array_equal(t_first.values, t_second.values)


@given(
    a0=st.floats(min_value=0.1, max_value=10.0),
    amp=st.floats(min_value=-0.3, max_value=0.3),
)
@settings(max_examples=40, deadline=None)
def test_scale_factor_positive_and_anchored(a0, amp):
    g = Grid.uniform(0.0, 1.0, 64)
    h = amp * np.cos(3.0 * g.nodes)
    try:
        a = scale_factor_from_hubble(h, g.nodes, a0=a0)
    except BlowUp:
        return
    assert a[0] == pytest.approx(a0, rel=1e-15)
    assert np.all(a > 0.0)


@given(c=st.floats(min_value=-5.0, max_value=5.0), t0=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_cosmological_time_decreasing(c, t0):
    g = Grid.uniform(0.0, 1.0, 33)
    a = SampledFunction.constant(g, math.exp(c * 0.1) + 0.01)
    t = cosmological_time(a, t0=t0)
    assert t.values[0] == t0
    assert np.all(np.diff(t.values) < 0.0)


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


def test_default_hubble_critical_value():
    assert DEFAULT_HUBBLE_CRITICAL == pytest.approx(math.sqrt(1440 * math.pi**2), rel=1e-15)
