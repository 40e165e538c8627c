import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflrw.core import (
    DEFAULT_HUBBLE_CRITICAL,
    EULER_GAMMA,
    BlowUp,
    InitialData,
    PhysicalParams,
    cosmological_time,
    cumulative_integral,
    ricci_scalar,
    rule_start,
    scale_factor_from_hubble,
    segment_rule,
)

import oracles


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
    # the rule integrates a constant to rounding, so this is tight
    np.testing.assert_allclose(a, expected, rtol=1e-13)


def test_scale_factor_blowup_node():
    taus = np.linspace(0.0, 1.5, 151)
    with pytest.raises(BlowUp) as err:
        scale_factor_from_hubble(np.ones(taus.size), taus, a0=1.0)
    # denominator root at tau = 1 exactly; first offending node is the node at 1.0
    assert err.value.tau == pytest.approx(1.0, abs=1e-12)


def test_cosmological_time_unit_conformal_factor():
    taus = np.linspace(1.0, 4.0, 61)
    t = cosmological_time(taus, np.ones(taus.size), taus[::12], t0=0.0)
    np.testing.assert_allclose(t, -(taus - 1.0), atol=1e-14)


def test_cosmological_time_constant_three():
    taus = np.linspace(0.0, 2.0, 41)
    t = cosmological_time(taus, np.full(taus.size, 3.0), taus[::8], t0=5.0)
    assert t[-1] == pytest.approx(5.0 - 6.0, rel=1e-14)


def test_cosmological_time_log_case():
    # a = 1/(1 - tau) on [0, 0.5]: t(0.5) = t0 - int = t0 + ln(0.5)
    taus = np.linspace(0.0, 0.5, 4001)
    t = cosmological_time(taus, 1.0 / (1.0 - taus), taus[::25], t0=0.0)
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
    t_first = cosmological_time(taus, a_first, taus[::10])
    t_second = cosmological_time(taus, a_second, taus[::10])
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
    t = cosmological_time(taus, a, taus[::8], t0=t0)
    assert t[0] == t0
    assert np.all(np.diff(t) < 0.0)


def test_cosmological_time_reads_each_segments_back_points():
    # three segments of widths 1/8, 1/16 and 1/4: after the cold first,
    # each starts from the two nodes before it, so every increment of t is
    # exact for a cubic a, as the segment rule is from back points
    taus = np.concatenate((
        0.5 + 0.125 * np.arange(9.0),
        1.5 + 0.0625 * np.arange(1.0, 9.0),
        2.0 + 0.25 * np.arange(1.0, 5.0),
    ))
    coefficients = (1.0, 0.5, -0.2, 0.05)
    a = sum(c * taus**i for i, c in enumerate(coefficients))
    primitive = sum(c * taus ** (i + 1) / (i + 1) for i, c in enumerate(coefficients))
    t = cosmological_time(taus, a, (0.5, 1.5, 2.0, 3.0), t0=1.0)
    assert t[0] == 1.0
    np.testing.assert_allclose(-np.diff(t)[8:], np.diff(primitive)[8:], rtol=1e-13)
    # a segment cut short, to two nodes too, integrates as the first rows
    # of the uncut one
    for n in (10, 12):
        cut = cosmological_time(taus[:n], a[:n], (0.5, 1.5, taus[n - 1]), t0=1.0)
        np.testing.assert_allclose(cut, t[:n], rtol=1e-15)


@pytest.mark.parametrize(
    "bounds",
    [(), (0.0,), (0.25, 1.0), (0.0, 0.75), (0.0, 0.3, 1.0), (0.0, 0.5, 0.5, 1.0),
     (0.0, 0.75, 0.5, 1.0), (0.0, math.nan, 1.0)],
)
def test_cosmological_time_takes_bounds_on_the_history_only(bounds):
    taus = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match="segment bounds"):
        cosmological_time(taus, np.ones(taus.size), bounds)


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


def cubic_case(ratio):
    """(values, back, nodes, exact increments) of a cubic on nodes of width
    1/8, back points ratio widths apart; every width and point is exact in
    binary."""
    coefficients = (0.7, -1.3, 2.1, -0.9)
    nodes = 0.5 + 0.125 * np.arange(12.0)

    def cubic(t):
        return sum(c * t**i for i, c in enumerate(coefficients))

    primitive = sum(c * nodes ** (i + 1) / (i + 1) for i, c in enumerate(coefficients))
    back = cubic(0.5 - 0.125 * ratio * np.array([2.0, 1.0]))
    return cubic(nodes), back, nodes, np.diff(primitive)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_rule_with_back_points_is_exact_for_cubics_on_every_interval(ratio):
    values, back, nodes, exact = cubic_case(ratio)
    start = rule_start(nodes, 0.125 * ratio)
    increments = np.diff(cumulative_integral(values, nodes, start, back))
    np.testing.assert_allclose(increments, exact, rtol=1e-13)
    # without its back points the first interval is one trapezoid step
    cold = np.diff(cumulative_integral(values, nodes))
    assert abs(cold[0] / exact[0] - 1.0) > 1e-6


def test_rule_at_equal_spacing_is_adams_moulton_4():
    nodes = 0.5 + 0.125 * np.arange(12.0)
    start = rule_start(nodes, 0.125)
    am4 = [[1.0, -5.0, 19.0, 9.0, 0.0], [0.0, 1.0, -5.0, 19.0, 9.0]]
    assert start.weights.tolist() == am4
    assert (start.order, start.power) == (4, 5)
    # the first two increments read the back points as the third reads the
    # nodes before it
    values = np.cos(3.0 * nodes)
    out = cumulative_integral(values[2:], nodes[2:], start, values[:2])
    whole = cumulative_integral(values, nodes)
    # (to the rounding of the running sums they are differences of)
    np.testing.assert_allclose(np.diff(out), np.diff(whole)[2:], rtol=0, atol=1e-15)


def test_rule_with_back_points_is_retarded():
    nodes = np.linspace(0.3, 1.1, 13)
    values, back = np.cos(3.0 * nodes), np.array([0.4, -0.2])
    start = rule_start(nodes, 0.7 * (nodes[1] - nodes[0]))
    base = cumulative_integral(values, nodes, start, back)
    assert base[0] == 0.0
    for j in range(nodes.size - 1):
        changed = values.copy()
        changed[j + 1] += 1.0
        out = cumulative_integral(changed, nodes, start, back)
        assert out[: j + 1].tobytes() == base[: j + 1].tobytes()
        assert out[j + 1] != base[j + 1]


def test_cumulative_integral_on_two_nodes_is_one_trapezoid_step():
    # the every-second-node rule of a three-node segment has two nodes
    out = cumulative_integral(np.array([1.0, 3.0]), np.array([0.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 4.0])


@given(
    st.integers(min_value=2, max_value=49).flatmap(
        lambda count: st.lists(
            st.floats(min_value=-1e3, max_value=1e3), min_size=count + 2,
            max_size=count + 2,
        )
    ),
    st.one_of(st.none(), st.floats(min_value=0.25, max_value=4.0)),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=1e-6, max_value=10.0),
)
@example([0.0, 0.0, 2.225073858507e-311, 2.225073858507e-311], None, 0.0, 1.5)
@settings(max_examples=300, deadline=None)
def test_rule_matrices_match_the_convolution_oracle(samples, ratio, first, span):
    # the operator against the rule by increments and one running sum, on
    # 2 to 49 nodes, cold (ratio None) and from back points ratio widths
    # apart, to the rounding of either; on subnormal values that rounding
    # is absolute, the smallest subnormal per operation on each side
    back, values = np.array(samples[:2]), np.array(samples[2:])
    nodes = np.linspace(first, first + span, values.size)
    width = (nodes[-1] - nodes[0]) / (nodes.size - 1)
    spacing = None if ratio is None else ratio * width
    if spacing is None:
        back = np.zeros(2)
    start = rule_start(nodes, spacing)
    reference = oracles.cumulative_integral(values, nodes, start, back)
    out = cumulative_integral(values, nodes, start, back)
    scale = span * np.max(np.abs(samples))
    subnormal = 2 * len(samples) * np.finfo(float).smallest_subnormal
    assert np.max(np.abs(out - reference)) <= 1e-14 * scale + subnormal


def test_segment_rule_holds_its_every_second_node_twin():
    nodes = np.linspace(0.3, 1.1, 13)
    values, back = np.cos(3.0 * nodes), np.array([0.4, -0.2])
    rule = segment_rule(nodes, 0.7 * (nodes[1] - nodes[0]))
    twin = cumulative_integral(
        values[::2], nodes[::2], rule_start(nodes[::2], 0.7 * (nodes[1] - nodes[0])),
        back,
    )
    assert rule.coarse(values[::2], back).tobytes() == twin.tobytes()
    assert (rule.order, rule.power, rule.coarse.coarse) == (4, 5, None)
    # lower triangular: the integral at a node reads the values up to it
    assert not np.triu(rule.on_values, 1).any()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scale_factor_rejects_a_non_finite_hubble_rate(bad):
    # a non-finite H at node 5 of 11 would reach every node through the
    # rule's zero weights, and a NaN denominator is not <= 0, so no BlowUp
    taus = np.linspace(0.0, 1.0, 11)
    h = np.full(taus.size, 0.2)
    h[5] = bad
    with pytest.raises(ValueError, match="at node 5 "):
        scale_factor_from_hubble(h, taus, a0=1.0)


def test_default_hubble_critical_value():
    assert DEFAULT_HUBBLE_CRITICAL == pytest.approx(math.sqrt(1440 * math.pi**2), rel=1e-15)
