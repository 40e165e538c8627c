"""Shared kernel: physical parameters and FLRW kinematics on node arrays.

Natural units with 8*pi*G = c = hbar = 1 throughout.  The conformal-time
orientation is fixed by the closed-form scale-factor map

    a(tau) = a0 / (1 - a0 * int_{tau0}^{tau} H(eta) deta),

which makes a' = +a^2 H along regular solutions.  The cumulative integrals
of a segment solve, int f and int H, use one retarded rule
(cumulative_integral): Adams-Moulton 4 on every interval, its first two
reading the integrand at two back points, the last two history nodes
before the segment (rule_start), so the integral at a node reads the
integrand at that node and before it only, as the retarded equation does.
A run's first segment has no history and starts with a trapezoid and an
Adams-Moulton 3 step instead (COLD_START).  A trial builds it once, as
matrices (segment_rule).  Cosmological time, a diagnostic over a whole
run's history, keeps the composite trapezoid rule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Euler-Mascheroni constant, hard-coded to 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# Default critical Hubble rate: H_c^2 = 1440 * pi^2 in reduced units.
DEFAULT_HUBBLE_CRITICAL = math.sqrt(1440.0) * math.pi


def cumulative_trapezoid(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of values over nodes, starting at 0.

    Same floating-point operations, in the same order, as
    scipy.integrate.cumulative_trapezoid(values, nodes, initial=0.0).
    """
    increments = np.diff(nodes) * (values[1:] + values[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(increments)))


# The rule's weights are numerators over 24.  Adams-Moulton 4 weighs an
# interval's end nodes and the two before it by (1, -5, 19, 9), oldest
# first; summed over the intervals before node j, the values at nodes j,
# j - 1 and j - 2 weigh 9, 28 and 23, every earlier one all 24.
_AM4 = (1.0, -5.0, 19.0, 9.0)


@dataclass(frozen=True, eq=False)
class RuleStart:
    """The first two intervals of cumulative_integral on one set of nodes.

    weights holds one row per interval, numerators over 24 on the values at
    the two back points and nodes 0-2, oldest first.  order is the rule's
    order: its error falls 2^order-fold when the widths halve.  power is
    the exponent of the span in that error at a fixed node count.
    """

    weights: np.ndarray
    order: int
    power: int


# With back points every interval is fourth order, and the rule's error over
# a span is the sum of their width^5 errors: width^4 span, at a fixed node
# count span^5.
RULE_ORDER = 4
# Without them the trapezoid step on the first interval, third order, sets
# both exponents.
COLD_START = RuleStart(
    np.array([[0.0, 0.0, 12.0, 12.0, 0.0], [0.0, 0.0, -2.0, 16.0, 10.0]]), 3, 3
)


def rule_start(nodes: np.ndarray, spacing: float | None = None) -> RuleStart:
    """The start of cumulative_integral on nodes whose back points lie
    2 spacing and spacing before node 0; COLD_START for spacing None.

    The first interval's weights integrate the cubic through the two back
    points and its nodes, the second's the cubic through the nearer back
    point and nodes 0-2.  At a ratio r = 1 of spacing to the nodes' width
    both rows are Adams-Moulton 4's.
    """
    if spacing is None:
        return COLD_START
    r = spacing * (nodes.size - 1) / (nodes[-1] - nodes[0])
    weights = np.array([
        [
            1.0 / (r * r),
            -2.0 * (4.0 * r + 1.0) / (r * r * (r + 1.0)),
            (12.0 * r * r + 6.0 * r + 1.0) / (r * r),
            6.0 * (2.0 * r + 1.0) / (r + 1.0),
            0.0,
        ],
        [
            0.0,
            6.0 / (r * (r + 1.0) * (r + 2.0)),
            -(2.0 * r + 3.0) / r,
            2.0 * (8.0 * r + 11.0) / (r + 1.0),
            (10.0 * r + 17.0) / (r + 2.0),
        ],
    ])
    return RuleStart(weights, RULE_ORDER, RULE_ORDER + 1)


class Rule:
    """cumulative_integral on nodes from start as two matrices, the width
    folded in: on_values (lower triangular, n x n) on the values, on_back on
    the two back points.  order and power are start's; coarse, where built,
    is the rule on every second node from the same back points."""

    def __init__(self, nodes: np.ndarray, start: RuleStart = COLD_START, coarse=None):
        n = nodes.size
        # row j: the weights of the intervals before node j, summed
        sums = 24.0 * np.tri(n, n + 2, -1)
        for offset, weight in enumerate((23.0, 28.0, 9.0)):
            sums.reshape(-1)[offset :: n + 3] = weight
        # the back points and nodes 0-2 by running sums: start's two
        # intervals, then the first three of Adams-Moulton 4
        steps = np.zeros((n - 1, 5))
        steps[:2] = start.weights[: n - 1]
        for i in range(2, min(5, n - 1)):
            steps[i, i:] = _AM4[: 5 - i]
        sums[0, :5] = 0.0
        np.cumsum(steps[:, : n + 2], axis=0, out=sums[1:, :5])
        sums *= (nodes[-1] - nodes[0]) / (n - 1)
        sums /= 24.0
        self.on_values, self.on_back = sums[:, 2:], sums[:, :2]
        self.order, self.power, self.coarse = start.order, start.power, coarse

    def __call__(self, values, back) -> np.ndarray:
        return self.on_values @ values + self.on_back @ back


def segment_rule(nodes: np.ndarray, spacing: float | None = None) -> Rule:
    """A segment trial's Rule, from back points spacing apart (cold for
    None), with its twin on every second node: one per trial."""
    coarse = Rule(nodes[::2], rule_start(nodes[::2], spacing))
    return Rule(nodes, rule_start(nodes, spacing), coarse)


def cumulative_integral(
    values: np.ndarray,
    nodes: np.ndarray,
    start: RuleStart = COLD_START,
    back=(0.0, 0.0),
) -> np.ndarray:
    """Running integral of values over equally spaced nodes, starting at 0,
    retarded: the integral at node j reads values at nodes <= j only.

    Every interval from the third on takes Adams-Moulton 4, weights
    (1, -5, 19, 9)/24 on the values at its nodes and the two before.  The
    first two take start's weights, which also read back, the values at the
    two back points, oldest first.  COLD_START reads no back points: the
    trapezoid rule on the first interval and Adams-Moulton 3, weights
    (-1, 8, 5)/12, on the second.  Each interval's increment is exact for
    cubics, except on a cold start for the first (lines) and the second
    (quadratics).  Rule applies it as matrices with the width over 24
    folded into every weight, so a constant integrates to rounding.
    """
    return Rule(nodes, start)(values, back)


# The most nodes a radial grid (n_k) may have.  A bank sweep holds arrays
# of nodes_per_segment x n_k numbers, over a gigabyte at this count and the
# default segment; a larger count is a config no run allocates, and at
# 10**20 one that numpy cannot address.
MAX_GRID_NODES = 2**20
# The most nodes a segment (nodes_per_segment) may have.  A trial's Rule
# holds n x (n + 2) numbers, 8 MiB at this count, and builds them in a few
# milliseconds; its product costs n^2, the convolution it replaced n.
MAX_SEGMENT_NODES = 1025


def check_integers(config, names) -> None:
    """ValueError unless each named field is an integer; NaN and 5.5 are not."""
    for name in names:
        value = getattr(config, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


class BlowUp(RuntimeError):
    """Scale-factor denominator 1 - a0*int(H) reached <= 0 on the grid."""

    def __init__(self, node_index: int, tau: float, denominator: float):
        self.node_index = int(node_index)
        self.tau = float(tau)
        self.denominator = float(denominator)
        super().__init__(
            f"scale factor blow-up at node {node_index} (tau={tau:.12g}, "
            f"denominator={denominator:.6g})"
        )


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants for the conformally coupled massive scalar.

    length_scale is the subtraction length entering the renormalized Wick
    square only through log(e^gamma * mass * length_scale / sqrt(2)); the
    default choice makes that log vanish.
    """

    mass: float
    length_scale: float | None = None
    cosmological_constant: float = 0.0
    hubble_critical: float = DEFAULT_HUBBLE_CRITICAL

    def __post_init__(self):
        if not (np.isfinite(self.mass) and self.mass >= 0.0):
            raise ValueError(f"mass must be finite and >= 0, got {self.mass}")
        if not (np.isfinite(self.hubble_critical) and self.hubble_critical > 0.0):
            raise ValueError("hubble_critical must be finite and > 0")
        if not np.isfinite(self.cosmological_constant):
            raise ValueError("cosmological_constant must be finite")
        if self.length_scale is None:
            default = math.sqrt(2.0) * math.exp(-EULER_GAMMA)
            resolved = default / self.mass if self.mass > 0.0 else 1.0
            object.__setattr__(self, "length_scale", resolved)
        if not (np.isfinite(self.length_scale) and self.length_scale > 0.0):
            raise ValueError("length_scale must be finite and > 0")


@dataclass(frozen=True)
class InitialData:
    """Initial surface data (tau0, a0, H0) anchoring a run."""

    tau0: float
    a0: float
    hubble0: float

    def __post_init__(self):
        if not np.isfinite(self.tau0):
            raise ValueError("tau0 must be finite")
        if not (np.isfinite(self.a0) and self.a0 > 0.0):
            raise ValueError(f"a0 must be finite and > 0, got {self.a0}")
        if not np.isfinite(self.hubble0):
            raise ValueError("hubble0 must be finite")

    def validate_against(self, params: PhysicalParams) -> None:
        if abs(self.hubble0) >= params.hubble_critical:
            raise ValueError(
                f"|H0| < H_c violated: |{self.hubble0}| >= {params.hubble_critical}"
            )


def scale_factor_from_hubble(
    h: np.ndarray,
    nodes: np.ndarray,
    a0: float,
    rule: Rule | None = None,
    *, share: float = 0.0,
) -> np.ndarray:
    """Scale factor a = a0 / (1 - a0 * int H) at the nodes H is sampled on,
    int H by the rule (a cold one for None) plus share, rule.on_back @ H_back.

    Raises ValueError at the first node where H is not finite, and BlowUp
    at the first where the denominator falls to <= 0 (regularity condition
    on the cumulative Hubble integral).
    """
    if not (np.isfinite(a0) and a0 > 0.0):
        raise ValueError(f"a0 must be finite and > 0, got {a0}")
    denominator = 1.0 - a0 * ((rule or Rule(nodes)).on_values @ h + share)
    # a non-finite H reaches every node through the rule's zero weights
    if not (denominator > 0.0).all():
        finite = np.isfinite(h)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ValueError(f"H is {h[j]} at node {j} (tau={nodes[j]:.12g})")
        j = int(np.argmin(denominator > 0.0))
        raise BlowUp(j, nodes[j], float(denominator[j]))
    return a0 / denominator


def cosmological_time(taus: np.ndarray, a: np.ndarray, t0: float = 0.0) -> np.ndarray:
    """Cosmological time t(tau) = t0 - int_{tau0}^{tau} a at the nodes,
    strictly decreasing.

    A diagnostic: the composite trapezoid rule over the run's joined
    history, whose spacing changes from segment to segment, where the
    segment rule's equal-width weights do not apply.  The minus sign is the
    conformal-time orientation convention of this package; see the module
    docstring.
    """
    if np.any(a <= 0.0):
        raise ValueError("scale factor must be positive on the grid")
    return t0 - cumulative_trapezoid(a, taus)


def ricci_scalar(
    hubble: np.ndarray, hubble_prime: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Curvature scalar R = 6*(2*H^2 - H'/a) at the nodes, diagnostic only.

    Never used inside the evolution source term.
    """
    if np.any(a <= 0.0):
        raise ValueError("scale factor must be positive on the grid")
    return 6.0 * (2.0 * hubble**2 - hubble_prime / a)
