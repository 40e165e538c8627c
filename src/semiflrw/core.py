"""Shared kernel: physical parameters and FLRW kinematics on node arrays.

Natural units with 8*pi*G = c = hbar = 1 throughout.  The conformal-time
orientation is fixed by the closed-form scale-factor map

    a(tau) = a0 / (1 - a0 * int_{tau0}^{tau} H(eta) deta),

which makes a' = +a^2 H along regular solutions.  The cumulative integrals
of a segment solve, int f and int H, use one retarded rule
(cumulative_integral): trapezoid on the first interval, Adams-Moulton 3 on
the second and Adams-Moulton 4 on every later one, so the integral at a
node reads the integrand at that node and before it only, as the
retarded equation does.  Cosmological time, a diagnostic over a whole
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


# The error of cumulative_integral over a span scales as the width of its
# intervals cubed, at fixed node count as the span cubed: the trapezoid step
# on the first interval dominates the fourth-order steps after it.
RULE_ORDER = 3


def cumulative_integral(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Running integral of values over nodes, starting at 0, retarded: the
    integral at node j reads values at nodes <= j only.

    The first interval takes the trapezoid rule, the second Adams-Moulton 3,
    weights (-1, 8, 5)/12 on the values at its nodes and the one before, and
    every later interval Adams-Moulton 4, weights (1, -5, 19, 9)/24 on the
    values at its nodes and the two before.  Each interval is scaled by its
    own width.  On equal widths an interval's increment is exact for linear
    values on the first interval, quadratics on the second and cubics after.
    """
    widths = np.diff(nodes)
    increments = np.empty(widths.size)
    increments[:1] = widths[:1] * (values[:1] + values[1:2]) / 2.0
    increments[1:2] = (
        widths[1:2] * (-values[:1] + 8.0 * values[1:2] + 5.0 * values[2:3]) / 12.0
    )
    increments[2:] = widths[2:] * (
        values[:-3] - 5.0 * values[1:-2] + 19.0 * values[2:-1] + 9.0 * values[3:]
    ) / 24.0
    return np.concatenate(([0.0], np.cumsum(increments)))


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


def scale_factor_from_hubble(h: np.ndarray, nodes: np.ndarray, a0: float) -> np.ndarray:
    """Scale factor a = a0 / (1 - a0 * int H) at the nodes H is sampled on.

    Raises BlowUp at the first node where the denominator falls to <= 0
    (regularity condition on the cumulative Hubble integral).
    """
    if not (np.isfinite(a0) and a0 > 0.0):
        raise ValueError(f"a0 must be finite and > 0, got {a0}")
    denominator = 1.0 - a0 * cumulative_integral(h, nodes)
    bad = np.flatnonzero(denominator <= 0.0)
    if bad.size:
        j = int(bad[0])
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
