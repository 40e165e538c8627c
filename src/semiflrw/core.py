"""Shared kernel: physical parameters, grids, sampled functions, FLRW kinematics.

Natural units with 8*pi*G = c = hbar = 1 throughout.  The conformal-time
orientation is fixed by the closed-form scale-factor map

    a(tau) = a0 / (1 - a0 * int_{tau0}^{tau} H(eta) deta),

which makes a' = +a^2 H along regular solutions.  All cumulative integrals
use the composite trapezoid rule on the grid and all interpolation is
piecewise linear; both choices are part of the numerical contract (the
fixed-point machinery downstream is norm-based, not order-based).
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing conformal-time nodes, at least three of them."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs a 1-d array of at least 3 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, tau_start: float, tau_end: float, n_nodes: int) -> Grid:
        return cls(np.linspace(tau_start, tau_end, n_nodes))

    @property
    def tau_start(self) -> float:
        return float(self.nodes[0])

    @property
    def tau_end(self) -> float:
        return float(self.nodes[-1])

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash((self.nodes.size, float(self.nodes[0]), float(self.nodes[-1])))


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function known at grid nodes, evaluated off-node by linear interpolation."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype.kind == "c":
            values = values.astype(np.complex128)
        else:
            values = values.astype(np.float64)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid node count")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: Grid, value: float | complex) -> SampledFunction:
        return cls(grid, np.full(grid.size, value))

    def __call__(self, tau):
        return np.interp(tau, self.grid.nodes, self.values)

    def with_values(self, values: np.ndarray) -> SampledFunction:
        return SampledFunction(self.grid, values)

    def antiderivative(self) -> SampledFunction:
        return self.with_values(cumulative_trapezoid(self.values, self.grid.nodes))

    def derivative(self) -> SampledFunction:
        return self.with_values(
            np.gradient(self.values, self.grid.nodes, edge_order=2)
        )

    @property
    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))


def scale_factor_from_hubble(
    hubble: SampledFunction, a0: float, tau0: float | None = None
) -> SampledFunction:
    """Scale factor a = a0 / (1 - a0 * int H) on the Hubble grid.

    Raises BlowUp at the first node where the denominator falls to <= 0
    (regularity condition on the cumulative Hubble integral).
    """
    if not (np.isfinite(a0) and a0 > 0.0):
        raise ValueError(f"a0 must be finite and > 0, got {a0}")
    nodes = hubble.grid.nodes
    if tau0 is not None and not math.isclose(tau0, nodes[0], rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(f"tau0={tau0} does not match grid start {nodes[0]}")
    integral = cumulative_trapezoid(hubble.values.real, nodes)
    denominator = 1.0 - a0 * integral
    bad = np.flatnonzero(denominator <= 0.0)
    if bad.size:
        j = int(bad[0])
        raise BlowUp(j, nodes[j], float(denominator[j]))
    return SampledFunction(hubble.grid, a0 / denominator)


def cosmological_time(a: SampledFunction, t0: float = 0.0) -> SampledFunction:
    """Cosmological time t(tau) = t0 - int_{tau0}^{tau} a, strictly decreasing.

    The minus sign is the conformal-time orientation convention of this
    package; see the module docstring.
    """
    if np.any(a.values.real <= 0.0):
        raise ValueError("scale factor must be positive on the grid")
    integral = cumulative_trapezoid(a.values.real, a.grid.nodes)
    return SampledFunction(a.grid, t0 - integral)


def ricci_scalar(hubble: SampledFunction, a: SampledFunction) -> SampledFunction:
    """Curvature scalar R = 6*(2*H^2 - H'/a), diagnostic only.

    H' is the grid finite-difference derivative (second order, one-sided at
    the ends).  Never used inside the evolution source term.
    """
    if a.grid != hubble.grid:
        raise ValueError("H and a must share a grid")
    if np.any(a.values.real <= 0.0):
        raise ValueError("scale factor must be positive on the grid")
    hubble_prime = np.gradient(hubble.values.real, hubble.grid.nodes, edge_order=2)
    r_values = 6.0 * (2.0 * hubble.values.real**2 - hubble_prime / a.values.real)
    return SampledFunction(hubble.grid, r_values)
