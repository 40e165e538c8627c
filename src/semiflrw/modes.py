"""Mode functions of the conformally coupled scalar on a sampled background.

The state is defined by solutions of

    chi_k'' + (k0^2 + V(tau)) chi_k = 0,
    k0^2 = k^2 + a0^2 m^2,   V(tau) = m^2 (a(tau)^2 - a0^2),

with positive-frequency initial data at tau0 and the Wronskian normalization
chi' conj(chi) - chi conj(chi') = i.  Evolution takes one fourth-order
Magnus step per grid interval, with V and V' sampled at the nodes and V the
cubic Hermite interpolant of them in between, so the result is a
deterministic function of the sampled background.  The equation gives
V' = 2 m^2 a a' = 2 m^2 a^3 H at a node for free.  Since k0^2 + V is real,
each step is one real 2x2 transfer map of determinant 1 per (interval, k);
all maps are built in one vectorised pass, and one loop over the nodes
applies them to the complex modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Drift the carried bank may accumulate over a whole run before the solver
# stops it.  Each sweep keeps the Wronskian to rounding, so a larger drift
# means the carry is corrupt.
WRONSKIAN_TOLERANCE = 1e-5


class DegenerateMode(ValueError):
    """k0 = 0: no positive-frequency normalization exists."""


def wronskian_error(chi, dchi):
    """Deviation |chi' conj(chi) - chi conj(chi') - i| from the normalization,
    elementwise."""
    w = dchi * np.conj(chi) - chi * np.conj(dchi)
    return np.abs(w - 1j)


def potential(a, a0: float, mass: float):
    """Frequency perturbation V = m^2 (a^2 - a0^2) at scale factor a (any
    shape); it vanishes where a = a0, at tau0."""
    # a0 * a0 rounds as the array square does; a0**2 (C pow) can be one ulp
    # away, so V(tau0) would not vanish
    return mass**2 * (a**2 - a0 * a0)


@dataclass(frozen=True, eq=False)
class ModeBank:
    """All quadrature modes at a common time, as arrays over k-nodes."""

    momenta: np.ndarray
    weights: np.ndarray
    k0: np.ndarray
    chi: np.ndarray
    dchi: np.ndarray
    tau: float
    a0_anchor: float
    mass: float
    tau0_anchor: float

    def __post_init__(self):
        if not np.all(np.diff(self.momenta) > 0.0):
            raise ValueError("momenta must be strictly increasing")
        if not np.all(self.weights > 0.0):
            raise ValueError("weights must be positive")

    @classmethod
    def at_initial(
        cls,
        momenta: np.ndarray,
        weights: np.ndarray,
        a0: float,
        mass: float,
        tau0: float,
    ) -> ModeBank:
        # read-only copies, which moved_to shares: no anchor changes in place
        momenta = np.array(momenta, dtype=np.float64)
        weights = np.array(weights, dtype=np.float64)
        k0 = np.sqrt(momenta**2 + (a0 * mass) ** 2)
        for array in (momenta, weights, k0):
            array.flags.writeable = False
        if np.any(k0 == 0.0):
            raise DegenerateMode("k0 = 0 on a quadrature node")
        phase = np.exp(1j * k0 * tau0)
        chi = phase / np.sqrt(2.0 * k0)
        dchi = 1j * k0 * chi
        return cls(momenta, weights, k0, chi, dchi, float(tau0), float(a0),
                   float(mass), float(tau0))

    @property
    def wronskian_error_max(self) -> float:
        return float(np.max(wronskian_error(self.chi, self.dchi)))

    def anchor_digest(self) -> str:
        """SHA-256 of the bank's tau0 anchor (momenta, weights, constants);
        only a checkpoint or a resume needs it, so only they load OpenSSL."""
        import hashlib

        h = hashlib.sha256()
        h.update(self.momenta.tobytes())
        h.update(self.weights.tobytes())
        h.update(np.float64([self.a0_anchor, self.mass, self.tau0_anchor]).tobytes())
        return h.hexdigest()

    def moved_to(self, chi: np.ndarray, dchi: np.ndarray, tau: float) -> ModeBank:
        return ModeBank(self.momenta, self.weights, self.k0, chi, dchi,
                        float(tau), self.a0_anchor, self.mass, self.tau0_anchor)


def _magnus_maps(
    k0_sq: np.ndarray,
    nodes: np.ndarray,
    v_values: np.ndarray,
    dv_values: np.ndarray,
):
    """Transfer maps (m11, m12, m21, m22), each of shape (intervals, k), of
    one fourth-order Magnus step across each grid interval, V inside it the
    cubic v + t (v' + t (c2 + t c3)) that takes the values and slopes at its
    ends.

    On y = (chi, chi') the step samples w = k0^2 + V at the Gauss points
    h (1/2 -+ sqrt(3)/6) and exponentiates
    Omega = [[c, h], [-h wbar, -c]], wbar = (w- + w+)/2,
    c = (sqrt(3)/12) h^2 (w+ - w-).  Omega^2 = -theta^2 I with
    theta^2 = h^2 wbar - c^2, so exp(Omega) = cos(theta) I + s Omega,
    s = sin(theta)/theta (cosh and sinh where theta^2 < 0, s = 1 at
    theta = 0).  The map is real with determinant 1, so the Wronskian
    holds to rounding, and it is exact for V = 0.
    """
    width = np.diff(nodes)[:, None]
    v_lo, d_lo, d_hi = v_values[:-1, None], dv_values[:-1, None], dv_values[1:, None]
    secant = (v_values[1:, None] - v_lo) / width
    c2 = (3.0 * secant - 2.0 * d_lo - d_hi) / width
    c3 = (d_lo + d_hi - 2.0 * secant) / (width * width)

    def v_at(t):
        return v_lo + t * (d_lo + t * (c2 + t * c3))

    offset = math.sqrt(3.0) / 6.0
    v_minus = v_at((0.5 - offset) * width)
    v_plus = v_at((0.5 + offset) * width)
    w_bar = k0_sq + 0.5 * (v_minus + v_plus)
    c = (math.sqrt(3.0) / 12.0) * width * width * (v_plus - v_minus)
    theta_sq = width * width * w_bar - c * c
    theta = np.sqrt(np.abs(theta_sq))
    cos, sin = np.cos(theta), np.sin(theta)
    hyperbolic = theta_sq < 0.0
    if np.any(hyperbolic):
        cos[hyperbolic] = np.cosh(theta[hyperbolic])
        sin[hyperbolic] = np.sinh(theta[hyperbolic])
    s = np.divide(sin, theta, out=np.ones_like(theta), where=theta > 0.0)
    s_c, s_h = s * c, s * width
    return cos + s_c, s_h, -s_h * w_bar, cos - s_c


def evolve_bank(
    bank: ModeBank,
    v: np.ndarray,
    dv: np.ndarray,
    nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve every bank mode across the given nodes (nodes[0] = bank.tau)
    against V and V' sampled at those nodes, one Magnus step per interval
    (_magnus_maps); return the histories (chi, chi'), each of shape
    (nodes, k).  ModeBank.moved_to makes a bank of a row."""
    nodes = np.asarray(nodes, dtype=np.float64)
    v_values = np.asarray(v, dtype=np.float64)
    dv_values = np.asarray(dv, dtype=np.float64)
    if v_values.shape != nodes.shape or dv_values.shape != nodes.shape:
        raise ValueError("V and V' must hold one value per node")
    if not math.isclose(nodes[0], bank.tau, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError("nodes must start at the bank time")
    m11, m12, m21, m22 = _magnus_maps(bank.k0**2, nodes, v_values, dv_values)
    chi_hist = np.empty((nodes.size, bank.k0.size), dtype=np.complex128)
    dchi_hist = np.empty_like(chi_hist)
    chi_hist[0] = bank.chi
    dchi_hist[0] = bank.dchi
    for j in range(nodes.size - 1):
        c, d = chi_hist[j], dchi_hist[j]
        np.add(m11[j] * c, m12[j] * d, out=chi_hist[j + 1])
        np.add(m21[j] * c, m22[j] * d, out=dchi_hist[j + 1])
    return chi_hist, dchi_hist
