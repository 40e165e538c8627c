"""Mode functions of the conformally coupled scalar on a sampled background.

The state is defined by solutions of

    chi_k'' + (k0^2 + V(tau)) chi_k = 0,
    k0^2 = k^2 + a0^2 m^2,   V(tau) = m^2 (a(tau)^2 - a0^2),

with positive-frequency initial data at tau0 and the Wronskian normalization
chi' conj(chi) - chi conj(chi') = i.  Evolution is classical fixed-step RK4,
with V and V' sampled at the nodes and V the cubic Hermite interpolant of
them in between, so the result is a deterministic function of the sampled
background.  The equation gives V' = 2 m^2 a a' = 2 m^2 a^3 H at a node
for free.  Since k0^2 + V is real, the RK4 substeps across one grid
interval make one real 2x2 transfer map per (interval, k); all maps are
built in one vectorised pass, and one loop over the nodes applies them to
the complex modes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Oscillation-resolution cap for substeps: step * max(omega) <= cap.  A cap
# of 0.2 resolves the phase but leaves ~1e-4 Wronskian drift at omega ~ 50
# over unit time spans; 0.02 keeps the drift inside WRONSKIAN_BUDGET.
SUBSTEP_CAP = 0.02
# Accumulated Wronskian drift allowed over one evolve_bank span.
WRONSKIAN_BUDGET = 1e-8
# Drift the carried bank may accumulate over a whole run before the solver
# stops it.  A run makes hundreds of sweeps, each within WRONSKIAN_BUDGET,
# so the run's allowance is the larger one.
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
        momenta = np.asarray(momenta, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        k0 = np.sqrt(momenta**2 + (a0 * mass) ** 2)
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
        """Digest of the tau0-anchored identity of this bank (momenta,
        weights, anchor constants); evolution must never change it."""
        h = hashlib.sha256()
        h.update(self.momenta.tobytes())
        h.update(self.weights.tobytes())
        h.update(np.float64([self.a0_anchor, self.mass, self.tau0_anchor]).tobytes())
        return h.hexdigest()

    def moved_to(self, chi: np.ndarray, dchi: np.ndarray, tau: float) -> ModeBank:
        return ModeBank(self.momenta, self.weights, self.k0, chi, dchi,
                        float(tau), self.a0_anchor, self.mass, self.tau0_anchor)


def _rk4_maps(
    k0_sq: np.ndarray,
    nodes: np.ndarray,
    v_values: np.ndarray,
    dv_values: np.ndarray,
    step: float,
):
    """Transfer maps (m11, m12, m21, m22), each of shape (intervals, k), of
    the RK4 substeps across each grid interval, V inside it the cubic
    v + t (v' + t (c2 + t c3)) that takes the values and slopes at its ends.

    One classical RK4 substep of length h on y = (chi, chi') is the real map
    y -> M y built from w = k0^2 + V at the substep's start, middle and end.
    Every interval composes the same count of such maps, the one the widest
    needs, each of its width / n_sub.
    """
    width = np.diff(nodes)[:, None]
    v_lo, d_lo, d_hi = v_values[:-1, None], dv_values[:-1, None], dv_values[1:, None]
    secant = (v_values[1:, None] - v_lo) / width
    c2 = (3.0 * secant - 2.0 * d_lo - d_hi) / width
    c3 = (d_lo + d_hi - 2.0 * secant) / (width * width)

    def v_at(t):
        return v_lo + t * (d_lo + t * (c2 + t * c3))

    n_sub = max(1, math.ceil(float(np.max(width)) / step - 1e-12))
    h = width / n_sub
    q = 0.25 * h * h
    maps = None
    for i in range(n_sub):
        t_local = i * h
        w_a = k0_sq + v_at(t_local)
        w_b = k0_sq + v_at(t_local + 0.5 * h)
        w_c = k0_sq + v_at(t_local + h)
        sub = (
            1.0 - (h * h / 6.0) * (w_a + 2.0 * w_b - q * w_a * w_b),
            h - (h * h * h / 6.0) * w_b,
            -(h / 6.0) * (w_a + 4.0 * w_b + w_c - 2.0 * q * w_b * (w_a + w_c)),
            1.0 - (h * h / 6.0) * (2.0 * w_b + w_c - q * w_b * w_c),
        )
        if maps is None:
            maps = sub
            continue
        s11, s12, s21, s22 = sub
        m11, m12, m21, m22 = maps
        maps = (
            s11 * m11 + s12 * m21,
            s11 * m12 + s12 * m22,
            s21 * m11 + s22 * m21,
            s21 * m12 + s22 * m22,
        )
    return maps


def _rk4_sweep(
    k0_sq: np.ndarray,
    chi: np.ndarray,
    dchi: np.ndarray,
    nodes: np.ndarray,
    v_values: np.ndarray,
    dv_values: np.ndarray,
    step: float,
):
    """March chi'' = -(k0^2 + V) chi through consecutive grid intervals by
    fixed-step RK4, V cubic inside each interval (_rk4_maps), recording at
    every node.  Returns (chi_hist, dchi_hist) of shape (n_nodes, k)."""
    m11, m12, m21, m22 = _rk4_maps(k0_sq, nodes, v_values, dv_values, step)
    chi_hist = np.empty((nodes.size, k0_sq.size), dtype=np.complex128)
    dchi_hist = np.empty_like(chi_hist)
    chi_hist[0] = chi
    dchi_hist[0] = dchi
    for j in range(nodes.size - 1):
        c, d = chi_hist[j], dchi_hist[j]
        np.add(m11[j] * c, m12[j] * d, out=chi_hist[j + 1])
        np.add(m21[j] * c, m22[j] * d, out=dchi_hist[j + 1])
    return chi_hist, dchi_hist


def resolve_substep(
    span: float, omega_max: float, cap: float = SUBSTEP_CAP,
    budget: float = WRONSKIAN_BUDGET,
) -> float:
    """Largest substep satisfying both the oscillation cap and the
    accumulated Wronskian-drift budget over the span."""
    if omega_max <= 0.0:
        return span
    step = cap / omega_max
    if span > 0.0:
        budget_step = (72.0 * budget / (span * omega_max**6)) ** 0.2
        step = min(step, budget_step)
    return step


def evolve_bank(
    bank: ModeBank,
    v: np.ndarray,
    dv: np.ndarray,
    nodes: np.ndarray,
    substep_cap: float = SUBSTEP_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve every bank mode across the given nodes (nodes[0] = bank.tau)
    against V and V' sampled at those nodes; return the histories
    (chi, chi'), each of shape (nodes, k).  ModeBank.moved_to makes a bank
    of a row."""
    nodes = np.asarray(nodes, dtype=np.float64)
    v_values = np.asarray(v, dtype=np.float64)
    dv_values = np.asarray(dv, dtype=np.float64)
    if v_values.shape != nodes.shape or dv_values.shape != nodes.shape:
        raise ValueError("V and V' must hold one value per node")
    if not math.isclose(nodes[0], bank.tau, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError("nodes must start at the bank time")
    omega_max = math.sqrt(
        float(np.max(bank.k0) ** 2) + max(float(np.max(v_values)), 0.0)
    )
    step = resolve_substep(float(nodes[-1] - nodes[0]), omega_max, substep_cap)
    return _rk4_sweep(
        bank.k0**2, bank.chi, bank.dchi, nodes, v_values, dv_values, step
    )
