"""Mode functions of the conformally coupled scalar on a sampled background.

The state is defined by solutions of

    chi_k'' + (k0^2 + V(tau)) chi_k = 0,
    k0^2 = k^2 + a0^2 m^2,   V(tau) = m^2 (a(tau)^2 - a0^2),

with positive-frequency initial data at tau0 and the Wronskian normalization
chi' conj(chi) - chi conj(chi') = i.  Evolution is classical fixed-step RK4
(vectorized across k), with V interpolated linearly between grid nodes so the
result is a deterministic function of the sampled scale factor.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, SampledFunction

# Oscillation-resolution cap for substeps: step * max(omega) <= cap.  A cap
# of 0.2 resolves the phase but leaves ~1e-4 Wronskian drift at omega ~ 50
# over unit time spans; 0.02 keeps the drift inside a 1e-8 budget.
SUBSTEP_CAP = 0.02


class DegenerateMode(ValueError):
    """k0 = 0: no positive-frequency normalization exists."""


def wronskian_error(chi, dchi):
    """Deviation |chi' conj(chi) - chi conj(chi') - i| from the normalization,
    elementwise."""
    w = dchi * np.conj(chi) - chi * np.conj(dchi)
    return np.abs(w - 1j)


@dataclass(frozen=True, eq=False)
class Potential:
    """Frequency perturbation V(tau) = m^2 (a^2 - a0^2).

    freq_shift is the constant a0^2 m^2, so the full mode frequency is
    omega^2(k, tau) = k^2 + freq_shift + V(tau).
    """

    V: SampledFunction
    freq_shift: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.freq_shift) and self.freq_shift >= 0.0):
            raise ValueError("freq_shift must be finite and >= 0")

    @classmethod
    def from_scale_factor(
        cls, a: SampledFunction, mass: float, a0: float | None = None
    ) -> Potential:
        """Build V from a sampled scale factor; a0 defaults to a at the grid start."""
        anchored = a0 is None
        if anchored:
            a0 = float(a.values[0].real)
        # a0 * a0 rounds as the array square does; a0**2 (C pow) can be one
        # ulp away, so V(tau0) would not vanish
        v_values = mass**2 * (a.values.real**2 - a0 * a0)
        if anchored and v_values[0] != 0.0:
            raise ValueError("V(tau0) must vanish for the anchored construction")
        return cls(SampledFunction(a.grid, v_values), freq_shift=(a0 * mass) ** 2)

    @classmethod
    def zero(cls, grid: Grid, freq_shift: float = 0.0) -> Potential:
        return cls(SampledFunction.constant(grid, 0.0), freq_shift)

    def frequency(self, k: float) -> float:
        return math.sqrt(k**2 + self.freq_shift)

    @property
    def is_zero(self) -> bool:
        return self.V.norm_inf == 0.0


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


@dataclass(frozen=True, eq=False)
class BankHistory:
    """Bank evolution record: chi[t, k] over the requested nodes."""

    taus: np.ndarray
    chi: np.ndarray
    dchi: np.ndarray
    final: ModeBank

    @property
    def wronskian_error_max(self) -> float:
        return float(np.max(wronskian_error(self.chi, self.dchi)))


def _rk4_sweep(
    k0_sq: np.ndarray,
    chi: np.ndarray,
    dchi: np.ndarray,
    nodes: np.ndarray,
    v_values: np.ndarray,
    step: float,
):
    """March chi'' = -(k0^2 + V) chi through consecutive grid intervals,
    V linear inside each interval, recording at every node.  Returns
    (chi_hist, dchi_hist) with shape (n_nodes,) + chi.shape."""
    chi = np.array(chi, dtype=np.complex128)
    dchi = np.array(dchi, dtype=np.complex128)
    chi_hist = np.empty((nodes.size,) + chi.shape, dtype=np.complex128)
    dchi_hist = np.empty_like(chi_hist)
    chi_hist[0] = chi
    dchi_hist[0] = dchi
    for j in range(nodes.size - 1):
        width = nodes[j + 1] - nodes[j]
        v_lo = v_values[j]
        slope = (v_values[j + 1] - v_lo) / width
        n_sub = max(1, int(math.ceil(width / step - 1e-12)))
        h = width / n_sub
        for i in range(n_sub):
            t_local = i * h
            w_a = k0_sq + (v_lo + slope * t_local)
            w_b = k0_sq + (v_lo + slope * (t_local + 0.5 * h))
            w_c = k0_sq + (v_lo + slope * (t_local + h))
            k1c = dchi
            k1d = -w_a * chi
            k2c = dchi + 0.5 * h * k1d
            k2d = -w_b * (chi + 0.5 * h * k1c)
            k3c = dchi + 0.5 * h * k2d
            k3d = -w_b * (chi + 0.5 * h * k2c)
            k4c = dchi + h * k3d
            k4d = -w_c * (chi + h * k3c)
            chi = chi + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
            dchi = dchi + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        chi_hist[j + 1] = chi
        dchi_hist[j + 1] = dchi
    return chi_hist, dchi_hist


def _free_sweep(k0: np.ndarray, chi, dchi, nodes: np.ndarray):
    """Analytic propagation for V = 0 (m = 0 short-circuit)."""
    delta = nodes - nodes[0]
    cos = np.cos(np.multiply.outer(delta, k0))
    sin = np.sin(np.multiply.outer(delta, k0))
    chi_hist = cos * chi + sin * (dchi / k0)
    dchi_hist = -sin * (k0 * chi) + cos * dchi
    return chi_hist.astype(np.complex128), dchi_hist.astype(np.complex128)


def resolve_substep(
    span: float, omega_max: float, cap: float = SUBSTEP_CAP, budget: float = 1e-8
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
    potential: Potential,
    nodes: np.ndarray,
    substep_cap: float = SUBSTEP_CAP,
    wronskian_budget: float = 1e-8,
) -> BankHistory:
    """Evolve every bank mode across the given nodes (nodes[0] = bank.tau)."""
    nodes = np.asarray(nodes, dtype=np.float64)
    if not math.isclose(nodes[0], bank.tau, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError("nodes must start at the bank time")
    if potential.is_zero:
        chi_hist, dchi_hist = _free_sweep(bank.k0, bank.chi, bank.dchi, nodes)
    else:
        v_values = potential.V(nodes).real
        omega_max = math.sqrt(
            float(np.max(bank.k0) ** 2) + max(float(np.max(v_values)), 0.0)
        )
        step = resolve_substep(
            float(nodes[-1] - nodes[0]), omega_max, substep_cap, wronskian_budget
        )
        chi_hist, dchi_hist = _rk4_sweep(
            bank.k0**2, bank.chi, bank.dchi, nodes, v_values, step
        )
    final = bank.moved_to(chi_hist[-1], dchi_hist[-1], float(nodes[-1]))
    return BankHistory(nodes, chi_hist, dchi_hist, final)
