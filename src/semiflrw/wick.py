"""Renormalized Wick square by mode-level subtraction.

At each time the mode integrand |chi_k|^2 - 1/(2 k0) + V/(4 k0^3) is reduced
over the radial quadrature

    (2 pi^2)^{-1} int_0^{k_max} g(k) k^2 dk  (+ power-law tail estimate),

and the finite correction terms

    (m^2 / (16 pi^2)) * (1/2 - (a0/a)^2 + 2 log(a0/a) + 2 log(e^gamma m lam / sqrt(2)))

are added.  The quadrature uses Gauss-Legendre panels, logarithmically graded
above a configurable knee (the integrand has O(1) structure near k ~ a*m and
power-law decay beyond).  The subtracted integrand oscillates in k at fixed
tau, so the tail fit works on the magnitude envelope: the signed analytic
tail is only added when the fit window has a uniform sign, otherwise the
envelope integral is reported as uncertainty instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EULER_GAMMA, PhysicalParams, SampledFunction
from .modes import ModeBank

TWO_PI_SQ = 2.0 * math.pi**2

# Tail exponents outside this band make the analytic tail integral
# meaningless (p -> 3 diverges); the raw fitted exponent is still reported.
_P_CLIP = (3.05, 4.0)


class TailFitFailed(UserWarning):
    """Tail fit was ill-conditioned; tail contribution set to zero."""


class InvalidProfile(ValueError):
    """Bogoliubov profile violates |A|^2 - |B|^2 = 1 at a quadrature node."""


@dataclass(frozen=True)
class WickConfig:
    """Radial-quadrature and tail-handling knobs.

    k_knee is the grading knee (linear panels below, log-graded above);
    zero means a single linearly spaced panel region.  n_k must be a
    multiple of panel_points so the panel count is unambiguous.
    """

    k_max: float
    n_k: int = 64
    tail_model: str = "power-fit"
    tail_fit_window: float = 0.25
    k_knee: float = 0.0
    panel_points: int = 8

    def __post_init__(self):
        if not (np.isfinite(self.k_max) and self.k_max > 0.0):
            raise ValueError("k_max must be finite and > 0")
        if self.n_k < 16:
            raise ValueError("n_k must be >= 16")
        if self.tail_model not in ("none", "power-fit"):
            raise ValueError(f"unknown tail_model {self.tail_model!r}")
        if not 0.0 < self.tail_fit_window <= 0.5:
            raise ValueError("tail_fit_window must lie in (0, 0.5]")
        if self.panel_points < 2:
            raise ValueError("panel_points must be >= 2")
        if self.n_k % self.panel_points != 0:
            raise ValueError("n_k must be a multiple of panel_points")
        if self.k_knee < 0.0:
            raise ValueError("k_knee must be >= 0")


@dataclass(frozen=True)
class BogoliubovProfile:
    """State change ξ_k = A(k) χ_k + conj(B(k)) conj(χ_k)."""

    A: Callable[[np.ndarray], np.ndarray]
    B: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def gaussian(cls, amplitude: float, k_scale: float) -> BogoliubovProfile:
        """B(k) = amplitude * exp(-(k/k_scale)^2) with real normalizing A."""

        def b_func(k):
            return amplitude * np.exp(-((np.asarray(k) / k_scale) ** 2))

        def a_func(k):
            return np.sqrt(1.0 + np.abs(b_func(k)) ** 2)

        return cls(a_func, b_func)


@dataclass(frozen=True)
class TailFit:
    """Power-law fit C k^{-p} of the integrand magnitude over the top window."""

    coefficient: float
    p_raw: float
    p_used: float
    coherent: bool
    correction: float
    envelope: float
    ok: bool
    window_size: int


@dataclass(frozen=True)
class RadialResult:
    value: float
    error_estimate: float
    tail: TailFit | None


def radial_grid(config: WickConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre panel nodes and weights on [0, k_max]."""
    points = config.panel_points
    n_panels = config.n_k // points
    knee = min(config.k_knee, config.k_max)
    if knee <= 0.0 or knee >= config.k_max or n_panels < 2:
        edges = np.linspace(0.0, config.k_max, n_panels + 1)
    else:
        n_lin = max(1, n_panels // 2)
        n_log = n_panels - n_lin
        lin_edges = np.linspace(0.0, knee, n_lin + 1)
        log_edges = np.geomspace(knee, config.k_max, n_log + 1)
        edges = np.concatenate([lin_edges, log_edges[1:]])
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(points)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (ref_nodes + 1.0))
        weights.append(half * ref_weights)
    return np.concatenate(nodes), np.concatenate(weights)


def wick_integrand(chi, k, k0, v_tau):
    """Subtracted mode integrand |chi|^2 - 1/(2 k0) + V(tau)/(4 k0^3).

    Vectorized over quadrature nodes; k is carried for diagnostics and
    interface symmetry, the value depends on (chi, k0, V).
    """
    k0 = np.asarray(k0, dtype=np.float64)
    if np.any(k0 <= 0.0):
        raise ValueError("k0 must be > 0")
    mod_sq = np.abs(np.asarray(chi)) ** 2
    return mod_sq - 1.0 / (2.0 * k0) + v_tau / (4.0 * k0**3)


def _fit_tail(momenta: np.ndarray, samples: np.ndarray, config: WickConfig) -> TailFit:
    n_win = max(3, int(math.ceil(config.tail_fit_window * momenta.size)))
    k_win = momenta[-n_win:]
    g_win = samples[-n_win:]
    mag = np.abs(g_win)
    peak = float(np.max(mag))
    if peak == 0.0:
        return TailFit(0.0, 4.0, 4.0, True, 0.0, 0.0, True, n_win)
    # drop near-zero crossings of the oscillatory integrand before the log fit
    keep = mag > 1e-3 * peak
    if int(np.count_nonzero(keep)) < 4 or np.ptp(np.log(k_win[keep])) < 1e-6:
        warnings.warn(
            f"tail fit ill-conditioned over {n_win} nodes", TailFitFailed, stacklevel=3
        )
        p_fb = 3.5
        envelope = peak * k_win[-1] ** 3 / (p_fb - 3.0)
        return TailFit(peak, p_fb, p_fb, False, 0.0, envelope, False, n_win)
    log_k = np.log(k_win[keep])
    log_g = np.log(mag[keep])
    slope, intercept = np.polyfit(log_k, log_g, 1)
    p_raw = float(-slope)
    p_used = float(np.clip(p_raw, *_P_CLIP))
    coefficient = float(np.exp(intercept + (p_used - p_raw) * np.mean(log_k)))
    envelope = coefficient * config.k_max ** (3.0 - p_used) / (p_used - 3.0)
    coherent = bool(np.all(g_win >= 0.0) or np.all(g_win <= 0.0))
    if coherent:
        sign = 1.0 if float(np.sum(g_win)) >= 0.0 else -1.0
        correction = sign * envelope
    else:
        correction = 0.0
    return TailFit(coefficient, p_raw, p_used, coherent, correction, envelope, True, n_win)


def radial_integral(
    samples: np.ndarray,
    config: WickConfig,
    momenta: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> RadialResult:
    """(2 pi^2)^{-1} int_0^{k_max} samples(k) k^2 dk with optional tail.

    samples must be given on the configured nodes; pass momenta/weights
    explicitly to reuse a bank's grid, else they are rebuilt from config.
    """
    if momenta is None or weights is None:
        momenta, weights = radial_grid(config)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != momenta.shape:
        raise ValueError("samples must match the quadrature nodes")
    contributions = weights * momenta**2 * samples
    finite_part = float(np.sum(contributions))
    tail = None
    tail_correction = 0.0
    tail_uncertainty = 0.0
    if config.tail_model == "power-fit":
        tail = _fit_tail(momenta, samples, config)
        tail_correction = tail.correction
        # applied corrections are trusted to half their size; suppressed
        # (oscillatory) tails are uncertain up to the full envelope
        tail_uncertainty = 0.5 * abs(tail.correction) if tail.coherent else tail.envelope
        if not tail.ok:
            tail_uncertainty = tail.envelope
    quad_floor = 1e-14 * float(np.sum(np.abs(contributions)))
    value = (finite_part + tail_correction) / TWO_PI_SQ
    error = (tail_uncertainty + quad_floor) / TWO_PI_SQ
    return RadialResult(value, error, tail)


def finite_terms(a_tau: float, a0: float, mass: float, length_scale: float) -> float:
    """Closed-form remainder of the subtraction at scale factor a(tau)."""
    if mass == 0.0:
        return 0.0
    ratio = a0 / a_tau
    log_scale = EULER_GAMMA + math.log(mass * length_scale / math.sqrt(2.0))
    return (
        mass**2
        / (16.0 * math.pi**2)
        * (0.5 - ratio**2 + 2.0 * math.log(ratio) + 2.0 * log_scale)
    )


def wick_square_renormalized(
    a: SampledFunction | float,
    bank: ModeBank,
    tau: float,
    params: PhysicalParams,
    config: WickConfig,
    detail: bool = False,
):
    """W_ren(tau): radial integral of the subtracted integrand over the bank
    plus the finite correction terms.  Identically zero for m = 0.

    a may be a sampled scale factor or the plain value a(tau)."""
    if params.mass == 0.0:
        return (0.0, None) if detail else 0.0
    if not math.isclose(bank.tau, tau, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError(f"bank is at tau={bank.tau}, requested {tau}")
    a_tau = float(a(tau).real) if callable(a) else float(a)
    if a_tau <= 0.0:
        raise ValueError("a(tau) must be > 0")
    a0 = bank.a0_anchor
    v_tau = params.mass**2 * (a_tau**2 - a0**2)
    g = wick_integrand(bank.chi, bank.momenta, bank.k0, v_tau)
    result = radial_integral(g, config, momenta=bank.momenta, weights=bank.weights)
    value = result.value / a_tau**2 + finite_terms(
        a_tau, a0, params.mass, params.length_scale
    )
    return (value, result) if detail else value


def wick_square_bogoliubov_delta(
    bank: ModeBank,
    profile: BogoliubovProfile,
    a_tau: float,
    config: WickConfig,
    tol: float = 1e-8,
) -> float:
    """State-change correction (2/a^2)(2 pi^2)^{-1} int (|B|^2 |chi|^2
    + Re(A B chi^2)) k^2 dk for a Bogoliubov profile."""
    a_vals = np.asarray(profile.A(bank.momenta), dtype=np.complex128)
    b_vals = np.asarray(profile.B(bank.momenta), dtype=np.complex128)
    constraint = np.abs(a_vals) ** 2 - np.abs(b_vals) ** 2 - 1.0
    if np.any(np.abs(constraint) > tol):
        j = int(np.argmax(np.abs(constraint)))
        raise InvalidProfile(
            f"|A|^2-|B|^2 = {1.0 + constraint[j]:.12g} at k={bank.momenta[j]:.6g}"
        )
    g = (np.abs(b_vals) ** 2 * np.abs(bank.chi) ** 2
         + (a_vals * b_vals * bank.chi**2).real)
    result = radial_integral(g, config, momenta=bank.momenta, weights=bank.weights)
    return 2.0 / a_tau**2 * result.value
