"""Renormalized Wick square by mode-level subtraction.

At each time the mode integrand |chi_k|^2 - 1/(2 k0) + V/(4 k0^3) is reduced
over the radial quadrature

    (2 pi^2)^{-1} int_0^{k_max} g(k) k^2 dk  (+ power-law tail estimate),

and the finite correction terms

    (m^2 / (16 pi^2)) * (1/2 - (a0/a)^2 + 2 log(a0/a) + 2 log(e^gamma m lam / sqrt(2)))

are added.  The quadrature uses Gauss-Legendre panels, logarithmically graded
above a knee (the integrand has O(1) structure near k ~ a*m and power-law
decay beyond; a run puts the knee at 10 a0 m).  The subtracted integrand
oscillates in k at fixed tau, so the tail fit works on the magnitude
envelope: the signed analytic tail is only added when the fit window has a
uniform sign, otherwise no tail is added.  No error estimate is made.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EULER_GAMMA, MAX_GRID_NODES, PhysicalParams, check_integers
from .modes import ModeBank, potential

TWO_PI_SQ = 2.0 * math.pi**2

# The Gauss-Legendre rule of each radial panel, its nodes and weights on
# [-1, 1]: the float reprs of numpy's leggauss(8), written out so that a run
# imports no numpy.polynomial.
PANEL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362,
])
PANEL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706,
])
PANEL_POINTS = PANEL_NODES.size

# The tail fit runs over this top fraction of the radial nodes.
TAIL_FIT_WINDOW = 0.25

# Tail exponents outside this band make the analytic tail integral
# meaningless (p -> 3 diverges); the raw fitted exponent is still reported.
_P_CLIP = (3.05, 4.0)


class TailFitFailed(UserWarning):
    """Tail fit was ill-conditioned; tail contribution set to zero."""


class InvalidProfile(ValueError):
    """Bogoliubov profile is not finite or violates |A|^2 - |B|^2 = 1 at a
    quadrature node."""


@dataclass(frozen=True)
class WickConfig:
    """Radial-quadrature and tail-handling knobs.  n_k must be a multiple
    of PANEL_POINTS so the panel count is unambiguous."""

    k_max: float
    n_k: int = 64
    tail_model: str = "power-fit"

    def __post_init__(self):
        check_integers(self, ("n_k",))
        if not (np.isfinite(self.k_max) and self.k_max > 0.0):
            raise ValueError("k_max must be finite and > 0")
        if not 16 <= self.n_k <= MAX_GRID_NODES:
            raise ValueError(f"n_k must lie in [16, {MAX_GRID_NODES}]")
        if self.tail_model not in ("none", "power-fit"):
            raise ValueError(f"unknown tail_model {self.tail_model!r}")
        if self.n_k % PANEL_POINTS != 0:
            raise ValueError(f"n_k must be a multiple of {PANEL_POINTS}")


@dataclass(frozen=True)
class BogoliubovProfile:
    """State change ξ_k = A(k) χ_k + conj(B(k)) conj(χ_k)."""

    A: Callable[[np.ndarray], np.ndarray]
    B: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def gaussian(cls, amplitude: float, k_scale: float) -> BogoliubovProfile:
        """B(k) = amplitude * exp(-(k/k_scale)^2) with real normalizing A."""
        if not math.isfinite(amplitude):
            raise ValueError(f"amplitude must be finite, got {amplitude}")
        if not 0.0 < k_scale < math.inf:
            raise ValueError(f"k_scale must be finite and > 0, got {k_scale}")

        def b_func(k):
            return amplitude * np.exp(-((np.asarray(k) / k_scale) ** 2))

        def a_func(k):
            return np.sqrt(1.0 + np.abs(b_func(k)) ** 2)

        return cls(a_func, b_func)

    def on(self, momenta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) on the momenta as complex arrays, checked finite and
        normalized: |A|^2 - |B|^2 = 1 within 1e-8 plus the rounding of the
        squares, 4 eps (|A|^2 + |B|^2)."""
        a_vals = np.asarray(self.A(momenta), dtype=np.complex128)
        b_vals = np.asarray(self.B(momenta), dtype=np.complex128)
        finite = np.isfinite(a_vals) & np.isfinite(b_vals)
        if not np.all(finite):
            j = int(np.argmin(finite))
            raise InvalidProfile(
                f"A = {a_vals[j]}, B = {b_vals[j]} is not finite at k={momenta[j]:.6g}"
            )
        a_sq, b_sq = np.abs(a_vals) ** 2, np.abs(b_vals) ** 2
        excess = np.abs(a_sq - b_sq - 1.0) - 4.0 * np.finfo(float).eps * (a_sq + b_sq)
        if np.any(excess > 1e-8):
            j = int(np.argmax(excess))
            raise InvalidProfile(
                f"|A|^2-|B|^2 = {a_sq[j] - b_sq[j]:.12g} at k={momenta[j]:.6g}"
            )
        return a_vals, b_vals


@dataclass(frozen=True)
class TailFit:
    """Power-law fit C k^{-p} of the integrand magnitude over the top window,
    and the tail integral it adds (correction, non-zero only where the
    window has one sign).

    Fitted to a block of rows, every field is an array with one entry per
    row; fitted to one row, they are plain values.  A row with no fit (an
    all-zero window or an ill-conditioned one) has ok and coherent False, a
    correction of 0 and NaN coefficient and exponents.
    """

    coefficient: float
    p_raw: float
    p_used: float
    coherent: bool
    correction: float
    ok: bool


def radial_grid(k_max: float, n_k: int, k_knee: float = 0.0):
    """Gauss-Legendre panel nodes and weights on [0, k_max]: n_k // 8 panels,
    linear below the knee and log-graded above it; linear throughout for a
    zero knee."""
    n_panels = n_k // PANEL_POINTS
    knee = min(k_knee, k_max)
    # a knee within rounding of k_max (10 a0 m for m just below k_max / 10 a0)
    # would squeeze the log panels below one ulp and repeat nodes
    at_top = math.isclose(knee, k_max, rel_tol=1e-9)
    if knee <= 0.0 or at_top or n_panels < 2:
        edges = np.linspace(0.0, k_max, n_panels + 1)
    else:
        n_lin = max(1, n_panels // 2)
        n_log = n_panels - n_lin
        lin_edges = np.linspace(0.0, knee, n_lin + 1)
        log_edges = np.geomspace(knee, k_max, n_log + 1)
        edges = np.concatenate([lin_edges, log_edges[1:]])
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (PANEL_NODES + 1.0))
        weights.append(half * PANEL_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(weights)


def wick_integrand(chi, k0, v_tau):
    """Subtracted mode integrand |chi|^2 - 1/(2 k0) + V(tau)/(4 k0^3),
    vectorized over quadrature nodes."""
    k0 = np.asarray(k0, dtype=np.float64)
    if np.any(k0 <= 0.0):
        raise ValueError("k0 must be > 0")
    mod_sq = np.abs(np.asarray(chi)) ** 2
    return mod_sq - 1.0 / (2.0 * k0) + v_tau / (4.0 * k0**3)


def _plain(x):
    """A 0-d result as a plain Python scalar; arrays pass through."""
    return x.item() if np.ndim(x) == 0 else x


def _fit_tail(momenta: np.ndarray, samples: np.ndarray, config: WickConfig) -> TailFit:
    """Fit C k^{-p} to |samples| over the top TAIL_FIT_WINDOW of the nodes,
    one fit per row.

    samples has shape (..., n_k); every field has the leading shape.  The
    fit is the closed-form least-squares line of log|g| on log k through
    the window nodes above 1e-3 of the row's peak.
    """
    n_win = max(3, int(math.ceil(TAIL_FIT_WINDOW * momenta.size)))
    k_win = momenta[-n_win:]
    log_k = np.log(k_win)
    g_win = samples[..., -n_win:]
    mag = np.abs(g_win)
    peak = np.max(mag, axis=-1)
    zero = peak == 0.0
    # drop near-zero crossings of the oscillatory integrand before the log fit
    keep = mag > 1e-3 * peak[..., None]
    n_keep = np.count_nonzero(keep, axis=-1)
    spread = np.max(np.where(keep, log_k, -np.inf), axis=-1) - np.min(
        np.where(keep, log_k, np.inf), axis=-1
    )
    failed = ~zero & ((n_keep < 4) | (spread < 1e-6))
    for index in np.argwhere(failed):
        row = f" at row {','.join(map(str, index))}" if index.size else ""
        warnings.warn(
            f"tail fit ill-conditioned over {n_win} nodes{row}",
            TailFitFailed,
            stacklevel=3,
        )
    fitted = ~(zero | failed)
    use = keep & fitted[..., None]
    count = np.maximum(np.count_nonzero(use, axis=-1), 1)
    with np.errstate(divide="ignore"):
        log_g = np.where(use, np.log(mag), 0.0)
    x_mean = np.sum(np.where(use, log_k, 0.0), axis=-1) / count
    y_mean = np.sum(log_g, axis=-1) / count
    dx = np.where(use, log_k - x_mean[..., None], 0.0)
    dy = np.where(use, log_g - y_mean[..., None], 0.0)
    slope = np.sum(dx * dy, axis=-1) / np.where(fitted, np.sum(dx * dx, axis=-1), 1.0)
    intercept = y_mean - slope * x_mean
    p_raw = np.where(fitted, -slope, np.nan)
    p_used = np.clip(p_raw, *_P_CLIP)
    coefficient = np.exp(intercept + (p_used - p_raw) * x_mean)
    coherent = fitted & (np.all(g_win >= 0.0, axis=-1) | np.all(g_win <= 0.0, axis=-1))
    sign = np.where(np.sum(g_win, axis=-1) >= 0.0, 1.0, -1.0)
    tail = coefficient * config.k_max ** (3.0 - p_used) / (p_used - 3.0)
    return TailFit(
        _plain(coefficient),
        _plain(p_raw),
        _plain(p_used),
        _plain(coherent),
        _plain(np.where(coherent, sign * tail, 0.0)),
        _plain(fitted),
    )


def radial_integral(
    samples: np.ndarray,
    config: WickConfig,
    momenta: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, TailFit | None]:
    """(2 pi^2)^{-1} int_0^{k_max} samples(k) k^2 dk with optional tail.

    samples must be given on the nodes momenta (with quadrature weights
    weights, a bank's grid) along its last axis; each row is integrated on
    its own.  Returns (value, tail): value has the leading shape (a plain
    float for a single row) and tail is the TailFit, None when config's
    tail model is "none".
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[-1:] != momenta.shape:
        raise ValueError("samples must match the quadrature nodes")
    total = np.sum(weights * momenta**2 * samples, axis=-1)
    tail = None
    if config.tail_model == "power-fit":
        tail = _fit_tail(momenta, samples, config)
        total = total + tail.correction
    return _plain(total / TWO_PI_SQ), tail


def finite_terms(a_tau, a0: float, mass: float, length_scale: float):
    """Closed-form remainder of the subtraction at scale factor a(tau);
    a_tau may be an array of times."""
    if mass == 0.0:
        return 0.0
    ratio = a0 / a_tau
    log_scale = EULER_GAMMA + math.log(mass * length_scale / math.sqrt(2.0))
    return (
        mass**2
        / (16.0 * math.pi**2)
        * (0.5 - ratio**2 + 2.0 * np.log(ratio) + 2.0 * log_scale)
    )


def _rows(a, bank: ModeBank, chi) -> tuple[np.ndarray, np.ndarray]:
    """Check that chi holds one row of bank modes per entry of a."""
    a = np.asarray(a, dtype=np.float64)
    chi = np.asarray(chi)
    if chi.shape != a.shape + bank.momenta.shape:
        raise ValueError(
            f"chi has shape {chi.shape}, expected {a.shape + bank.momenta.shape}:"
            " one row of bank modes per scale-factor value"
        )
    if np.any(a <= 0.0):
        raise ValueError("a(tau) must be > 0")
    return a, chi


def wick_square_renormalized(
    a,
    bank: ModeBank,
    chi,
    params: PhysicalParams,
    config: WickConfig,
    detail: bool = False,
):
    """W_ren at every time of a block of mode rows: the radial integral of
    the subtracted integrand plus the finite correction terms.  Identically
    zero for m = 0.

    a holds the scale factor at those times (any shape S) and chi the
    bank's modes there, shape S + (n_k,), e.g. the chi history that
    evolve_bank returns for a segment or bank.chi alone for one time; bank
    supplies the quadrature grid and the tau0 anchor.  The result has shape
    S, a plain float for a single time.  detail=True returns (value, tail)
    with the radial integral's TailFit (None for m = 0 or tail model
    "none").
    """
    if params.mass == 0.0:
        value = _plain(np.zeros(np.shape(a)))
        return (value, None) if detail else value
    a, chi = _rows(a, bank, chi)
    a0 = bank.a0_anchor
    v_tau = potential(a, a0, params.mass)
    g = wick_integrand(chi, bank.k0, v_tau[..., None])
    radial, tail = radial_integral(g, config, bank.momenta, bank.weights)
    value = _plain(
        radial / a**2 + finite_terms(a, a0, params.mass, params.length_scale)
    )
    return (value, tail) if detail else value


def wick_square_bogoliubov_delta(a, bank: ModeBank, chi, coefficients):
    """State-change correction (2/a^2)(2 pi^2)^{-1} int (|B|^2 |chi|^2
    + Re(A B chi^2)) k^2 dk for a Bogoliubov state, per row of chi (a and
    chi shaped as for wick_square_renormalized).  coefficients is the (A, B)
    pair that BogoliubovProfile.on gives on the bank's momenta.  The profile
    decays faster than any power, so the bank's quadrature takes no tail."""
    a_vals, b_vals = coefficients
    a, chi = _rows(a, bank, chi)
    g = np.abs(b_vals) ** 2 * np.abs(chi) ** 2 + (a_vals * b_vals * chi**2).real
    integral = np.sum(bank.weights * bank.momenta**2 * g, axis=-1) / TWO_PI_SQ
    return _plain(2.0 / a**2 * integral)
