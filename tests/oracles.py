"""Reference implementations the tests compare the solver against.

None of this is on the solver path; each routine is an independent route
to a quantity the package computes another way.  Their background is a
Potential, V and V' sampled at grid nodes plus the constant a0^2 m^2; like
the package, the RK4 stepper takes V between nodes as the cubic Hermite
interpolant of V and V'.

* single-mode RK4 evolution, one stage sequence per substep (evolve_mode,
  its stepper _rk4_steps, the analytic V = 0 propagation _free_sweep and
  its state types), checked against the transfer-map sweep of the bank in
  semiflrw.modes;
* the perturbative series of the mode recurrence (perturbative_orders,
  perturbative_mode) and its factorial bound (mode_bound), by nested
  cumulative-Simpson quadrature from scipy;
* the initial energy integral m^2 a'(tau0)^2 / 24 by Gauss-Legendre
  quadrature (initial_energy_integral) and from live vacuum and Parker
  modes (initial_energy_from_modes), against the closed form that
  semiflrw.energy uses;
* verify_retardation, a probe that a right-hand side is retarded;
* the segment rule as one convolution and one running sum
  (cumulative_integral), against the matrices of semiflrw.core.Rule;
* the exact massless solution tau(H), by quadrature of the separable
  equation (massless_tau), and the cosmological constant that makes a
  rate a root of the massless source (lam_for_root);
* the renormalized Wick square one time at a time, with a numpy.polyfit
  tail fit (wick_square_per_node), against the row-vectorised quadrature
  and closed-form fit in semiflrw.wick, and a Bogoliubov state's
  correction to it from the vacuum's modes (bogoliubov_delta_per_node),
  against W of the state's folded modes less W of the vacuum's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid, quad, simpson

from semiflrw.core import COLD_START, DEFAULT_HUBBLE_CRITICAL, PhysicalParams, RuleStart
from semiflrw.modes import DegenerateMode, potential, wronskian_error
from semiflrw.wick import (
    _P_CLIP,
    TAIL_FIT_WINDOW,
    TWO_PI_SQ,
    BogoliubovProfile,
    InvalidProfile,
    TailFitFailed,
    WickConfig,
    finite_terms,
    wick_integrand,
)


class StepTooLarge(RuntimeError):
    """Requested RK4 step would exceed the Wronskian-drift budget."""


@dataclass(frozen=True, eq=False)
class Potential:
    """Frequency perturbation V(tau) = m^2 (a^2 - a0^2) and its derivative
    dV at the nodes taus.

    freq_shift is the constant a0^2 m^2, so the full mode frequency is
    omega^2(k, tau) = k^2 + freq_shift + V(tau).  dV defaults to the
    second-order finite difference of V.
    """

    taus: np.ndarray
    V: np.ndarray
    freq_shift: float = 0.0
    dV: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.freq_shift) and self.freq_shift >= 0.0):
            raise ValueError("freq_shift must be finite and >= 0")
        if self.dV is None:
            object.__setattr__(
                self, "dV", np.gradient(self.V, self.taus, edge_order=2)
            )

    @classmethod
    def from_scale_factor(
        cls, taus: np.ndarray, a: np.ndarray, mass: float, a0: float | None = None
    ) -> Potential:
        """Build V from a sampled scale factor; a0 defaults to a at the grid start."""
        anchored = a0 is None
        if anchored:
            a0 = float(a[0])
        v_values = potential(a, a0, mass)
        if anchored and v_values[0] != 0.0:
            raise ValueError("V(tau0) must vanish for the anchored construction")
        return cls(taus, v_values, freq_shift=(a0 * mass) ** 2)

    @classmethod
    def zero(cls, taus: np.ndarray, freq_shift: float = 0.0) -> Potential:
        return cls(taus, np.zeros(taus.size), freq_shift)

    def frequency(self, k: float) -> float:
        return math.sqrt(k**2 + self.freq_shift)


@dataclass(frozen=True)
class ModeState:
    """One mode at one time: (k, k0, chi, chi', tau)."""

    k: float
    k0: float
    chi: complex
    dchi: complex
    tau: float

    @property
    def wronskian_error(self) -> float:
        return float(wronskian_error(self.chi, self.dchi))


@dataclass(frozen=True, eq=False)
class ModeTrajectory:
    """Mode history on grid nodes between two times."""

    k: float
    k0: float
    taus: np.ndarray
    chi: np.ndarray
    dchi: np.ndarray

    @property
    def wronskian_errors(self) -> np.ndarray:
        return wronskian_error(self.chi, self.dchi)

    @property
    def final_state(self) -> ModeState:
        return ModeState(
            self.k, self.k0, complex(self.chi[-1]), complex(self.dchi[-1]),
            float(self.taus[-1]),
        )


def initial_mode(k: float, a0: float, mass: float, tau0: float) -> ModeState:
    """Positive-frequency initial data chi = (2 k0)^{-1/2} e^{i k0 tau0}."""
    if k < 0.0:
        raise ValueError("k must be >= 0")
    if not (np.isfinite(a0) and a0 > 0.0):
        raise ValueError("a0 must be finite and > 0")
    k0 = math.sqrt(k**2 + (a0 * mass) ** 2)
    if k0 == 0.0:
        raise DegenerateMode("k = 0 with m = 0 has no normalizable mode")
    chi = np.exp(1j * k0 * tau0) / math.sqrt(2.0 * k0)
    return ModeState(float(k), k0, complex(chi), complex(1j * k0 * chi), float(tau0))


def _drift_estimate(span: float, omega_max: float, step: float) -> float:
    # RK4 Wronskian drift per step is (omega*h)^6/72; sum over span/h steps.
    if span <= 0.0 or omega_max <= 0.0:
        return 0.0
    return span * omega_max**6 * step**5 / 72.0


def _segment_nodes(potential: Potential, tau_from: float, to_tau: float) -> np.ndarray:
    nodes = potential.taus
    lo = np.searchsorted(nodes, tau_from - 1e-12)
    hi = np.searchsorted(nodes, to_tau + 1e-12)
    segment = nodes[lo:hi]
    if segment.size < 2:
        raise ValueError("potential grid has no span between tau_from and to_tau")
    if not (
        math.isclose(segment[0], tau_from, rel_tol=0.0, abs_tol=1e-10)
        and math.isclose(segment[-1], to_tau, rel_tol=0.0, abs_tol=1e-10)
    ):
        raise ValueError("tau_from and to_tau must lie on the potential grid")
    return segment


def _rk4_steps(
    k0_sq: float,
    chi: complex,
    dchi: complex,
    nodes: np.ndarray,
    v_values: np.ndarray,
    dv_values: np.ndarray,
    step: float,
):
    """March chi'' = -(k0^2 + V) chi through consecutive grid intervals, V
    inside each interval the cubic Hermite interpolant of V and V' at its
    ends, one classical RK4 stage sequence per substep (n_sub =
    ceil(width / step) substeps per interval), recording at every node.
    Broadcasts over array k0_sq, chi and dchi.  Returns (chi_hist,
    dchi_hist) with shape (n_nodes,) + chi.shape."""
    chi = np.array(chi, dtype=np.complex128)
    dchi = np.array(dchi, dtype=np.complex128)
    chi_hist = np.empty((nodes.size,) + chi.shape, dtype=np.complex128)
    dchi_hist = np.empty_like(chi_hist)
    chi_hist[0] = chi
    dchi_hist[0] = dchi
    for j in range(nodes.size - 1):
        width = nodes[j + 1] - nodes[j]
        v_lo, d_lo, d_hi = v_values[j], dv_values[j], dv_values[j + 1]
        secant = (v_values[j + 1] - v_lo) / width
        c2 = (3.0 * secant - 2.0 * d_lo - d_hi) / width
        c3 = (d_lo + d_hi - 2.0 * secant) / (width * width)

        def v_at(t):
            return v_lo + t * (d_lo + t * (c2 + t * c3))

        n_sub = max(1, int(math.ceil(width / step - 1e-12)))
        h = width / n_sub
        for i in range(n_sub):
            t_local = i * h
            w_a = k0_sq + v_at(t_local)
            w_b = k0_sq + v_at(t_local + 0.5 * h)
            w_c = k0_sq + v_at(t_local + h)
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


def _free_sweep(k0, chi, dchi, nodes: np.ndarray):
    """Analytic propagation for V = 0."""
    delta = nodes - nodes[0]
    cos = np.cos(np.multiply.outer(delta, k0))
    sin = np.sin(np.multiply.outer(delta, k0))
    chi_hist = cos * chi + sin * (dchi / k0)
    dchi_hist = -sin * (k0 * chi) + cos * dchi
    return chi_hist.astype(np.complex128), dchi_hist.astype(np.complex128)


def evolve_mode(
    state: ModeState,
    potential: Potential,
    to_tau: float,
    step: float,
    wronskian_tol: float = 1e-6,
) -> ModeTrajectory:
    """Integrate one mode from state.tau to to_tau, sampling on the V grid.

    step is the maximum RK4 substep; the sweep subdivides every grid interval
    accordingly.  Raises StepTooLarge when the accumulated Wronskian-drift
    estimate for that step exceeds wronskian_tol.
    """
    if step <= 0.0:
        raise ValueError("step must be > 0")
    if to_tau <= state.tau:
        raise ValueError("to_tau must exceed state.tau")
    nodes = _segment_nodes(potential, state.tau, to_tau)
    v_values = np.interp(nodes, potential.taus, potential.V)
    if not np.any(potential.V):
        chi_hist, dchi_hist = _free_sweep(
            np.float64(state.k0), complex(state.chi), complex(state.dchi), nodes
        )
        return ModeTrajectory(state.k, state.k0, nodes, chi_hist, dchi_hist)
    omega_max = math.sqrt(state.k0**2 + max(float(np.max(v_values)), 0.0))
    drift = _drift_estimate(to_tau - state.tau, omega_max, step)
    if drift > wronskian_tol:
        raise StepTooLarge(
            f"step {step:g} gives Wronskian drift estimate {drift:.3g} "
            f"> budget {wronskian_tol:g}"
        )
    chi_hist, dchi_hist = _rk4_steps(
        np.float64(state.k0**2),
        np.complex128(state.chi),
        np.complex128(state.dchi),
        nodes,
        v_values,
        np.interp(nodes, potential.taus, potential.dV),
        step,
    )
    return ModeTrajectory(state.k, state.k0, nodes, chi_hist, dchi_hist)


def _cumulative_simpson_complex(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    # scipy's cumulative_simpson silently casts complex input to real
    if np.iscomplexobj(y):
        return cumulative_simpson(y.real, x=x, initial=0.0) + 1j * cumulative_simpson(
            y.imag, x=x, initial=0.0
        )
    return cumulative_simpson(y, x=x, initial=0.0)


def perturbative_orders(
    k: float, potential: Potential, n_max: int, tau: float | None = None
) -> np.ndarray:
    """Recurrence orders chi^0(tau), ..., chi^{n_max}(tau) by nested
    cumulative-Simpson quadrature of the retarded kernel sin(k0(eta-tau))/k0.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    taus = potential.taus
    if tau is None:
        tau = float(taus[-1])
    j_end = int(np.searchsorted(taus, tau - 1e-12))
    if not math.isclose(taus[j_end], tau, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError("tau must lie on the potential grid")
    k0 = potential.frequency(k)
    if k0 == 0.0:
        raise DegenerateMode("k0 = 0")
    nodes = taus[: j_end + 1]
    v = potential.V[: j_end + 1]
    sin_nodes = np.sin(k0 * nodes)
    cos_nodes = np.cos(k0 * nodes)
    current = np.exp(1j * k0 * nodes) / math.sqrt(2.0 * k0)
    orders = [complex(current[-1])]
    for _ in range(n_max):
        weighted = v * current
        int_sin = _cumulative_simpson_complex(sin_nodes * weighted, nodes)
        int_cos = _cumulative_simpson_complex(cos_nodes * weighted, nodes)
        current = (cos_nodes * int_sin - sin_nodes * int_cos) / k0
        orders.append(complex(current[-1]))
    return np.array(orders, dtype=np.complex128)


def perturbative_mode(
    k: float, potential: Potential, n_max: int, tau: float | None = None
) -> complex:
    """Truncated series sum over the recurrence orders; oracle for evolve_mode."""
    return complex(np.sum(perturbative_orders(k, potential, n_max, tau)))


def mode_bound(
    n: int, k: float, potential: Potential, tau: float | None = None, l: int = 0
) -> float:
    """Factorial convergence estimate for the n-th recurrence order:

        (2 k0)^{-1/2} / n! * (int|V| / k0)^l * (int (tau-eta)|V|)^{n-l}.
    """
    if not 0 <= l <= n:
        raise ValueError("need 0 <= l <= n")
    taus = potential.taus
    if tau is None:
        tau = float(taus[-1])
    j_end = int(np.searchsorted(taus, tau - 1e-12))
    if not math.isclose(taus[j_end], tau, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError("tau must lie on the potential grid")
    k0 = potential.frequency(k)
    if k0 == 0.0:
        raise DegenerateMode("k0 = 0")
    prefactor = 1.0 / math.sqrt(2.0 * k0)
    if n == 0:
        return prefactor
    nodes = taus[: j_end + 1]
    abs_v = np.abs(potential.V[: j_end + 1])
    int_v = float(simpson(abs_v, x=nodes))
    int_weighted = float(simpson((tau - nodes) * abs_v, x=nodes))
    return (
        prefactor
        / math.factorial(n)
        * (int_v / k0) ** l
        * int_weighted ** (n - l)
    )


def parker_mode(k: float, taus: np.ndarray, a: np.ndarray, tau: float, m: float):
    """Zeroth adiabatic mode (chi0, chi0') at tau, for a sampled at taus.

    chi0 = (sqrt(2) Omega^{1/2})^{-1} exp(i int Omega), Omega = sqrt(k^2 + m^2 a^2);
    the derivative carries both the amplitude term and the i Omega phase term.
    """
    if k == 0.0 and m == 0.0:
        raise DegenerateMode("k = m = 0 has no oscillating mode")
    omega_vals = np.sqrt(k**2 + m**2 * a**2)
    if not np.all(omega_vals > 0.0):
        raise DegenerateMode("k^2 + m^2 a^2 must stay positive")
    phase = cumulative_trapezoid(omega_vals, taus, initial=0.0)
    a_prime = np.gradient(a, taus, edge_order=2)
    omega = float(np.interp(tau, taus, omega_vals))
    a_tau = float(np.interp(tau, taus, a))
    ap_tau = float(np.interp(tau, taus, a_prime))
    phi = float(np.interp(tau, taus, phase))
    # written as sqrt(1/(2 omega)) so the vacuum-state amplitude at tau0 is
    # the bitwise-identical double and the big terms of the energy
    # subtraction cancel exactly instead of leaving O(omega) ulp noise
    amplitude = math.sqrt(1.0 / (2.0 * omega))
    chi0 = amplitude * complex(math.cos(phi), math.sin(phi))
    amp_prime = -0.25 * (2.0 * m**2 * a_tau * ap_tau) * omega**-2.5 / math.sqrt(2.0)
    dchi0 = (amp_prime + 1j * omega * amplitude) * complex(math.cos(phi), math.sin(phi))
    return chi0, dchi0


def _mod_sq_diff(x: complex, y: complex) -> float:
    # |x|^2 - |y|^2 per component as (a - b)(a + b); components shared
    # bitwise between x and y drop out exactly instead of leaving
    # O(|x|^2) ulp residue after two large sums are subtracted
    return (x.real - y.real) * (x.real + y.real) + (x.imag - y.imag) * (
        x.imag + y.imag
    )


def energy_integrand(state: ModeState, parker, k: float, a_tau: float, m: float) -> float:
    """Adiabatic reference mode sum minus state mode sum at one k.

    parker is the (chi0, chi0') pair from parker_mode at the state's time.
    Positive at tau0 for the vacuum-normalized state (the Parker mode carries
    the extra amplitude-derivative energy).
    """
    chi0, dchi0 = parker
    omega_sq = k**2 + m**2 * a_tau**2
    return _mod_sq_diff(dchi0, state.dchi) + omega_sq * _mod_sq_diff(
        chi0, state.chi
    )


def initial_energy_integral(
    a0: float, da0: float, m: float, config: WickConfig
) -> float:
    """(m^4/8) int_0^inf a0^2 da0^2 (k^2 + m^2 a0^2)^{-5/2} k^2 dk.

    Gauss-Legendre under k = m a0 tan(theta), which maps [0, inf) to
    (0, pi/2) where the quadrature converges spectrally; the closed form
    is m^2 da0^2 / 24.
    """
    if m == 0.0 or da0 == 0.0:
        return 0.0
    theta, w_theta = np.polynomial.legendre.leggauss(config.n_k)
    theta = 0.25 * math.pi * (theta + 1.0)
    w_theta = 0.25 * math.pi * w_theta
    k = m * a0 * np.tan(theta)
    w_k = m * a0 * w_theta / np.cos(theta) ** 2
    density = (m**4 / 8.0) * a0**2 * da0**2 * (k**2 + (m * a0) ** 2) ** -2.5
    return float(np.sum(w_k * k**2 * density))


# Beyond k ~ 300 m a0 the reference-minus-state difference drops below the
# double-precision resolution of the two mode sums (each O(k)); the live-mode
# quadrature stops at 50 m a0 and the remaining ~6e-4 fraction is appended
# analytically from the measured initial slope.
_MODE_ROUTE_CUT = 50.0


def _density_tail(a0: float, da0: float, m: float, k_cut: float) -> float:
    """(m^4/8) a0^2 da0^2 int_{k_cut}^inf k^2 (k^2 + (m a0)^2)^{-5/2} dk."""
    c_sq = (m * a0) ** 2
    remaining = 1.0 - k_cut**3 / (k_cut**2 + c_sq) ** 1.5
    return (m**4 / 8.0) * a0**2 * da0**2 * remaining / (3.0 * c_sq)


def initial_energy_from_modes(
    taus: np.ndarray, a: np.ndarray, m: float, config: WickConfig
) -> float:
    """Same integral evaluated from live vacuum and Parker modes at tau0."""
    if m == 0.0:
        return 0.0
    tau0 = float(taus[0])
    a0 = float(a[0])
    da0 = float(np.gradient(a, taus, edge_order=2)[0])
    # Gauss-Legendre under k = m a0 tan(theta), theta < atan(cut)
    theta_max = math.atan(_MODE_ROUTE_CUT)
    theta, w_theta = np.polynomial.legendre.leggauss(config.n_k)
    theta = 0.5 * theta_max * (theta + 1.0)
    w_theta = 0.5 * theta_max * w_theta
    k_nodes = m * a0 * np.tan(theta)
    w_k = m * a0 * w_theta / np.cos(theta) ** 2
    total = 0.0
    for k, w in zip(k_nodes, w_k):
        k0 = math.sqrt(k**2 + (m * a0) ** 2)
        chi = math.sqrt(1.0 / (2.0 * k0)) * complex(
            math.cos(k0 * tau0), math.sin(k0 * tau0)
        )
        state = ModeState(k=k, k0=k0, chi=chi, dchi=1j * k0 * chi, tau=tau0)
        parker = parker_mode(k, taus, a, tau0, m)
        total += w * k**2 * energy_integrand(state, parker, k, a0, m)
    return total + _density_tail(a0, da0, m, _MODE_ROUTE_CUT * m * a0)


# Adams-Moulton 4's numerators over 24 on f_{j-2..j+1}, reversed for
# np.convolve
_AM4_REVERSED = np.array([9.0, 19.0, -5.0, 1.0])


def cumulative_integral(
    values: np.ndarray,
    nodes: np.ndarray,
    start: RuleStart = COLD_START,
    back=(0.0, 0.0),
) -> np.ndarray:
    """semiflrw.core.cumulative_integral by its per-interval increments:
    Adams-Moulton 4 on every interval by one np.convolve over the back
    points and the values, start's rows on the first two, then one running
    sum times the width over 24."""
    width = (nodes[-1] - nodes[0]) / (nodes.size - 1)
    padded = np.concatenate((back, values))
    steps = np.convolve(padded, _AM4_REVERSED, "valid")
    steps[:2] = start.weights[: steps.size, : padded.size] @ padded[:5]
    out = np.empty(values.size)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    out *= width
    out /= 24.0
    return out


def verify_retardation(rhs, probe: np.ndarray) -> bool:
    """Perturb the probe on a trailing subinterval; rhs(probe)[0] must be
    unchanged (bit-identical) on the leading part."""
    base = np.asarray(rhs(probe)[0], dtype=np.float64)
    split = probe.size // 2
    scale = max(1.0, float(np.max(np.abs(probe))))
    perturbed = probe.copy()
    perturbed[split + 1 :] += 0.37 * scale
    shifted = np.asarray(rhs(perturbed)[0], dtype=np.float64)
    return bool(np.array_equal(base[: split + 1], shifted[: split + 1]))


@dataclass(frozen=True)
class PerNodeRadial:
    """One time's radial integral and its tail: the correction added, the
    fitted exponent (NaN without a fit) and whether a fit was made."""

    value: float
    correction: float
    p_raw: float
    ok: bool


def _polyfit_tail(momenta: np.ndarray, samples: np.ndarray, config: WickConfig):
    """(correction, p_raw, ok) of the power-law fit over the top window, by
    numpy.polyfit.  An all-zero window has no fit; an ill-conditioned one
    has none either and warns TailFitFailed."""
    n_win = max(3, int(math.ceil(TAIL_FIT_WINDOW * momenta.size)))
    k_win = momenta[-n_win:]
    g_win = samples[-n_win:]
    mag = np.abs(g_win)
    peak = float(np.max(mag))
    if peak == 0.0:
        return 0.0, math.nan, False
    keep = mag > 1e-3 * peak
    if int(np.count_nonzero(keep)) < 4 or np.ptp(np.log(k_win[keep])) < 1e-6:
        warnings.warn("tail fit ill-conditioned", TailFitFailed, stacklevel=2)
        return 0.0, math.nan, False
    log_k = np.log(k_win[keep])
    slope, intercept = np.polyfit(log_k, np.log(mag[keep]), 1)
    p_raw = float(-slope)
    p_used = float(np.clip(p_raw, *_P_CLIP))
    coefficient = float(np.exp(intercept + (p_used - p_raw) * np.mean(log_k)))
    tail = coefficient * config.k_max ** (3.0 - p_used) / (p_used - 3.0)
    coherent = bool(np.all(g_win >= 0.0) or np.all(g_win <= 0.0))
    sign = 1.0 if float(np.sum(g_win)) >= 0.0 else -1.0
    return (sign * tail if coherent else 0.0), p_raw, True


def _radial_per_node(samples, config: WickConfig, momenta, weights) -> PerNodeRadial:
    correction, p_raw, ok = 0.0, math.nan, False
    if config.tail_model == "power-fit":
        correction, p_raw, ok = _polyfit_tail(momenta, samples, config)
    total = float(np.sum(weights * momenta**2 * samples)) + correction
    return PerNodeRadial(total / TWO_PI_SQ, correction, p_raw, ok)


def wick_square_per_node(
    a_tau: float, bank, chi: np.ndarray, params: PhysicalParams, config: WickConfig
) -> tuple[float, PerNodeRadial | None]:
    """W_ren at one time from that time's row of bank modes."""
    if params.mass == 0.0:
        return 0.0, None
    a0 = bank.a0_anchor
    v_tau = params.mass**2 * (a_tau**2 - a0**2)
    g = wick_integrand(chi, bank.k0, v_tau)
    radial = _radial_per_node(g, config, bank.momenta, bank.weights)
    value = radial.value / a_tau**2 + finite_terms(
        a_tau, a0, params.mass, params.length_scale
    )
    return float(value), radial


def bogoliubov_delta_per_node(
    a_tau: float,
    bank,
    chi: np.ndarray,
    profile: BogoliubovProfile,
    config: WickConfig,
    tol: float = 1e-8,
) -> float:
    """Bogoliubov state correction at one time from that time's mode row."""
    a_vals = np.asarray(profile.A(bank.momenta), dtype=np.complex128)
    b_vals = np.asarray(profile.B(bank.momenta), dtype=np.complex128)
    constraint = np.abs(a_vals) ** 2 - np.abs(b_vals) ** 2 - 1.0
    if not np.all(np.abs(constraint) <= tol):
        raise InvalidProfile("|A|^2 - |B|^2 != 1 on a quadrature node")
    g = np.abs(b_vals) ** 2 * np.abs(chi) ** 2 + (a_vals * b_vals * chi**2).real
    radial = _radial_per_node(g, config, bank.momenta, bank.weights)
    return 2.0 / a_tau**2 * radial.value


def massless_tau(
    hubble: float, params: PhysicalParams, tau0: float, a0: float, hubble0: float
) -> float:
    """The time at which a massless run from (tau0, a0, hubble0) reaches the
    Hubble rate hubble, exact to the quadrature's 1e-13.

    For m = 0, W drops out of the equation and it separates.  With
    S(H) = H^4 - 2 Hc^2 H^2 + 960 pi^2 Lambda, H' = a S / (Hc^2 - H^2) and
    a' = a^2 H give d ln a / dH = H (Hc^2 - H^2) / S = -(1/4) d ln S / dH,
    so a(H) = a0 (S(H0) / S(H))^(1/4), and tau(H) is tau0 plus the integral
    of (Hc^2 - x^2) / (a(x) S(x)) from H0 to H.  S must keep its sign
    between them: a root of S is a fixed point the run does not pass.
    """
    hc2 = params.hubble_critical**2
    lam = 960.0 * math.pi**2 * params.cosmological_constant

    def source(x):
        return x**4 - 2.0 * hc2 * x**2 + lam

    def integrand(x):
        a = a0 * (source(hubble0) / source(x)) ** 0.25
        return (hc2 - x * x) / (a * source(x))

    value, _ = quad(integrand, hubble0, hubble, epsabs=0.0, epsrel=1e-13, limit=200)
    return tau0 + value


def lam_for_root(h_root: float) -> float:
    """Cosmological constant making h_root a zero of the massless source."""
    hc = DEFAULT_HUBBLE_CRITICAL
    return (2.0 * hc**2 * h_root**2 - h_root**4) / (960.0 * math.pi**2)
