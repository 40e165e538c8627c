"""Regularized initial energy density and the Friedmann constraint.

The energy density at the initial time is the radial integral of the
difference between the zeroth adiabatic (Parker) mode sum and the state
mode sum.  For the vacuum-normalized state the difference at tau0 reduces
to the square of the Parker amplitude derivative,

    (m^4/8) a0^2 a'(tau0)^2 (k^2 + m^2 a0^2)^{-5/2},

whose radial integral has the closed form m^2 a'(tau0)^2 / 24.  The
radial integral uses the substitution k = m a0 tan(theta), which maps
[0, inf) to a finite interval where Gauss-Legendre converges spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wick import WickConfig

_VARIANTS = ("given_H0", "solve_for_Lambda", "classical_radiation_offset")


class NegativeDiscriminant(ValueError):
    """rho0 + Lambda < 0: no real initial Hubble rate exists."""


@dataclass(frozen=True)
class ConstraintMode:
    """Which unknown the initial Friedmann constraint is solved for.

    given_H0 computes H0 from (rho0, Lambda); the other two variants hold
    target_hubble fixed and return the Lambda or radiation-density offset
    that makes the constraint hold.
    """

    variant: str
    sign: float = 1.0
    target_hubble: float | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.sign not in (1.0, -1.0):
            raise ValueError("sign must be +1 or -1")
        if self.variant != "given_H0" and self.target_hubble is None:
            raise ValueError(f"variant {self.variant!r} needs target_hubble")


def _tan_grid(a0: float, m: float, n: int):
    """Nodes/weights for int_0^inf f(k) dk under k = m a0 tan(theta)."""
    theta, w_theta = np.polynomial.legendre.leggauss(n)
    # Gauss-Legendre on theta in (0, pi/2): half the interval is pi/4
    theta = 0.25 * math.pi * (theta + 1.0)
    w_theta = 0.25 * math.pi * w_theta
    scale = m * a0
    k = scale * np.tan(theta)
    w_k = scale * w_theta / np.cos(theta) ** 2
    return k, w_k


def initial_energy_integral(a0: float, da0: float, m: float, config: WickConfig) -> float:
    """(m^4/8) int_0^inf a0^2 da0^2 (k^2 + m^2 a0^2)^{-5/2} k^2 dk.

    Matches the closed form m^2 da0^2 / 24.
    """
    if m == 0.0 or da0 == 0.0:
        return 0.0
    k, w_k = _tan_grid(a0, m, config.n_k)
    density = (m**4 / 8.0) * a0**2 * da0**2 * (k**2 + (m * a0) ** 2) ** -2.5
    return float(np.sum(w_k * k**2 * density))


def initial_energy_density(
    a0: float, da0: float, m: float, config: WickConfig, offset: float = 0.0
) -> float:
    """rho(tau0) = (2 pi^2)^{-1} a0^{-4} * radial integral + finite offset.

    The prefactor is the d^3k measure with the conformal weight; the offset
    covers finite terms left unspecified by the regularization convention
    plus any classical radiation density.
    """
    bare = initial_energy_integral(a0, da0, m, config)
    return bare / (2.0 * math.pi**2 * a0**4) + offset


def solve_constraint(rho0: float, lam: float, mode: ConstraintMode) -> float:
    """Solve 3 H0^2 = rho0 + Lambda for the variant's unknown."""
    if mode.variant == "given_H0":
        disc = (rho0 + lam) / 3.0
        if disc < 0.0:
            raise NegativeDiscriminant(f"rho0 + Lambda = {rho0 + lam:.6g} < 0")
        return mode.sign * math.sqrt(disc)
    if mode.variant == "solve_for_Lambda":
        return 3.0 * mode.target_hubble**2 - rho0
    return 3.0 * mode.target_hubble**2 - lam - rho0


def constraint_report(rho0: float, lam: float, mode: ConstraintMode) -> dict:
    """Run-summary record: inputs, solved value, and the constraint residual."""
    solved = solve_constraint(rho0, lam, mode)
    if mode.variant == "given_H0":
        hubble0, lam_eff, rho_eff = solved, lam, rho0
    elif mode.variant == "solve_for_Lambda":
        hubble0, lam_eff, rho_eff = mode.target_hubble, solved, rho0
    else:
        hubble0, lam_eff, rho_eff = mode.target_hubble, lam, rho0 + solved
    residual = 3.0 * hubble0**2 - lam_eff - rho_eff
    return {
        "variant": mode.variant,
        "rho0": rho_eff,
        "Lambda": lam_eff,
        "H0": hubble0,
        "solved_value": solved,
        "residual": residual,
    }
