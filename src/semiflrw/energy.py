"""Regularized initial energy density and the Friedmann constraint.

At the initial time the vacuum-normalized state differs from the zeroth
adiabatic (Parker) reference only by the derivative of the Parker
amplitude, so the regularized energy density is the radial integral

    rho0 = (2 pi^2 a0^4)^{-1} (m^4/8) a0^2 a'(tau0)^2
           int_0^inf k^2 (k^2 + m^2 a0^2)^{-5/2} dk
         = m^2 a'(tau0)^2 / (48 pi^2 a0^4).

With a'(tau0) = a0^2 H0 the anchor a0 cancels: rho0 = m^2 H0^2 / (48 pi^2).
It is the vacuum-at-tau0 value whatever state the run evolves.  The
constraint 3 H0^2 = rho0 + Lambda is then linear in H0^2,

    (3 - m^2/(48 pi^2)) H0^2 = Lambda,

so every variant has a closed form.  The coefficient vanishes at m = 12 pi,
where H0 is undefined (Lambda != 0) or arbitrary (Lambda = 0); above 12 pi
a real H0 needs Lambda <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_VARIANTS = ("given_H0", "solve_for_Lambda", "classical_radiation_offset")

# rho0 = m^2 H0^2 / FORTY_EIGHT_PI_SQ
FORTY_EIGHT_PI_SQ = 48.0 * math.pi**2

# a given_H0 root must meet the constraint to this, relative to max(1, |Lambda|)
RESIDUAL_TOL = 1e-12


class ConstraintError(ValueError):
    """given_H0 has no real initial Hubble rate, or (at and near m = 12 pi)
    none that the constraint determines."""


@dataclass(frozen=True)
class ConstraintMode:
    """Which unknown the initial Friedmann constraint is solved for.

    given_H0 computes H0 from Lambda; the other two variants hold
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


def constraint_report(mass: float, lam: float, mode: ConstraintMode | float) -> dict:
    """Solve 3 H0^2 = rho0 + Lambda; the report holds the H0 and Lambda a run uses.

    mode is a ConstraintMode, or the initial Hubble rate itself (variant
    "direct": nothing is solved, and the residual says how far H0 is off
    the constraint).  Raises ConstraintError when given_H0 has no real root,
    or when rounding keeps the root from meeting the constraint to
    RESIDUAL_TOL, which happens only at and near m = 12 pi.
    """
    variant = mode.variant if isinstance(mode, ConstraintMode) else "direct"
    if variant == "direct":
        hubble0 = mode
    elif variant == "given_H0":
        slope = 3.0 - mass**2 / FORTY_EIGHT_PI_SQ
        square = lam / slope if slope else math.inf
        if square < 0.0:
            raise ConstraintError(
                "constraint has no real H0: Lambda / (3 - m^2/(48 pi^2))"
                f" = {square:.6g} < 0"
            )
        # 3 H0^2 + rho0 = (6 - slope) H0^2 leaves a few ulps of rounding in
        # the residual; near m = 12 pi the terms outgrow Lambda so far that
        # no root can meet RESIDUAL_TOL
        rounding = 4.0 * math.ulp(1.0) * (6.0 - slope) * square
        if rounding > RESIDUAL_TOL * max(1.0, abs(lam)):
            raise ConstraintError(
                f"constraint does not fix H0 at m = {mass:.6g}: 3 - m^2/(48 pi^2)"
                f" = {slope:.3g} is too close to 0 to resolve H0 (at m = 12 pi"
                " H0 is undefined for Lambda != 0 and arbitrary for Lambda = 0)"
            )
        # abs: a square of -0.0 (from Lambda = -0.0) keeps the sign's branch
        hubble0 = mode.sign * math.sqrt(abs(square))
    else:
        hubble0 = mode.target_hubble
    rho0 = mass**2 * hubble0**2 / FORTY_EIGHT_PI_SQ
    solved, lam_eff, rho_eff = hubble0, lam, rho0
    if variant == "solve_for_Lambda":
        solved = lam_eff = 3.0 * hubble0**2 - rho0
    elif variant == "classical_radiation_offset":
        solved = 3.0 * hubble0**2 - lam - rho0
        rho_eff = rho0 + solved
    residual = 3.0 * hubble0**2 - lam_eff - rho_eff
    return {
        "variant": variant,
        "rho0": rho_eff,
        "Lambda": lam_eff,
        "H0": hubble0,
        "solved_value": solved,
        "residual": residual,
    }
