"""Picard iteration for retarded Volterra equations X = F0 + int f(X).

The step selector keeps the iteration inside an admissible tube of radius
delta around F0 (step <= safety * delta / K for a uniform bound K on f), the
iterator runs X_{n+1} = F0 + int_a^t f(X_n) with trapezoid quadrature until
the discrete uniform norm of the update falls below tol, and the halving
driver shrinks the segment (up to 6 times) when convergence fails on the
requested span.  Convergence is always confirmed a posteriori through the
equation residual, so the bound estimates only influence step size, never
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import cumulative_trapezoid


class ZeroStep(RuntimeError):
    """Step selection underflowed to zero."""


class NaNDetected(RuntimeError):
    """An iterate left the reals; carries the first offending node."""

    def __init__(self, message: str, node_index: int, tau: float):
        super().__init__(message)
        self.node_index = node_index
        self.tau = tau


class NoConvergence(RuntimeError):
    """Residual tolerance not reached within max_iter; carries the report."""

    def __init__(self, message: str, report: PicardReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PicardReport:
    iterates: int
    residuals: tuple[float, ...]
    converged: bool
    tol: float
    equation_residual: float | None = None
    halvings: int = 0

    @property
    def contraction_ratios(self) -> tuple[float, ...]:
        out = []
        for prev, cur in zip(self.residuals[:-1], self.residuals[1:]):
            out.append(cur / prev if prev > 0.0 else 0.0)
        return tuple(out)

    def as_dict(self) -> dict:
        return {
            "iterates": self.iterates,
            "residuals": list(self.residuals),
            "contraction_ratios": list(self.contraction_ratios),
            "converged": self.converged,
            "tol": self.tol,
            "equation_residual": self.equation_residual,
            "halvings": self.halvings,
        }


def select_step(
    bound: float,
    delta: float,
    span: float,
    safety: float = 0.5,
) -> float:
    """Largest admissible step min(safety * delta / bound, span)."""
    if not bound > 0.0:
        raise ValueError("bound must be > 0")
    if not delta > 0.0:
        raise ValueError("delta must be > 0")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    if not span > 0.0:
        raise ValueError("span must be > 0")
    step = min(safety * delta / bound, span)
    if step <= 0.0 or not np.isfinite(step):
        raise ZeroStep(f"step underflow: delta={delta}, bound={bound}")
    return step


def picard_solve(
    f0: np.ndarray,
    rhs: Callable[[np.ndarray], tuple[np.ndarray, object]],
    nodes: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, PicardReport, object]:
    """Iterate X_{n+1} = F0 + int_a^t f(X_n) until the update norm is < tol.

    f0, x0 and the iterates are float arrays over the nodes.  rhs(X)
    returns (f(X) at the nodes, byproduct), where f(X) at a node may depend
    only on X up to that node and the byproduct is anything the evaluation
    computed that the caller wants back at the fixed point.  The first
    iterate is F0 unless a seed x0 is supplied; the equation solved is the
    same either way.  Raises NaNDetected on the first non-finite node and
    NoConvergence (with the report attached) when max_iter is exhausted.
    On success the equation residual ||X - F0 - int f(X)|| is recorded and
    guaranteed < 2 tol, and the byproduct of the last evaluation, at the
    returned X, is returned with it; earlier byproducts are dropped as they
    come.
    """
    if np.shape(f0) != nodes.shape:
        raise ValueError("f0 must hold one value per node")
    if x0 is not None and np.shape(x0) != nodes.shape:
        raise ValueError("x0 must hold one value per node")
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    current = f0 if x0 is None else x0
    residuals: list[float] = []
    for iteration in range(1, max_iter + 1):
        values, _ = rhs(current)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != nodes.shape:
            raise ValueError("rhs must return one value per node")
        bad = ~np.isfinite(values)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NaNDetected(
                f"functional produced non-finite value at node {j}",
                j,
                float(nodes[j]),
            )
        new_values = f0 + cumulative_trapezoid(values, nodes)
        bad = ~np.isfinite(new_values)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NaNDetected(
                f"iterate became non-finite at node {j}", j, float(nodes[j])
            )
        residual = float(np.max(np.abs(new_values - current)))
        residuals.append(residual)
        current = new_values
        if residual < tol:
            final_values, byproduct = rhs(current)
            final_values = np.asarray(final_values, dtype=np.float64)
            eq_residual = float(
                np.max(
                    np.abs(current - f0 - cumulative_trapezoid(final_values, nodes))
                )
            )
            report = PicardReport(
                iterates=iteration,
                residuals=tuple(residuals),
                converged=True,
                tol=tol,
                equation_residual=eq_residual,
            )
            return current, report, byproduct
    report = PicardReport(
        iterates=max_iter, residuals=tuple(residuals), converged=False, tol=tol
    )
    raise NoConvergence(f"no convergence after {max_iter} iterations", report)


def _front_half(nodes: np.ndarray) -> np.ndarray:
    keep = (nodes.size + 1) // 2
    if keep < 3:
        raise ValueError("grid too short to halve")
    return nodes[:keep]


def picard_solve_with_halving(
    build: Callable[[np.ndarray], tuple[np.ndarray, Callable]],
    nodes: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
    max_halvings: int = 6,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, PicardReport, np.ndarray, object]:
    """Run picard_solve, halving the segment on NoConvergence.

    build(nodes) must produce the (F0, rhs) pair for any leading run of the
    nodes; the returned nodes are the span that actually converged, and
    the byproduct is picard_solve's, from the solution on that span.  The
    seed x0, when given, starts the first attempt only, on the full nodes;
    after a halving the iteration starts from F0.
    """
    halvings = 0
    while True:
        f0, rhs = build(nodes)
        try:
            solution, report, byproduct = picard_solve(
                f0, rhs, nodes, tol, max_iter, x0
            )
        except NoConvergence as err:
            if halvings >= max_halvings:
                raise NoConvergence(
                    f"no convergence after {halvings} halvings", err.report
                ) from err
            halvings += 1
            nodes = _front_half(nodes)
            x0 = None
            continue
        if halvings:
            report = replace(report, halvings=halvings)
        return solution, report, nodes, byproduct
