"""Picard iteration for retarded Volterra equations X = F0 + int f(X).

The iterator runs X_{n+1} = F0 + int_a^t f(X_n) with trapezoid quadrature
until the discrete uniform norm of the update falls below tol.  That update
norm is exactly the equation residual ||X_n - F0 - int f(X_n)|| of the
iterate it was computed from, so the iterator returns X_n, with the
evaluation made at X_n: convergence is confirmed a posteriori, without an
evaluation of its own.  The retry driver runs the iterator on a trial span
and retries on a span half as long (up to max_halvings times; by default
the span's front half) when the trial is rejected: the iteration does not
converge, the caller's right-hand side raises one of the caller's retry
errors, or the caller's check of the converged trial raises Rejected.  How
long the trial span is, is the caller's choice; only a converged, accepted
trial is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import cumulative_trapezoid


class NaNDetected(RuntimeError):
    """An iterate left the reals; carries the first offending node."""

    def __init__(self, message: str, node_index: int, tau: float):
        super().__init__(message)
        self.node_index = node_index
        self.tau = tau


class Rejected(RuntimeError):
    """A converged trial failed the caller's acceptance check."""


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
    On success the returned X is the last iterate the RHS was evaluated at:
    its equation residual ||X - F0 - int f(X)|| is the last update norm,
    recorded and < tol, and the byproduct of that evaluation comes with it;
    earlier byproducts are dropped as they come.
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
        values, byproduct = rhs(current)
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
        # ||X_{n+1} - X_n|| is the equation residual of X_n
        residual = float(np.max(np.abs(new_values - current)))
        residuals.append(residual)
        if residual < tol:
            report = PicardReport(
                iterates=iteration,
                residuals=tuple(residuals),
                converged=True,
                tol=tol,
                equation_residual=residual,
            )
            return current, report, byproduct
        current = new_values
    report = PicardReport(
        iterates=max_iter, residuals=tuple(residuals), converged=False, tol=tol
    )
    raise NoConvergence(f"no convergence after {max_iter} iterations", report)


def _front_half(nodes: np.ndarray) -> np.ndarray | None:
    """The leading half of the nodes, None when it would keep fewer than 3."""
    return nodes[: (nodes.size + 1) // 2] if nodes.size >= 5 else None


def picard_solve_with_halving(
    build: Callable[[np.ndarray], tuple[np.ndarray, Callable]],
    nodes: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
    max_halvings: int = 6,
    x0: np.ndarray | None = None,
    retry_on: tuple[type[Exception], ...] = (),
    check: Callable[[np.ndarray, np.ndarray, object], None] | None = None,
    halve: Callable[[np.ndarray], np.ndarray | None] = _front_half,
) -> tuple[np.ndarray, PicardReport, np.ndarray, object]:
    """Run picard_solve on a trial span, retrying on a span half as long
    when the trial is rejected.

    A trial is rejected when it does not converge, when building it or
    evaluating its rhs raises one of retry_on, and when check(solution,
    nodes, byproduct), run on the converged trial, raises Rejected.
    halve(nodes) gives the nodes of the retry, None when there are too few
    to halve; by default the leading half of the nodes.  build(nodes) must
    produce the (F0, rhs) pair for any nodes halve can give.  The returned
    nodes are the span that was accepted, and the byproduct is
    picard_solve's, from the solution on that span.  After max_halvings
    retries, or when halve gives None, the last rejection is raised
    (NoConvergence with the report of the last trial).  The seed x0, when
    given, starts the first attempt only, on the full nodes; after a retry
    the iteration starts from F0.
    """
    halvings = 0
    while True:
        try:
            f0, rhs = build(nodes)
            solution, report, byproduct = picard_solve(
                f0, rhs, nodes, tol, max_iter, x0
            )
            if check is not None:
                check(solution, nodes, byproduct)
        except (NoConvergence, Rejected, *retry_on) as err:
            shorter = halve(nodes) if halvings < max_halvings else None
            if shorter is not None:
                halvings += 1
                nodes = shorter
                x0 = None
                continue
            if isinstance(err, NoConvergence):
                raise NoConvergence(
                    f"no convergence after {halvings} halvings", err.report
                ) from err
            raise
        if halvings:
            report = replace(report, halvings=halvings)
        return solution, report, nodes, byproduct
