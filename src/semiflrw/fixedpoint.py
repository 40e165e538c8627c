"""Picard iteration for retarded Volterra equations X = F0 + int f(X).

The iterator runs X_{n+1} = F0 + int_a^t f(X_n) with trapezoid quadrature
until the discrete uniform norm of the update falls below tol.  That update
norm is exactly the equation residual ||X_n - F0 - int f(X_n)|| of the
iterate it was computed from, so the iterator returns X_n, with the
evaluation made at X_n: convergence is confirmed a posteriori, without an
evaluation of its own.  The trial driver owns the local existence step:
it solves on a trial span, accepts the converged trial by a Richardson
estimate of its trapezoid error, or else retries on the front half of the
span.  How long the first span is, is the caller's choice.
"""

from __future__ import annotations

import math
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
    """A converged trial's Richardson estimate exceeded its bound."""


class ZeroStep(RuntimeError):
    """The step underflowed to zero or below the float spacing of the nodes."""


class NoConvergence(RuntimeError):
    """Residual tolerance not reached within max_iter; carries the report."""

    def __init__(self, message: str, report: PicardReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PicardReport:
    """A Picard solve's update norms, tolerance and trial retries; the rest
    follows: the last norm is the returned iterate's equation residual."""

    residuals: tuple[float, ...]
    tol: float
    halvings: int = 0

    @property
    def iterates(self) -> int:
        return len(self.residuals)

    @property
    def converged(self) -> bool:
        return bool(self.residuals) and self.residuals[-1] < self.tol

    @property
    def equation_residual(self) -> float | None:
        return self.residuals[-1] if self.converged else None

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
    for _ in range(max_iter):
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
            return current, PicardReport(tuple(residuals), tol), byproduct
        current = new_values
    raise NoConvergence(
        f"no convergence after {max_iter} iterations",
        PicardReport(tuple(residuals), tol),
    )


def segment_nodes(start: float, span: float, count: int) -> np.ndarray:
    """count nodes on [start, start + span]; the nodes are checked here
    only, and everything downstream takes them as given."""
    nodes = np.linspace(start, start + span, count)
    if not np.all(np.diff(nodes) > 0.0):
        raise ZeroStep(
            f"step {span:.3g} at tau={float(start)!r} is below the float"
            " spacing of the segment nodes"
        )
    return nodes


def richardson_error(f: np.ndarray, nodes: np.ndarray) -> float:
    """Trapezoid error of int f over the nodes, estimated from the rule on
    every second node: the coarse rule's error is 4 times the fine one's."""
    fine = cumulative_trapezoid(f, nodes)[::2]
    coarse = cumulative_trapezoid(f[::2], nodes[::2])
    return float(np.max(np.abs(fine - coarse))) / 3.0


def picard_solve_with_halving(
    rhs: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, object]],
    start: float,
    nodes: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
    max_halvings: int = 6,
    x0: np.ndarray | None = None,
    max_error: float = math.inf,
    retry_on: tuple[type[Exception], ...] = (),
) -> tuple[np.ndarray, PicardReport, np.ndarray, float, object]:
    """Solve X = start + int f(X) on a trial span, retrying on the front half
    of the span when the trial is rejected.

    rhs(x, nodes) returns (f(x) at the nodes, byproduct), as picard_solve's
    rhs does on those nodes.  A trial is rejected when it does not converge,
    when rhs raises one of retry_on, and when the Richardson estimate of its
    trapezoid error, from f at the returned iterate, exceeds max_error.  A
    retry keeps the node count, an odd one of at least 3, so that every
    second node ends on the last.  Returns (x, report, nodes, estimate,
    byproduct) of the accepted trial.  After max_halvings retries the last
    rejection is raised (NoConvergence with the report of the last trial),
    and a half span below the float spacing of its nodes raises ZeroStep.
    The seed x0, when given, starts the first attempt only; after a retry
    the iteration starts from the constant start.
    """
    if nodes.size < 3 or nodes.size % 2 == 0:
        raise ValueError("the trial span needs an odd count of at least 3 nodes")
    halvings = 0
    while True:

        def evaluate(x):
            values, byproduct = rhs(x, nodes)
            return values, (values, byproduct)

        try:
            x, report, (f, byproduct) = picard_solve(
                np.full(nodes.size, start), evaluate, nodes, tol, max_iter, x0
            )
            estimate = richardson_error(f, nodes)
            if estimate > max_error:
                raise Rejected(
                    f"Richardson estimate {estimate:.3g} on a span of"
                    f" {nodes[-1] - nodes[0]:.3g} exceeds {max_error:.3g}"
                )
        except (NoConvergence, Rejected, *retry_on) as err:
            if halvings >= max_halvings:
                if isinstance(err, NoConvergence):
                    raise NoConvergence(
                        f"no convergence after {halvings} halvings", err.report
                    ) from err
                raise
            halvings += 1
            nodes = segment_nodes(nodes[0], 0.5 * (nodes[-1] - nodes[0]), nodes.size)
            x0 = None
            continue
        return x, replace(report, halvings=halvings), nodes, estimate, byproduct
