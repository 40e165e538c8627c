"""Picard iteration for retarded Volterra equations X = F0 + int f(X).

The iterator evaluates f at X_n and forms the update F0 + int_a^t f(X_n),
with the retarded rule core.cumulative_integral, until the discrete
uniform norm of X_n minus that update falls below tol.  That norm is
exactly the equation residual ||X_n - F0 - int f(X_n)|| of X_n, so the
iterator returns X_n, with the evaluation made at X_n: convergence is
confirmed a posteriori, without an evaluation of its own.  The next
iterate is the update itself (plain Picard) or whatever the caller's step
makes of it: a caller with a cheap approximate map can solve that map to
its fixed point between two costly evaluations, and the acceptance test
stays the full map's residual.
picard_solve_with_halving owns the local existence step: it solves on a
trial span, accepts the converged trial by a Richardson estimate of the
rule's error, or else retries on the front half of the span.  How long the
first span is, and where each trial's iteration starts, is the caller's
choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import RULE_ORDER, cumulative_integral


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
    step: Callable[[np.ndarray, object], np.ndarray] | None = None,
) -> tuple[np.ndarray, PicardReport, object]:
    """Iterate on X = F0 + int_a^t f(X) until the update norm is < tol.

    f0, x0 and the iterates are float arrays over the nodes.  rhs(X)
    returns (f(X) at the nodes, byproduct), where f(X) at a node may depend
    only on X up to that node and the byproduct is anything the evaluation
    computed that the caller wants back at the fixed point.  The first
    iterate is F0 unless a seed x0 is supplied, and the next one is the
    update F0 + int f(X_n), or step(update, byproduct) when a step is
    given; the equation solved is the same either way.  Raises NaNDetected
    on the first non-finite node and NoConvergence (with the report
    attached) when max_iter is exhausted.  On success the returned X is the
    last iterate the RHS was evaluated at: its equation residual
    ||X - F0 - int f(X)|| is the last update norm, recorded and < tol, and
    the byproduct of that evaluation comes with it; earlier byproducts are
    dropped as they come.
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
        new_values = f0 + cumulative_integral(values, nodes)
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
        current = new_values if step is None else step(new_values, byproduct)
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
    """Error of the rule's int f over the nodes, estimated from the rule on
    every second node: the coarse rule's error is 2^RULE_ORDER = 8 times
    the fine one's."""
    fine = cumulative_integral(f, nodes)[::2]
    coarse = cumulative_integral(f[::2], nodes[::2])
    return float(np.max(np.abs(fine - coarse))) / (2**RULE_ORDER - 1)


def picard_solve_with_halving(
    rhs: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, object]],
    start: float,
    nodes: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
    max_halvings: int = 6,
    seed: Callable[[np.ndarray, int], np.ndarray | None] | None = None,
    max_error: float = math.inf,
    retry_on: tuple[type[Exception], ...] = (),
    step: Callable[[np.ndarray, np.ndarray, object], np.ndarray] | None = None,
) -> tuple[np.ndarray, PicardReport, np.ndarray, float, object]:
    """Solve X = start + int f(X) on a trial span, retrying on the front half
    of the span when the trial is rejected.

    rhs(x, nodes) returns (f(x) at the nodes, byproduct), as picard_solve's
    rhs does on those nodes.  A trial is rejected when it does not converge,
    when rhs raises one of retry_on, and when the Richardson estimate of its
    quadrature error, from f at the returned iterate, exceeds max_error.  A
    retry keeps the node count, an odd one of at least 3, so that every
    second node ends on the last.  Returns (x, report, nodes, estimate,
    byproduct) of the accepted trial.  After max_halvings retries the last
    rejection is raised (NoConvergence with the report of the last trial),
    and a half span below the float spacing of its nodes raises ZeroStep.
    seed(nodes, halvings), when given, is a trial's first iterate, or None
    for the constant start; it runs inside the trial, so what retry_on
    names rejects the trial there too.  step(update, nodes, byproduct) is
    picard_solve's step on the trial's nodes.
    """
    if nodes.size < 3 or nodes.size % 2 == 0:
        raise ValueError("the trial span needs an odd count of at least 3 nodes")
    halvings = 0
    while True:

        def evaluate(x):
            values, byproduct = rhs(x, nodes)
            return values, (values, byproduct)

        def advance(update, evaluated):
            return step(update, nodes, evaluated[1])

        try:
            x0 = None if seed is None else seed(nodes, halvings)
            x, report, (f, byproduct) = picard_solve(
                np.full(nodes.size, start), evaluate, nodes, tol, max_iter, x0,
                None if step is None else advance,
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
            continue
        return x, replace(report, halvings=halvings), nodes, estimate, byproduct
