"""Picard iteration for retarded Volterra equations X = F0 + int f(X).

The iterator evaluates f at X_n and forms the update F0 + int_a^t f(X_n),
with the retarded rule of core.Rule, from f at two back points before a
when the caller has them (history: the rule and f there), until the discrete
uniform norm of X_n minus that update falls below tol.  That norm is
exactly the equation residual ||X_n - F0 - int f(X_n)|| of X_n, so the
iterator returns X_n, with the evaluation made at X_n: convergence is
confirmed a posteriori, without an evaluation of its own.  The next
iterate is the update itself (plain Picard) or whatever the caller's step
makes of it: a caller with a cheap approximate map can solve that map to
its fixed point between two costly evaluations, and the acceptance test
stays the full map's residual.
picard_solve_with_halving is the halving schedule of the local existence
step: it runs the caller's trial on a span and retries it on the front half
of the span when the trial is rejected; a trial is a function of its nodes.
What it solves, where its iteration starts and how it is judged (the bound
of check_accuracy on the rule's error) is the caller's, as is the first span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Rule, segment_rule


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
        pairs = zip(self.residuals[:-1], self.residuals[1:])
        return tuple(cur / prev if prev > 0.0 else 0.0 for prev, cur in pairs)

    def as_dict(self) -> dict:
        """The fields summary.json writes; the other properties follow."""
        return {
            "iterates": self.iterates,
            "residuals": list(self.residuals),
            "tol": self.tol,
            "halvings": self.halvings,
        }


# (core.segment_rule on the nodes, f at the two back points 2 spacing and
# spacing before the first node): what the rule starts from.  Without a rule
# it starts cold.
COLD = (None, (0.0, 0.0))


def picard_solve(
    f0: np.ndarray,
    rhs: Callable[[np.ndarray], tuple[np.ndarray, object]],
    nodes: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
    x0: np.ndarray | None = None,
    step: Callable[[np.ndarray, object], np.ndarray] | None = None,
    history=COLD,
) -> tuple[np.ndarray, PicardReport, object]:
    """Iterate on X = F0 + int_a^t f(X) until the update norm is < tol.

    f0, x0 and the iterates are float arrays over the nodes.  rhs(X)
    returns (f(X) at the nodes, byproduct), where f(X) at a node may depend
    only on X up to that node and the byproduct is anything the evaluation
    computed that the caller wants back at the fixed point.  The first
    iterate is F0 unless a seed x0 is supplied, and the next one is the
    update F0 + int f(X_n), or step(update, byproduct) when a step is
    given; the equation solved is the same either way.  history is
    (rule, f at the two back points of the rule's start), the rule built on
    the nodes by core.segment_rule; COLD has none and starts cold.  Raises
    NaNDetected
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
    rule, back = history
    rule = rule or Rule(nodes)
    # the back points' share of every update
    offset = f0 + rule.on_back @ back
    current = f0 if x0 is None else x0
    residuals: list[float] = []
    for _ in range(max_iter):
        values, byproduct = rhs(current)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != nodes.shape:
            raise ValueError("rhs must return one value per node")
        _check_finite(values, nodes, "functional produced non-finite value")
        new_values = offset + rule.on_values @ values
        _check_finite(new_values, nodes, "iterate became non-finite")
        # ||X_{n+1} - X_n|| is the equation residual of X_n
        residual = float(np.abs(new_values - current).max())
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


def _check_finite(values: np.ndarray, nodes: np.ndarray, what: str) -> None:
    """NaNDetected at the first non-finite value, located only on a failure."""
    if not np.isfinite(values).all():
        j = int(np.argmin(np.isfinite(values)))
        raise NaNDetected(f"{what} at node {j}", j, float(nodes[j]))


def richardson_error(f: np.ndarray, nodes: np.ndarray, history=COLD) -> float:
    """Error of the rule's int f over the nodes, estimated from its twin on
    every second node, both from the same back points (history, as in
    picard_solve): the coarse rule's error is 2^order times the fine one's,
    16 times with back points and 8 times on a cold start."""
    rule, back = history
    rule = rule or segment_rule(nodes)
    fine = rule(f, back)[::2]
    coarse = rule.coarse(f[::2], back)
    return float(np.abs(fine - coarse).max()) / (2**rule.order - 1)


def check_accuracy(
    f: np.ndarray, nodes: np.ndarray, history, max_error: float
) -> float:
    """The Richardson estimate of int f over the nodes (richardson_error);
    raises Rejected when it exceeds max_error."""
    estimate = richardson_error(f, nodes, history)
    if estimate > max_error:
        raise Rejected(
            f"Richardson estimate {estimate:.3g} on a span of"
            f" {nodes[-1] - nodes[0]:.3g} exceeds {max_error:.3g}"
        )
    return estimate


def picard_solve_with_halving(
    trial: Callable[[np.ndarray], object],
    nodes: np.ndarray,
    max_halvings: int = 6,
    retry_on: tuple[type[Exception], ...] = (),
    span: float | None = None,
) -> tuple[object, np.ndarray, int]:
    """Run trial(nodes) on a trial span, retrying on the front half
    of the span when the trial is rejected.

    A trial is rejected when it raises NoConvergence, Rejected or one of
    retry_on.  A retry keeps the node count, an odd one of at least 3, so
    that every second node ends on the last.  Returns (result, nodes,
    halvings) of the accepted trial.  After max_halvings retries the last
    rejection is raised (NoConvergence "after N halvings", with the report
    of the last trial), and a half span below the float spacing of its
    nodes raises ZeroStep.  span, when given, is a longer span that the
    trial was cut from, by a horizon: a retry is then the one a trial on
    that span would have come to, halved as often as it takes to fall below
    the cut trial and with those halvings counted, so the cut changes no
    trial after its own.
    """
    if nodes.size < 3 or nodes.size % 2 == 0:
        raise ValueError("the trial span needs an odd count of at least 3 nodes")
    halvings = 0
    # where the span that the retries halve ends
    stop = nodes[-1] if span is None else nodes[0] + span
    while True:
        try:
            return trial(nodes), nodes, halvings
        except (NoConvergence, Rejected, *retry_on) as err:
            cut = nodes[-1] - nodes[0]
            while True:
                if halvings >= max_halvings:
                    if isinstance(err, NoConvergence):
                        raise NoConvergence(
                            f"no convergence after {halvings} halvings", err.report
                        ) from err
                    raise
                halvings += 1
                half = 0.5 * (stop - nodes[0])
                stop = nodes[0] + half
                if half < cut:
                    break
            nodes = segment_nodes(nodes[0], half, nodes.size)
