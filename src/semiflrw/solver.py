"""Segment-by-segment driver for the semiclassical Friedmann equation.

The Hubble rate solves the retarded Volterra equation

    H(tau) = H0 + int_{tau0}^{tau} f(H),
    f(H) = a(H) (H^4 - 2 Hc^2 H^2 + 240 pi^2 m^2 W_ren - (15/2) m^4
           + 960 pi^2 Lambda) / (Hc^2 - H^2),

in units 8 pi G = c = hbar = 1, with a(H) = a_s / (1 - a_s int H) on each
segment, a_s the scale factor at its start, and W_ren from the tau0-anchored
mode bank, which holds the run's state, evolved against a(H).
Each segment iterates to the fixed point on a trial span, carries the state
forward, and the outer loop continues until the time horizon or the first
regularity breach.  The segment's integrals, int f and int H, take the rule
core.cumulative_integral from the last two history nodes before it (its
back points, SegmentState.back), fourth order; only a run's first segment
has none and starts cold.  A trial builds the rule once, as matrices
(core.segment_rule), and every integral it takes is one product.

The span comes from a local step controller (choose_step), after
Gustafsson and Soderlind, which steers the Picard iteration's convergence
rate rather than bounding f over a tube.  It is the least of: a contraction
limit, aiming at TARGET_CONTRACTION = 0.2 per iterate from the larger of the
last segment's largest observed ratio and |df/dH| dt at the carried node
(after a massive segment from the ratio its sweeps showed alone; see
below); an accuracy limit, scaling dt by (target / err)^(1/p) rounded up to
a power of 2^(1/4), with err the Richardson estimate of the error of the
segment rule (all nodes against every second node, on f at the returned
iterate, so no extra evaluation) and p the power of dt in that error at a
fixed node count: 5 for the fourth-order rule, 3 on the cold first segment,
whose trapezoid first interval sets it (core.RuleStart); the estimate, a
difference of two cumulative sums, carries their rounding, which the rungs
keep out of dt; a growth limit, a fraction of gap / |f| at the carried node,
gap = Hc - |H|; a denominator limit 1 / (2 a max|H|) over the converged
nodes; dt_target; and the remaining span.  A trial that does not converge,
whose iterate crosses the critical rate or blows the scale factor up, or
whose Richardson estimate is well above target is rejected and retried on
its front half, so only a converged segment's nodes can end a run.  A trial
that the remaining span cut short is retried as the uncut one would have
been, so the horizon steers no segment but the last.  Each segment is still
confirmed after the fact by its equation residual.

The iteration starts from a seed extrapolated from the segment before
(picard_seed): the start value plus the degree-4 polynomial through the
increments H - H_start at every second one of the last 9 history nodes.
Every trial starts there, a retry too: a trial is a function of its nodes.
It starts from the constant instead with fewer than 9 nodes per segment, on
a constant history and when the seed strays more than half the gap from the
start value.

A massive run pays for each iterate with a bank sweep and a Wick
quadrature, while W depends on H only weakly, through a(H).  Between two
sweeps it solves the equation at a frozen W (hubble_at_fixed_wick):
picard_solve on X -> f(X, a(X), W) to FROZEN_TOL times the tolerance,
behind the full map's critical-rate guard (_scale_factor); a frozen solve
that fails rejects its trial as the full map would, before another sweep.
The seed is that fixed point at the W history extrapolated as H is, and
each later iterate its fixed point at the W of the sweep before.  An
iterate is accepted only on the full-map residual of the sweep at it, whose
W, a and bank history the segment keeps.  Seed and split change the
iterates, not the fixed point.  The stiffness |df/dH| dt is thus paid in
frozen-W evaluations, and the frozen solve guards against it: it rejects a
trial that it cannot solve before any sweep.  The sweeps iterate only the
weak feedback of H on W, so after a massive segment the contraction limit
reads only the largest ratio they showed; a run's first span keeps the
estimate.  The seed's f goes through the trial's Richardson check before
the first sweep, so a trial too long for the rule is rejected unswept.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    MAX_SEGMENT_NODES,
    BlowUp,
    InitialData,
    PhysicalParams,
    back_spacing,
    check_integers,
    cosmological_time,
    ricci_scalar,
    rule_start,
    scale_factor_from_hubble,
    segment_rule,
)
from .fixedpoint import (
    NaNDetected,
    NoConvergence,
    PicardReport,
    Rejected,
    ZeroStep,
    check_accuracy,
    picard_solve,
    picard_solve_with_halving,
    segment_nodes,
)
from .modes import WRONSKIAN_TOLERANCE, ModeBank, evolve_bank, potential
from .wick import BogoliubovProfile, WickConfig, radial_grid, wick_square_renormalized

log = logging.getLogger(__name__)

REASON_TIME_HORIZON = "TimeHorizon"
REASON_CRITICAL_HUBBLE = "HitCriticalHubble"
REASON_SCALE_BLOWUP = "ScaleFactorBlowUp"
REASON_NO_CONVERGENCE = "ConvergenceFailure"

EXIT_CODES = {
    REASON_TIME_HORIZON: 0,
    REASON_CRITICAL_HUBBLE: 10,
    REASON_SCALE_BLOWUP: 11,
    REASON_NO_CONVERGENCE: 20,
}


class BankCheckFailed(RuntimeError):
    """The carried mode bank drifted past the Wronskian tolerance."""


class CriticalHubble(RuntimeError):
    """|H| reached the critical rate where the equation degenerates."""

    def __init__(self, message: str, node_index: int, tau: float):
        super().__init__(message)
        self.node_index = node_index
        self.tau = tau


# Picard iterates per trial span before it is rejected.
MAX_ITER = 40
# A frozen-W solve between two bank sweeps stops at this fraction of tol.
FROZEN_TOL = 0.1
# A run stops at the first node whose scale-factor denominator a0 / a falls
# to this margin.
EPSILON_SCALE = 1e-6
# Any iterate at |H| >= (1 - CRITICAL_GUARD) Hc raises CriticalHubble, where
# the equation degenerates; only a converged node past the wall guard
# (1 - epsilon_critical) Hc ends a run there.
CRITICAL_GUARD = 1e-12
# The least epsilon_critical, five decades above CRITICAL_GUARD so that
# converged nodes land between the wall guard and it.  Nearer the critical
# rate the span falls below the float spacing of tau: Lambda = 2 Hc^4 /
# (960 pi^2), m = 0, from H0 = 0 stops on a ZeroStep at a margin of 4.8e-8 Hc.
EPSILON_CRITICAL_MIN = 1e-7


@dataclass(frozen=True)
class SolverConfig:
    """Segmenting, iteration, and guard-band knobs.

    dt_target None means the per-segment heuristic
    0.1 / max(|H| a, a m, 1) evaluated at the carried boundary.
    """

    dt_target: float | None = None
    tol: float = 1e-10
    max_halvings: int = 6
    nodes_per_segment: int = 25
    epsilon_critical: float = 1e-6
    max_segments: int = 10000

    def __post_init__(self):
        check_integers(self, ("max_halvings", "nodes_per_segment", "max_segments"))
        if self.dt_target is not None and not self.dt_target > 0.0:
            raise ValueError("dt_target must be > 0 when given")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be >= 0")
        # richardson_error compares the segment rule on every node with the
        # rule on every second one, which ends on the last node only for odd
        # counts
        if (not 3 <= self.nodes_per_segment <= MAX_SEGMENT_NODES
                or self.nodes_per_segment % 2 == 0):
            raise ValueError(
                f"nodes_per_segment must be odd and lie in [3, {MAX_SEGMENT_NODES}]"
            )
        if not EPSILON_CRITICAL_MIN <= self.epsilon_critical < 0.1:
            raise ValueError(
                f"epsilon_critical must lie in [{EPSILON_CRITICAL_MIN:g}, 0.1)"
            )
        if self.max_segments < 1:
            raise ValueError("max_segments must be >= 1")


@dataclass(frozen=True, eq=False)
class SegmentState:
    """Carried solution state at the current segment boundary tau_start,
    with what its run fixes at tau0: initial data, physical parameters,
    Wick settings and the state's Bogoliubov coefficients (A, B) on the
    bank's momenta (None for the vacuum).

    The histories end at tau_start.  They cover the whole run [tau0,
    tau_start] in the initial state, a loaded checkpoint and a solution's
    final_state, and only the segment just solved (its start node
    included) in what solve_segment returns.  The mode bank (massive case
    only) sits at tau_start and holds the state's modes: it started from
    A chi + conj(B chi) of the vacuum's tau0 modes, so bogoliubov is only
    the state's identity, for check_resume and the checkpoint header.  Its
    tau0 anchor is read-only, and anchor_digest is derived from it.
    last_report is the Picard report of the segment that ended at tau_start
    and next_step the (span, limit) that segment proposed for the next one
    (see choose_step); both are None in the initial state.
    """

    initial: InitialData
    params: PhysicalParams
    wick_cfg: WickConfig
    bogoliubov: tuple[np.ndarray, np.ndarray] | None
    hist_taus: np.ndarray
    hist_hubble: np.ndarray
    hist_a: np.ndarray
    hist_wick: np.ndarray
    mode_bank_carry: ModeBank | None
    last_report: PicardReport | None = None
    next_step: tuple[float, str] | None = None

    @property
    def anchor_digest(self) -> str | None:
        """The carried bank's ModeBank.anchor_digest; None for m = 0."""
        bank = self.mode_bank_carry
        return None if bank is None else bank.anchor_digest()

    @cached_property
    def wronskian_tolerance(self) -> float:
        """The carried bank's drift limit: WRONSKIAN_TOLERANCE plus, for a
        Bogoliubov state, the rounding of its folded tau0 modes, whose
        chi' cancels as A - conj(B): 4 eps max(|A|^2 + |B|^2), what
        BogoliubovProfile.on admits."""
        if self.bogoliubov is None:
            return WRONSKIAN_TOLERANCE
        size = sum(np.abs(values) ** 2 for values in self.bogoliubov)
        return WRONSKIAN_TOLERANCE + 4.0 * np.finfo(float).eps * float(size.max())

    @property
    def tau_start(self) -> float:
        return float(self.hist_taus[-1])

    @property
    def hubble_start(self) -> float:
        return float(self.hist_hubble[-1])

    @property
    def a_start(self) -> float:
        return float(self.hist_a[-1])

    @property
    def series(self) -> tuple[np.ndarray, ...]:
        """The histories (tau, H, a, W), in checkpoint order."""
        return self.hist_taus, self.hist_hubble, self.hist_a, self.hist_wick

    def scale_denominator(self) -> float:
        """Global 1 - a0 int H = a0 / a, the blow-up margin."""
        return self.initial.a0 / self.a_start

    @cached_property
    def back(self) -> tuple[float | None, np.ndarray, np.ndarray]:
        """(spacing, H, f) at the two history nodes before tau_start, the
        back points the next segment's rule starts from (core.segment_rule).
        f is friedmann_rhs of the stored H, a and W: the f that the segment
        ending here integrated there.  With fewer than three history nodes,
        on a run's first segment, the rule starts cold: (None, 0, 0)."""
        spacing = back_spacing(self.hist_taus, self.hist_taus.size - 1)
        if spacing is None:
            return None, (0.0, 0.0), (0.0, 0.0)
        h, a, w = (values[-3:-1] for values in self.series[1:])
        return spacing, h, friedmann_rhs(h, a, w, self.params)


class RunLog:
    """A run's history as one log: a chunk of nodes per segment, joined once.

    The first chunk is the history of the state the run starts from, which
    comes with the reports and bounds before it.  Each append adds a solved
    segment's new nodes (tau, H, a, W), its Picard report and its end
    bound, and makes the segment the carry; ``segments`` counts the
    appends.  Nothing that grows with the run is copied before join().
    """

    def __init__(self, start: SegmentState, reports=(), bounds=()):
        self.chunks = [start.series]
        self.reports = list(reports)
        self.bounds = list(bounds) if bounds else [start.tau_start]
        self.nodes = start.hist_taus.size
        self.carry = start

    def append(self, segment: SegmentState) -> None:
        self.chunks.append(tuple(values[1:] for values in segment.series))
        self.reports.append(segment.last_report)
        self.bounds.append(segment.tau_start)
        self.nodes += segment.hist_taus.size - 1
        self.carry = segment

    @property
    def segments(self) -> int:
        return len(self.chunks) - 1

    def join(self) -> SegmentState:
        """The carry with the whole history: the run's one concatenation."""
        taus, hubble, a, wick = (np.concatenate(parts) for parts in zip(*self.chunks))
        return replace(
            self.carry, hist_taus=taus, hist_hubble=hubble, hist_a=a, hist_wick=wick
        )


@dataclass(frozen=True)
class TerminationReport:
    reason: str
    tau_stop: float
    diagnostics: dict

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.reason]


@dataclass(frozen=True, eq=False)
class MaximalSolution:
    """Concatenated solution on [tau0, tau_stop] plus per-segment records;
    the four series are final_state's histories, not copies."""

    taus: np.ndarray
    hubble: np.ndarray
    scale_factor: np.ndarray
    wick_square: np.ndarray
    reports: tuple[PicardReport, ...]
    segment_bounds: tuple[float, ...]
    final_state: SegmentState


def default_dt_target(hubble: float, a_val: float, mass: float) -> float:
    return 0.1 / max(abs(hubble) * a_val, a_val * mass, 1.0)


def initial_bank(
    initial: InitialData, params: PhysicalParams, wick_cfg: WickConfig
) -> ModeBank | None:
    """The tau0-anchored mode bank a run starts from, on wick_cfg's grid
    graded above the knee 10 a0 m; None for m = 0."""
    if not params.mass > 0.0:
        return None
    momenta, weights = radial_grid(
        wick_cfg.k_max, wick_cfg.n_k, 10.0 * initial.a0 * params.mass
    )
    return ModeBank.at_initial(
        momenta, weights, a0=initial.a0, mass=params.mass, tau0=initial.tau0
    )


def initial_segment_state(
    initial: InitialData,
    params: PhysicalParams,
    wick_cfg: WickConfig,
    profile: BogoliubovProfile | None = None,
) -> SegmentState:
    """The state a run starts from at tau0; profile None is the vacuum.
    A Bogoliubov state needs m > 0: W enters the equation only as m^2 W."""
    initial.validate_against(params)
    bank = initial_bank(initial, params, wick_cfg)
    if bank is None and profile is not None:
        raise ValueError("a Bogoliubov state needs mass > 0: W enters as m^2 W")
    coefficients = None
    if profile is not None:
        # the state's tau0 modes xi = A chi + conj(B chi), and xi' likewise
        coefficients = a_vals, b_vals = profile.on(bank.momenta)
        bank = bank.moved_to(
            *(a_vals * row + np.conj(b_vals * row) for row in (bank.chi, bank.dchi)),
            bank.tau,
        )
    w0 = 0.0 if bank is None else wick_square_renormalized(
        initial.a0, bank, bank.chi, params, wick_cfg
    )
    return SegmentState(
        initial=initial,
        params=params,
        wick_cfg=wick_cfg,
        bogoliubov=coefficients,
        hist_taus=np.array([initial.tau0]),
        hist_hubble=np.array([initial.hubble0]),
        hist_a=np.array([initial.a0]),
        hist_wick=np.array([w0]),
        mode_bank_carry=bank,
    )


def check_resume(carry: SegmentState, start: SegmentState) -> None:
    """Raise ValueError unless carry continues the run that start begins:
    the same initial data, physical parameters, Wick settings, state and
    tau0-anchored mode bank (none for m = 0)."""
    held = {**asdict(carry.params), **asdict(carry.wick_cfg)}
    given = {**asdict(start.params), **asdict(start.wick_cfg)}
    changed = [name for name in given if held[name] != given[name]]
    states = [
        None if state.bogoliubov is None else np.concatenate(state.bogoliubov).tobytes()
        for state in (carry, start)
    ]
    if carry.initial != start.initial:
        what = f"initial data {carry.initial} differ from the config's {start.initial}"
    elif changed:
        name = changed[0]
        what = f"{name} {held[name]!r} differs from the config's {given[name]!r}"
    elif states[0] != states[1]:
        ours, theirs = ("vacuum" if s is None else "Bogoliubov" for s in states)
        what = f"{ours} state differs from the config's {theirs} state"
    elif carry.anchor_digest != start.anchor_digest:
        what = "mode bank differs from the config's: the momentum grid changed"
    else:
        return
    raise ValueError(f"the checkpoint's {what}")


def friedmann_source(h, w, params: PhysicalParams):
    """Numerator H^4 - 2 Hc^2 H^2 + 240 pi^2 m^2 W + ... of f(H), per node."""
    return (
        h**4
        - 2.0 * params.hubble_critical**2 * h**2
        + 240.0 * math.pi**2 * params.mass**2 * w
        - 7.5 * params.mass**4
        + 960.0 * math.pi**2 * params.cosmological_constant
    )


def friedmann_rhs(h, a, w, params: PhysicalParams):
    """The right-hand side f = a source / (Hc^2 - H^2) of H' = f, per node."""
    return a * friedmann_source(h, w, params) / (params.hubble_critical**2 - h**2)


def _scale_factor(h, nodes, carry: SegmentState, rule, share):
    """a(H) at the segment nodes, from the carried a and share, the back
    points' part of int H by the rule (rule.on_back @ carry.back[1]).  Raises
    CriticalHubble at the first node where |H| reaches the critical rate."""
    critical = carry.params.hubble_critical
    magnitude = np.abs(h)
    if magnitude.max() >= critical * (1.0 - CRITICAL_GUARD):
        j = int(np.argmax(magnitude >= critical * (1.0 - CRITICAL_GUARD)))
        raise CriticalHubble(
            f"|H| = {magnitude[j]:.6g} reached the critical rate {critical:.6g}",
            j, float(nodes[j]),
        )
    return scale_factor_from_hubble(h, nodes, carry.a_start, rule, share=share)


def _rhs_detail(h, nodes, carry: SegmentState, rule, share):
    """f(H) at the segment nodes, a(H) by the trial's rule (core.segment_rule
    on the nodes from carry.back), and the byproducts (W, a, the bank's
    (chi, chi') history).  The bank sweeps against V and V' = 2 m^2 a^3 H."""
    params = carry.params
    if not math.isclose(nodes[0], carry.tau_start, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError("segment nodes must start at the carried boundary")
    a_vals = _scale_factor(h, nodes, carry, rule, share)
    if params.mass > 0.0:
        v = potential(a_vals, carry.initial.a0, params.mass)
        dv = 2.0 * params.mass**2 * a_vals**3 * h
        bank = carry.mode_bank_carry
        history = evolve_bank(bank, v, dv, nodes)
        w_vals = wick_square_renormalized(
            a_vals, bank, history[0], params, carry.wick_cfg
        )
    else:
        w_vals = np.zeros(nodes.size)
        history = None
    return friedmann_rhs(h, a_vals, w_vals, params), (w_vals, a_vals, history)


# Step control.  The Picard iteration should contract by about this much
# per iterate.
TARGET_CONTRACTION = 0.2
# The Richardson estimate of a segment's quadrature error has a target of
# this many Picard tolerances.  The controller aims at ACCURACY_AIM times
# the target, and a trial above REJECT_ACCURACY times it is rejected.
ACCURACY_PER_TOL = 30.0
ACCURACY_AIM = 0.5
REJECT_ACCURACY = 4.0
# A segment may move H by about this fraction of its gap to the critical
# rate, at the slope of its start node.
GROWTH_FRACTION = 0.25
# The span changes by at most this factor from one segment to the next,
# either way, and does not grow after a segment that needed a retry.
MAX_FACTOR = 4.0
# The accuracy factor is rounded up to a power of 2^(1/LADDER_RUNGS).
LADDER_RUNGS = 4


def _quotient(num: float, den: float) -> float:
    return num / den if den else math.inf


def _on_ladder(factor: float) -> float:
    """The least power of 2^(1/LADDER_RUNGS) not below a finite factor > 0,
    other factors as they are.  The Richardson estimate carries the rounding
    of a difference of two cumulative sums; on the ladder it moves the span
    only where the factor lies within that rounding of a rung."""
    if not 0.0 < factor < math.inf:
        return factor
    return 2.0 ** (math.ceil(LADDER_RUNGS * math.log2(factor)) / LADDER_RUNGS)


def choose_step(
    h: float,
    a: float,
    w: float,
    h_max: float,
    params: PhysicalParams,
    previous: tuple[float, float, float, bool, int] | None = None,
) -> tuple[float, str]:
    """The (span, limit) of a segment starting at H = h, a and W = w.

    h_max is the largest |H| of the converged nodes at hand.  previous is
    (span, largest contraction ratio, Richardson estimate over its target,
    retried, power) of the segment that ended here, None at the start of a
    run; power is the exponent of the span in the error of the rule that
    made the estimate (core.RuleStart.power).  In a massive run the ratio
    comes from bank sweeps between frozen-W solves, which took the stiffness
    |df/dH| dt, so the contraction limit then reads the ratio alone.
    The limit names which of contraction, accuracy, growth and denominator
    gave the span (see the module docstring); dt_target and the remaining
    span are applied by solve_segment.  Python floats throughout: a value
    out of the float range raises OverflowError.
    """
    gap2 = params.hubble_critical**2 - h**2
    f = friedmann_rhs(h, a, w, params)
    # |df/dH| at fixed a and W, from the source formula
    stiffness = abs(2.0 * h * (f / gap2 - 2.0 * a))
    limits = {}
    if previous is None:
        limits["contraction"] = _quotient(TARGET_CONTRACTION, stiffness)
    else:
        dt, ratio, error, retried, power = previous
        low, high = 1.0 / MAX_FACTOR, 1.0 if retried else MAX_FACTOR
        rho = ratio if params.mass > 0.0 else max(ratio, stiffness * dt)
        factors = {
            "contraction": _quotient(TARGET_CONTRACTION, rho),
            "accuracy": _on_ladder(
                _quotient(ACCURACY_AIM, error) ** (1.0 / power)
            ),
        }
        for name, factor in factors.items():
            limits[name] = dt * min(max(factor, low), high)
    limits["growth"] = _quotient(
        GROWTH_FRACTION * (params.hubble_critical - abs(h)), abs(f)
    )
    limits["denominator"] = _quotient(1.0, 2.0 * a * h_max)
    name = min(limits, key=limits.get)
    return limits[name], name


# the seed's polynomial runs through every second one of this many last nodes
SEED_NODES = 9


def extrapolate(
    carry: SegmentState, series: np.ndarray, nodes: np.ndarray
) -> np.ndarray | None:
    """A history series of the carry (H or W) extrapolated onto the
    segment's nodes, or None where the carry has no history to extrapolate.

    The value at the carried node plus the degree-4 Lagrange polynomial
    through the increments over it at every second one of the carry's last
    9 history nodes, with the value at the carried node itself on nodes[0].
    It reads those nodes alone, so a retry and a resumed run extrapolate as
    a first trial of the uninterrupted run does; a run's one start node
    gives the constant, bit for bit.  None when the nodes number fewer than 9.
    """
    if nodes.size < SEED_NODES:
        return None
    start = float(series[-1])
    rise = series[-SEED_NODES::2] - start
    t = carry.hist_taus[-SEED_NODES::2] - carry.tau_start
    x = nodes - carry.tau_start
    # basis[i, j] = prod over m != j of (x_i - t_m) / (t_j - t_m)
    off = ~np.eye(t.size, dtype=bool)
    factors = np.where(off, x[:, None, None] - t, 1.0) / np.where(
        off, t[:, None] - t, 1.0
    )
    out = start + np.sum(np.prod(factors, axis=2) * rise, axis=1)
    out[0] = start
    return out


def picard_seed(
    carry: SegmentState, nodes: np.ndarray, delta: float
) -> np.ndarray | None:
    """First Picard iterate on the segment's nodes, or None for the constant
    start H_start.

    The seed is the H history extrapolated onto the nodes (extrapolate).
    None where that gives none, on a constant history (a first segment, an
    exact root), and when it strays more than delta from H_start: an
    extrapolation near the wall may cross the critical rate.
    """
    h_start = carry.hubble_start
    if not np.any(carry.hist_hubble[-SEED_NODES::2] - h_start):
        return None
    seed = extrapolate(carry, carry.hist_hubble, nodes)
    if seed is None or np.max(np.abs(seed - h_start)) > delta:
        return None
    return seed


def hubble_at_fixed_wick(
    carry: SegmentState, nodes: np.ndarray, rule, w, x: np.ndarray | None,
    tol: float, share,
) -> tuple[np.ndarray, np.ndarray]:
    """The fixed point X of X = H_start + int f(X, a(X), W) on the segment's
    nodes at a fixed W series w, the equation with the mode bank frozen, and
    f at X.

    picard_solve with the trial's rule and share (_scale_factor) from x
    (None for the constant H_start) to FROZEN_TOL * tol, with no bank
    sweep; its failures (NoConvergence, NaNDetected) propagate, as do the
    CriticalHubble and BlowUp of a(X).
    """
    def frozen(h):
        a = _scale_factor(h, nodes, carry, rule, share)
        f = friedmann_rhs(h, a, w, carry.params)
        return f, f

    x, _, f = picard_solve(
        np.full(nodes.size, carry.hubble_start), frozen, nodes, FROZEN_TOL * tol,
        MAX_ITER, x, history=(rule, carry.back[2]),
    )
    return x, f


def solve_segment(
    carry: SegmentState, tau_horizon: float, solver_cfg: SolverConfig = SolverConfig()
) -> SegmentState:
    """Advance the carried state by one converged segment of its run.

    The trial span is the carry's next_step (choose_step at the carried node
    for the initial state), capped by dt_target and the remaining span.
    The returned state holds the segment's own nodes, its start included,
    cut at the first new node past the wall guard or the scale margin, and
    the span it proposes for the segment after it.

    A trial, defined here, is the seed, the frozen-W solve and seed screen
    of a massive run, picard_solve and the accuracy check of the result;
    picard_solve_with_halving retries it on the front half of its span.
    When the last retry is rejected, its rejection is raised: NoConvergence
    "after N halvings" (a massive run's may carry the residuals of a
    frozen-W solve), CriticalHubble, BlowUp, or Rejected (the Richardson
    estimate of the result, or of a massive trial's seed, above
    REJECT_ACCURACY times its target).  Raises BankCheckFailed when the
    carried bank's Wronskian drift exceeds carry.wronskian_tolerance, ZeroStep
    when the step underflows to zero or below the float spacing of the
    nodes, OverflowError when the step estimate leaves the float range, and
    NaNDetected with its location.
    """
    bank = carry.mode_bank_carry
    if bank is not None and bank.wronskian_error_max > carry.wronskian_tolerance:
        raise BankCheckFailed(
            f"carried Wronskian drift {bank.wronskian_error_max:.3g} exceeds "
            f"tolerance {carry.wronskian_tolerance:g}"
        )
    remaining = tau_horizon - carry.tau_start
    if remaining <= 0.0:
        raise ValueError("carry is already at or past the horizon")
    h_start, a_start = carry.hubble_start, carry.a_start
    params = carry.params
    critical = params.hubble_critical
    step = carry.next_step or choose_step(
        h_start, a_start, float(carry.hist_wick[-1]), abs(h_start), params
    )
    dt_cap = solver_cfg.dt_target
    if dt_cap is None:
        dt_cap = default_dt_target(h_start, a_start, params.mass)
    # on a tie the first limit is named; a NaN step stays first and fails below
    dt, limit = min(
        (step, (dt_cap, "dt_target"), (remaining, "remaining")),
        key=lambda pair: pair[0],
    )
    if not 0.0 < dt < math.inf:
        raise ZeroStep(f"step underflow: {limit} limit {dt!r}")
    # the span that the remaining span may have cut
    uncut = min(step[0], dt_cap)
    nodes = segment_nodes(carry.tau_start, dt, solver_cfg.nodes_per_segment)
    delta = 0.5 * (critical - abs(h_start))
    target = ACCURACY_PER_TOL * solver_cfg.tol
    max_error = REJECT_ACCURACY * target

    def trial(sub):
        # every integral of the trial is a product with the rule of its nodes
        rule = segment_rule(sub, carry.back[0])
        history = (rule, carry.back[2])
        # the back points' share of every a(H) of the trial
        share = rule.on_back @ carry.back[1]
        x = picard_seed(carry, sub, delta)

        def rhs(h):
            f, detail = _rhs_detail(h, sub, carry, rule, share)
            return f, (f, detail)

        def split(update, evaluated):
            # the fixed point at the W of the bank swept at the last iterate
            return hubble_at_fixed_wick(
                carry, sub, rule, evaluated[1][0], update, solver_cfg.tol, share
            )[0]

        if bank is not None:
            # the fixed point at the extrapolated W, or at the carried one
            w = extrapolate(carry, carry.hist_wick, sub)
            x, f = hubble_at_fixed_wick(
                carry, sub, rule, float(carry.hist_wick[-1]) if w is None else w,
                x, solver_cfg.tol, share,
            )
            # the seed's accuracy check, before the bank sweeps
            check_accuracy(f, sub, history, max_error)
        x, report, (f, detail) = picard_solve(
            np.full(sub.size, h_start), rhs, sub, solver_cfg.tol, MAX_ITER, x,
            None if bank is None else split, history,
        )
        return x, report, check_accuracy(f, sub, history, max_error), detail

    # the byproducts come from Picard's last RHS evaluation, at the solution
    (h_vals, report, error, (w_vals, a_vals, swept)), nodes, halvings = (
        picard_solve_with_halving(
            trial, nodes, solver_cfg.max_halvings, (CriticalHubble, BlowUp),
            uncut if dt < uncut < math.inf else None,
        )
    )
    report = replace(report, halvings=halvings)
    ratio = max(report.contraction_ratios, default=0.0)
    log.debug(
        "segment tau=%r dt=%.6g limit=%s iterates=%d ratio=%.3g"
        " richardson=%.3g retries=%d",
        carry.tau_start, nodes[-1] - nodes[0], limit, report.iterates, ratio,
        error, report.halvings,
    )
    # the run ends at a breach node, so the segment and its bank end there
    wall = (1.0 - solver_cfg.epsilon_critical) * critical
    breach = (np.abs(h_vals[1:]) >= wall) | (
        carry.initial.a0 / a_vals[1:] <= EPSILON_SCALE
    )
    last = int(np.argmax(breach)) + 1 if np.any(breach) else nodes.size - 1
    if swept is not None:
        bank = bank.moved_to(swept[0][last], swept[1][last], nodes[last])
    previous = (
        float(nodes[-1] - nodes[0]), ratio, error / target, report.halvings > 0,
        rule_start(nodes, carry.back[0]).power,
    )
    return replace(
        carry,
        hist_taus=nodes[: last + 1],
        hist_hubble=h_vals[: last + 1],
        hist_a=a_vals[: last + 1],
        hist_wick=w_vals[: last + 1],
        mode_bank_carry=bank,
        last_report=report,
        next_step=choose_step(
            float(h_vals[last]), float(a_vals[last]), float(w_vals[last]),
            float(np.max(np.abs(h_vals[: last + 1]))), params, previous,
        ),
    )


def _report_diagnostics(carry: SegmentState, n_segments: int, **extra) -> dict:
    critical = carry.params.hubble_critical
    return {
        "hubble_final": float(carry.hist_hubble[-1]),
        "scale_factor_final": float(carry.hist_a[-1]),
        "wick_square_final": float(carry.hist_wick[-1]),
        "margin_hubble": float(critical - abs(carry.hist_hubble[-1])),
        "margin_scale": float(carry.scale_denominator()),
        "segments": n_segments,
        **extra,
    }


def continue_maximal(
    initial: InitialData,
    tau_horizon: float,
    params: PhysicalParams,
    wick_cfg: WickConfig,
    solver_cfg: SolverConfig = SolverConfig(),
    resume_from: SegmentState | None = None,
    prior_reports: Sequence[PicardReport] = (),
    prior_bounds: Sequence[float] = (),
    profile: BogoliubovProfile | None = None,
    segment_callback=None,
) -> tuple[MaximalSolution, TerminationReport]:
    """Extend the solution segment by segment to the horizon or first breach.

    The inputs build the initial state, whose carry every segment reads
    (profile None is the vacuum).  All failure modes are reported through
    TerminationReport, never raised, and only a converged node ends a run
    at the wall guard or the scale margin; a resume_from that check_resume
    rejects against the initial state raises ValueError before any segment.
    segment_callback(log), when given, runs after every completed segment
    with the run's RunLog; it must not mutate the log.
    """
    # written so that a NaN horizon fails too
    if not initial.tau0 < tau_horizon < math.inf:
        raise ValueError("tau_horizon must exceed tau0 and be finite")
    start = initial_segment_state(initial, params, wick_cfg, profile)
    if resume_from is None:
        resume_from = start
    else:
        check_resume(resume_from, start)
    log = RunLog(resume_from, prior_reports, prior_bounds)
    wall = (1.0 - solver_cfg.epsilon_critical) * params.hubble_critical
    diagnostics_extra = {}
    horizon_slack = 1e-12 * max(1.0, abs(tau_horizon))

    while True:
        carry = log.carry
        if abs(carry.hubble_start) >= wall:
            reason = REASON_CRITICAL_HUBBLE
            break
        if carry.scale_denominator() <= EPSILON_SCALE:
            reason = REASON_SCALE_BLOWUP
            break
        if tau_horizon - carry.tau_start <= horizon_slack:
            reason = REASON_TIME_HORIZON
            break
        if log.segments >= solver_cfg.max_segments:
            reason = REASON_NO_CONVERGENCE
            diagnostics_extra = {"note": "segment budget exhausted before the horizon"}
            break
        try:
            segment = solve_segment(carry, tau_horizon, solver_cfg)
        except NoConvergence as err:
            reason = REASON_NO_CONVERGENCE
            diagnostics_extra = {"picard_residuals": list(err.report.residuals)}
            break
        except (BankCheckFailed, Rejected, ZeroStep, OverflowError) as err:
            reason = REASON_NO_CONVERGENCE
            diagnostics_extra = {"error": str(err)}
            break
        except (NaNDetected, CriticalHubble, BlowUp) as err:
            # a CriticalHubble or BlowUp here met an unconverged iterate: no
            # converged node reached the wall or the scale margin
            reason = REASON_NO_CONVERGENCE
            diagnostics_extra = {"error": str(err), "raised_at_tau": err.tau}
            break
        log.append(segment)
        if segment_callback is not None:
            segment_callback(log)

    final = log.join()
    diagnostics = _report_diagnostics(final, len(log.reports), **diagnostics_extra)
    if reason == REASON_SCALE_BLOWUP:
        diagnostics["extrapolated_breach_tau"] = _extrapolate_blowup(final)
    if reason == REASON_CRITICAL_HUBBLE:
        diagnostics["extrapolated_breach_tau"] = _extrapolate_wall(final, wall)
    report = TerminationReport(
        reason=reason, tau_stop=final.tau_start, diagnostics=diagnostics
    )
    solution = MaximalSolution(
        taus=final.hist_taus,
        hubble=final.hist_hubble,
        scale_factor=final.hist_a,
        wick_square=final.hist_wick,
        reports=tuple(log.reports),
        segment_bounds=tuple(log.bounds),
        final_state=final,
    )
    return solution, report


def _extrapolate_blowup(carry: SegmentState) -> float:
    denominator = carry.scale_denominator()
    h_final = carry.hist_hubble[-1]
    slope = carry.initial.a0 * h_final
    if slope <= 0.0:
        return carry.tau_start
    return carry.tau_start + denominator / slope


def _extrapolate_wall(carry: SegmentState, wall: float) -> float:
    taus = carry.hist_taus
    h_abs = np.abs(carry.hist_hubble)
    if h_abs[-1] < wall or taus.size < 2:
        return carry.tau_start
    below = np.nonzero(h_abs < wall)[0]
    if below.size == 0:
        return float(taus[0])
    j = int(below[-1])
    if j + 1 >= taus.size or h_abs[j + 1] == h_abs[j]:
        return float(taus[-1])
    frac = (wall - h_abs[j]) / (h_abs[j + 1] - h_abs[j])
    return float(taus[j] + frac * (taus[j + 1] - taus[j]))


def solution_diagnostics(solution: MaximalSolution) -> dict[str, np.ndarray]:
    """Time series for reporting: tau, t, a, H, H', R, W_ren, source, margins.

    H' is the equation's own right-hand side f at each node, the values the
    solve integrated, so R follows without differencing.
    """
    taus, hubble, a = solution.taus, solution.hubble, solution.scale_factor
    params, a0 = solution.final_state.params, solution.final_state.initial.a0
    dh = friedmann_rhs(hubble, a, solution.wick_square, params)
    return {
        "tau": taus,
        "t": cosmological_time(taus, a, solution.segment_bounds),
        "a": a,
        "H": hubble,
        "dH": dh,
        "R": ricci_scalar(hubble, dh, a),
        "W_ren": solution.wick_square,
        "source": friedmann_source(hubble, solution.wick_square, params),
        "margin_hubble": params.hubble_critical - np.abs(hubble),
        "margin_scale": a0 / a,
    }


CHECKPOINT_VERSION = 14


def _split(values: np.ndarray, name: str) -> dict:
    """A complex array as the JSON lists of its real and imaginary parts."""
    return {f"{name}_re": values.real.tolist(), f"{name}_im": values.imag.tolist()}


def _join(fields: dict, name: str, where: str) -> np.ndarray:
    """The complex array that _split wrote under name, bit for bit; a part
    that is no list of finite numbers raises a ValueError naming where."""
    out = np.array(_numbers(fields[f"{name}_re"], f"{where} {name}_re"), np.complex128)
    out.imag = _numbers(fields[f"{name}_im"], f"{where} {name}_im")
    return out


def save_checkpoint(
    path, log: RunLog, tau_horizon: float, written: int | None = None
) -> int:
    """Write a run's log to a checkpoint file; return the chunks it holds.

    The file is JSON lines.  The first line starts with the header, which
    holds what tau0 fixes: version, horizon, initial data, physical
    parameters, Wick settings, Bogoliubov coefficients and anchor digest.
    The mode bank's grid follows from these.  That line and every later
    one hold a record of what moved since the line before: the history
    from node index ``start`` on, the new Picard reports (their fields) and
    segment bounds, the span proposed for the next segment and the bank's
    modes at the last node.  ``written`` is what the previous
    call for this file returned.  None starts the file: the header and the
    whole state are written to a temporary file that then replaces
    ``path``.  Otherwise one record is appended, or nothing when the log
    has not grown, so a write costs O(segment), not O(history); the log
    must be the one last written, grown since.  Each line is one
    ``json.dumps`` call, which takes the C encoder (``json.dump`` takes the
    pure-Python one); floats survive the round trip exactly (repr-based).
    A file resumes bit for bit only into the code that wrote it, so any
    change to the spans, iterates or modes a run makes bumps
    CHECKPOINT_VERSION, and so does any change to what a line holds.
    """
    if written == len(log.chunks):
        return written
    first = written is None
    new = log.chunks[0 if first else written:]
    # an appended record holds one report and one bound per new chunk
    n_reports = 0 if first else len(log.reports) - len(new)
    n_bounds = 0 if first else len(log.bounds) - len(new)
    carry = log.carry
    bank = carry.mode_bank_carry
    record = {
        "start": log.nodes - sum(chunk[0].size for chunk in new),
        "history": {
            key: [value for chunk in new for value in chunk[i].tolist()]
            for i, key in enumerate(("taus", "hubble", "a", "wick"))
        },
        # a report's fields, as asdict gives them but without its deep copy
        "reports": [vars(r) for r in log.reports[n_reports:]],
        "segment_bounds": log.bounds[n_bounds:],
        "next_step": carry.next_step,
        "bank": None if bank is None else {
            **_split(bank.chi, "chi"), **_split(bank.dchi, "dchi")
        },
    }
    if first:
        header = {
            "version": CHECKPOINT_VERSION,
            "tau_horizon": tau_horizon,
            "initial": asdict(carry.initial),
            "params": asdict(carry.params),
            "wick": asdict(carry.wick_cfg),
            "bogoliubov": None if carry.bogoliubov is None else {
                **_split(carry.bogoliubov[0], "A"), **_split(carry.bogoliubov[1], "B")
            },
            "anchor_digest": carry.anchor_digest,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            handle.write(json.dumps({**header, **record}) + "\n")
        os.replace(tmp, path)
    else:
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    return len(log.chunks)


def _numbers(values, where: str):
    """values, a checkpoint's JSON list, unless one is no finite number (a
    bool, a string or null is none): then a ValueError naming where."""
    for value in values:
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where} holds {value!r:.40}, not a finite number")
    return values


def _report(fields, where: str) -> PicardReport:
    """A record's Picard report: a list of finite residuals, a finite tol
    > 0 and an integer halvings >= 0, or a ValueError naming where."""
    if not (
        type(fields) is dict and fields.keys() == {"residuals", "tol", "halvings"}
        and type(fields["residuals"]) is list
        and _numbers([fields["tol"], *fields["residuals"]], f"{where} report")[0] > 0
        and type(fields["halvings"]) is int and fields["halvings"] >= 0
    ):
        raise ValueError(
            f"{where} a Picard report is a list of residuals, a tol > 0 and"
            f" an integer halvings >= 0, got {fields!r:.60}"
        )
    return PicardReport(tuple(fields["residuals"]), fields["tol"], fields["halvings"])


def load_checkpoint(path):
    """Rebuild (carry, reports, segment_bounds, tau_horizon) from a file.

    The records are applied in order, each starting at the end of the
    history read so far; together they must hold at least one node, with a
    value in each of the four series, segment bounds that are strictly
    increasing history nodes from the first to the last, and one Picard
    report (as _report reads it) per segment between them.  The last
    record's next_step is null or a [span, limit] pair: a finite span > 0
    and a string.  A value, bound, report or next_step that breaks this
    raises a ValueError naming its line.  The mode bank is rebuilt at tau0
    from the header's settings (initial_bank) and moved to the last
    record's modes; its anchor digest must be the header's.  A last line
    that lacks its newline and does not parse is a torn append and is
    ignored, so the record before it is the checkpoint.
    """
    with open(path) as handle:
        lines = handle.readlines()
    records = []
    for number, line in enumerate(lines, 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as err:
            if records and number == len(lines) and not line.endswith("\n"):
                break
            raise ValueError(
                f"{path}:{number}: corrupt checkpoint line: {err}"
            ) from err
    if not records:
        raise ValueError(f"{path}: empty checkpoint")
    header = records[0]
    version = header.get("version") if isinstance(header, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r}: this reader takes"
            f" version {CHECKPOINT_VERSION} only; rerun the solve to write a"
            " new checkpoint"
        )
    history = {"taus": [], "hubble": [], "a": [], "wick": []}
    reports = []
    bounds = []  # (line number, bound)
    for number, record in enumerate(records, 1):
        start = record.get("start") if isinstance(record, dict) else None
        if type(start) is not int or start < 0:
            raise ValueError(
                f"{path}:{number}: a record must be an object with a"
                f" non-negative integer start, got {record!r:.60}"
            )
        if start != len(history["taus"]):
            raise ValueError(
                f"{path}:{number}: record starts at node {start}, not at the"
                f" end of the history read so far, node {len(history['taus'])}"
            )
        for key, values in history.items():
            values.extend(_numbers(record["history"][key], f"{path}:{number}: {key}"))
        reports.extend(_report(r, f"{path}:{number}:") for r in record["reports"])
        bounds.extend(
            (number, bound)
            for bound in _numbers(record["segment_bounds"], f"{path}:{number}: bounds")
        )
    lengths = {key: len(values) for key, values in history.items()}
    if not lengths["taus"] or len(set(lengths.values())) > 1:
        raise ValueError(
            f"{path}: the history must hold at least one node and one value"
            f" per node in each series, got lengths {lengths}"
        )
    # each bound is a history node after the one before it, the first at
    # node 0 and the last at the last node, as cosmological_time needs them
    nodes = {tau: index for index, tau in enumerate(history["taus"])}
    end = -1  # the node of the bound before
    for number, bound in bounds:
        node = nodes.get(bound, -1)
        if node <= end or (end < 0 and node != 0):
            want = f"a history node after node {end}" if end >= 0 else "history node 0"
            raise ValueError(f"{path}:{number}: segment bound {bound!r} is not {want}")
        end = node
    last = f"{path}:{len(records)}:"
    if end != lengths["taus"] - 1:
        raise ValueError(
            f"{last} the segment bounds end at node {end}, not at the last"
            f" history node {lengths['taus'] - 1}"
        )
    if len(reports) != len(bounds) - 1:
        raise ValueError(
            f"{last} {len(bounds) - 1} segments need as many Picard reports,"
            f" not {len(reports)}"
        )
    initial = InitialData(**header["initial"])
    params = PhysicalParams(**header["params"])
    wick_cfg = WickConfig(**header["wick"])
    bank, modes = initial_bank(initial, params, wick_cfg), records[-1]["bank"]
    if bank is not None:
        bank = bank.moved_to(
            _join(modes, "chi", f"{last} bank"), _join(modes, "dchi", f"{last} bank"),
            history["taus"][-1],
        )
    coefficients, where = header["bogoliubov"], f"{path}:1: bogoliubov"
    # the last report and the proposed span go with the carry, as in the run
    # that wrote the file: the next segment starts from the proposed span
    next_step = records[-1]["next_step"]
    if next_step is not None and not (
        type(next_step) is list and len(next_step) == 2
        and _numbers(next_step[:1], f"{last} next_step")[0] > 0.0
        and type(next_step[1]) is str
    ):
        raise ValueError(
            f"{last} next_step must be null or a [span, limit] pair, a span"
            f" > 0 and a string, got {next_step!r:.60}"
        )
    carry = SegmentState(
        initial=initial,
        params=params,
        wick_cfg=wick_cfg,
        bogoliubov=None if coefficients is None else (
            _join(coefficients, "A", where), _join(coefficients, "B", where)
        ),
        hist_taus=np.array(history["taus"]),
        hist_hubble=np.array(history["hubble"]),
        hist_a=np.array(history["a"]),
        hist_wick=np.array(history["wick"]),
        mode_bank_carry=bank,
        last_report=reports[-1] if reports else None,
        next_step=None if next_step is None else tuple(next_step),
    )
    if carry.anchor_digest != header["anchor_digest"]:
        raise ValueError(
            f"{path}: the mode bank rebuilt from the header does not match"
            " its anchor digest"
        )
    return carry, tuple(reports), tuple(b for _, b in bounds), header["tau_horizon"]
