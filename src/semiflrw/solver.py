"""Segment-by-segment driver for the semiclassical Friedmann equation.

The Hubble rate solves the retarded Volterra equation

    H(tau) = H0 + int_{tau0}^{tau} f(H),
    f(H) = a(H) (H^4 - 2 Hc^2 H^2 + 240 pi^2 m^2 W_ren - (15/2) m^4
           + 960 pi^2 Lambda) / (Hc^2 - H^2),

in units 8 pi G = c = hbar = 1, with a(H) = a_carry / (1 - a_carry int H) on
each segment and W_ren from the tau0-anchored mode bank evolved against a(H).
Each segment picks a span small enough that the Picard map stays inside a
tube around the constant start value (radius half the distance to the
critical rate, further limited so the scale-factor denominator keeps at
least half its value), iterates to the fixed point, carries the state
forward, and the outer loop continues until the time horizon or the first
regularity breach.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    BlowUp,
    Grid,
    InitialData,
    PhysicalParams,
    SampledFunction,
    cosmological_time,
    ricci_scalar,
    scale_factor_from_hubble,
)
from .fixedpoint import (
    NaNDetected,
    NoConvergence,
    PicardReport,
    RetardedFunctional,
    ZeroStep,
    picard_solve_with_halving,
    select_step,
)
from .modes import SUBSTEP_CAP, ModeBank, Potential, evolve_bank
from .wick import (
    BogoliubovProfile,
    WickConfig,
    radial_grid,
    wick_square_bogoliubov_delta,
    wick_square_renormalized,
)

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
    """The carried mode bank lost its tau0 anchor or drifted past the
    Wronskian tolerance."""


class CriticalHubble(RuntimeError):
    """|H| reached the critical rate where the equation degenerates."""

    def __init__(self, message: str, node_index: int, tau: float):
        super().__init__(message)
        self.node_index = node_index
        self.tau = tau


@dataclass(frozen=True)
class SolverConfig:
    """Segmenting, iteration, and guard-band knobs.

    dt_target None means the per-segment heuristic
    0.1 / max(|H| a, a m, 1) evaluated at the carried boundary.
    """

    dt_target: float | None = None
    tol: float = 1e-10
    max_iter: int = 40
    max_halvings: int = 6
    nodes_per_segment: int = 49
    epsilon_critical: float = 1e-6
    epsilon_scale: float = 1e-6
    safety: float = 0.5
    substep_cap: float = SUBSTEP_CAP
    wronskian_budget: float = 1e-8
    wronskian_tolerance: float = 1e-5
    max_segments: int = 10000

    def __post_init__(self):
        if self.dt_target is not None and not self.dt_target > 0.0:
            raise ValueError("dt_target must be > 0 when given")
        if not self.tol > 0.0:
            raise ValueError("tol must be > 0")
        if self.nodes_per_segment < 3:
            raise ValueError("nodes_per_segment must be >= 3")
        if not 0.0 < self.epsilon_critical < 0.1:
            raise ValueError("epsilon_critical must lie in (0, 0.1)")
        if not 0.0 < self.epsilon_scale < 0.1:
            raise ValueError("epsilon_scale must lie in (0, 0.1)")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must lie in (0, 1]")
        if self.max_segments < 1:
            raise ValueError("max_segments must be >= 1")


@dataclass(frozen=True, eq=False)
class SegmentState:
    """Carried solution state at the current segment boundary tau_start.

    The histories end at tau_start.  They cover the whole run [tau0,
    tau_start] in the initial state, a loaded checkpoint and a solution's
    final_state, and only the segment just solved (its start node
    included) in what solve_segment returns.  The mode bank (massive case
    only) sits at tau_start and is anchored at tau0 for its whole life,
    witnessed by anchor_digest.
    """

    initial: InitialData
    hist_taus: np.ndarray
    hist_hubble: np.ndarray
    hist_a: np.ndarray
    hist_wick: np.ndarray
    a_carry: float
    mode_bank_carry: ModeBank | None
    anchor_digest: str | None
    last_report: PicardReport | None = None

    @property
    def tau_start(self) -> float:
        return float(self.hist_taus[-1])

    @property
    def hubble_start(self) -> float:
        return float(self.hist_hubble[-1])

    @property
    def series(self) -> tuple[np.ndarray, ...]:
        """The histories (tau, H, a, W), in checkpoint order."""
        return self.hist_taus, self.hist_hubble, self.hist_a, self.hist_wick

    def scale_denominator(self) -> float:
        """Global 1 - a0 int H = a0 / a, the blow-up margin."""
        return self.initial.a0 / self.a_carry


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
    """Concatenated solution on [tau0, tau_stop] plus per-segment records."""

    taus: np.ndarray
    hubble: np.ndarray
    scale_factor: np.ndarray
    wick_square: np.ndarray
    reports: tuple[PicardReport, ...]
    segment_bounds: tuple[float, ...]
    final_state: SegmentState

    def hubble_function(self) -> SampledFunction:
        return SampledFunction(Grid(self.taus), self.hubble)

    def scale_function(self) -> SampledFunction:
        return SampledFunction(Grid(self.taus), self.scale_factor)


def effective_wick_config(
    config: WickConfig, initial: InitialData, params: PhysicalParams
) -> WickConfig:
    """Fill the grading knee at 10 a0 m when the config leaves it unset."""
    if config.k_knee == 0.0 and params.mass > 0.0:
        return replace(config, k_knee=10.0 * initial.a0 * params.mass)
    return config


def default_dt_target(hubble: float, a_val: float, mass: float) -> float:
    return 0.1 / max(abs(hubble) * a_val, a_val * mass, 1.0)


def initial_segment_state(
    initial: InitialData,
    params: PhysicalParams,
    wick_cfg: WickConfig,
    profile: BogoliubovProfile | None = None,
) -> SegmentState:
    initial.validate_against(params)
    if params.mass > 0.0:
        momenta, weights = radial_grid(effective_wick_config(wick_cfg, initial, params))
        bank = ModeBank.at_initial(
            momenta, weights, a0=initial.a0, mass=params.mass, tau0=initial.tau0
        )
        digest = bank.anchor_digest()
        w0 = _wick_square(initial.a0, bank, bank.chi, params, wick_cfg, profile)
    else:
        bank = None
        digest = None
        w0 = 0.0
    return SegmentState(
        initial=initial,
        hist_taus=np.array([initial.tau0]),
        hist_hubble=np.array([initial.hubble0]),
        hist_a=np.array([initial.a0]),
        hist_wick=np.array([w0]),
        a_carry=initial.a0,
        mode_bank_carry=bank,
        anchor_digest=digest,
    )


def _profile_config(wick_cfg: WickConfig) -> WickConfig:
    # profile corrections decay faster than any power; fitting one misfires
    return replace(wick_cfg, tail_model="none")


def _wick_square(
    a,
    bank: ModeBank,
    chi,
    params: PhysicalParams,
    wick_cfg: WickConfig,
    profile: BogoliubovProfile | None = None,
):
    """W_ren plus the profile's state correction, per row of bank modes."""
    value = wick_square_renormalized(a, bank, chi, params, wick_cfg)
    if profile is not None:
        value = value + wick_square_bogoliubov_delta(
            a, bank, chi, profile, _profile_config(wick_cfg)
        )
    return value


def friedmann_source(h, w, params: PhysicalParams):
    """Numerator H^4 - 2 Hc^2 H^2 + 240 pi^2 m^2 W + ... of f(H), per node."""
    return (
        h**4
        - 2.0 * params.hubble_critical**2 * h**2
        + 240.0 * math.pi**2 * params.mass**2 * w
        - 7.5 * params.mass**4
        + 960.0 * math.pi**2 * params.cosmological_constant
    )


def _rhs_detail(
    hubble: SampledFunction,
    carry: SegmentState,
    params: PhysicalParams,
    wick_cfg: WickConfig,
    substep_cap: float = SUBSTEP_CAP,
    wronskian_budget: float = 1e-8,
    profile: BogoliubovProfile | None = None,
):
    """f(H) on the segment and the byproducts (W, a, the bank's history)."""
    grid = hubble.grid
    if not math.isclose(grid.tau_start, carry.tau_start, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError("segment grid must start at the carried boundary")
    h_vals = hubble.values.real
    critical = params.hubble_critical
    hard_wall = critical * (1.0 - 1e-12)
    over = np.abs(h_vals) >= hard_wall
    if np.any(over):
        j = int(np.argmax(over))
        raise CriticalHubble(
            f"|H| = {abs(h_vals[j]):.6g} reached the critical rate {critical:.6g}",
            j,
            float(grid.nodes[j]),
        )
    a_fun = scale_factor_from_hubble(hubble, carry.a_carry)
    a_vals = a_fun.values.real
    if params.mass > 0.0:
        potential = Potential.from_scale_factor(a_fun, params.mass, a0=carry.initial.a0)
        history = evolve_bank(
            carry.mode_bank_carry, potential, grid.nodes, substep_cap, wronskian_budget
        )
        w_vals = _wick_square(
            a_vals, carry.mode_bank_carry, history.chi, params, wick_cfg, profile
        )
    else:
        w_vals = np.zeros(grid.size)
        history = None
    source = friedmann_source(h_vals, w_vals, params)
    f_vals = a_vals * source / (critical**2 - h_vals**2)
    return f_vals, (w_vals, a_vals, history)


def friedmann_rhs(
    hubble: SampledFunction,
    carry: SegmentState,
    params: PhysicalParams,
    wick_cfg: WickConfig,
    substep_cap: float = SUBSTEP_CAP,
    wronskian_budget: float = 1e-8,
    profile: BogoliubovProfile | None = None,
) -> SampledFunction:
    """Retarded right-hand side f(H) sampled on the segment grid."""
    f_vals, _ = _rhs_detail(
        hubble, carry, params, wick_cfg, substep_cap, wronskian_budget, profile
    )
    return SampledFunction(hubble.grid, f_vals)


def _rhs_bound(carry: SegmentState, params: PhysicalParams, h_max: float) -> float:
    """Uniform bound on |f| over the tube |H| <= h_max with a <= 2 a_carry."""
    critical = params.hubble_critical
    # W at the carried bank, stored by the RHS evaluation that ended there
    w_carry = float(carry.hist_wick[-1])
    w_bound = 2.0 * abs(w_carry) + params.mass**2 / (16.0 * math.pi**2)
    numerator = (
        h_max**4
        + 2.0 * critical**2 * h_max**2
        + 240.0 * math.pi**2 * params.mass**2 * w_bound
        + 7.5 * params.mass**4
        + 960.0 * math.pi**2 * abs(params.cosmological_constant)
    )
    return 2.0 * carry.a_carry * numerator / (critical**2 - h_max**2)


def solve_segment(
    carry: SegmentState,
    tau_horizon: float,
    params: PhysicalParams,
    wick_cfg: WickConfig,
    solver_cfg: SolverConfig = SolverConfig(),
    profile: BogoliubovProfile | None = None,
) -> SegmentState:
    """Advance the carried state by one converged segment.

    The returned state holds the segment's own nodes, its start included,
    cut at the first new node past the wall guard or the scale margin.

    Raises NoConvergence after the halving retries are exhausted,
    BankCheckFailed when the carried bank is unfit to continue, ZeroStep
    when the step underflows, OverflowError when the tube bound leaves the
    float range, and propagates NaNDetected / CriticalHubble / BlowUp with
    their locations.
    """
    bank = carry.mode_bank_carry
    if bank is not None:
        if bank.anchor_digest() != carry.anchor_digest:
            raise BankCheckFailed("mode bank identity changed since tau0")
        if bank.wronskian_error_max > solver_cfg.wronskian_tolerance:
            raise BankCheckFailed(
                f"carried Wronskian drift {bank.wronskian_error_max:.3g} exceeds "
                f"tolerance {solver_cfg.wronskian_tolerance:g}"
            )
    remaining = tau_horizon - carry.tau_start
    if remaining <= 0.0:
        raise ValueError("carry is already at or past the horizon")
    h_start = carry.hubble_start
    critical = params.hubble_critical
    gap = critical - abs(h_start)
    delta = 0.5 * gap
    h_max = abs(h_start) + delta
    bound = _rhs_bound(carry, params, h_max)
    tube_step = select_step(bound, delta, remaining, solver_cfg.safety)
    # keep a_carry * int H below 1/2 so a(H) at most doubles on the segment
    denominator_step = 1.0 / (2.0 * carry.a_carry * h_max)
    dt_cap = solver_cfg.dt_target
    if dt_cap is None:
        dt_cap = default_dt_target(h_start, carry.a_carry, params.mass)
    dt = min(tube_step, denominator_step, dt_cap, remaining)
    grid = Grid.uniform(carry.tau_start, carry.tau_start + dt, solver_cfg.nodes_per_segment)

    def build(subgrid: Grid):
        f0 = SampledFunction.constant(subgrid, h_start)
        functional = RetardedFunctional(
            eval=lambda x: _rhs_detail(
                x, carry, params, wick_cfg,
                solver_cfg.substep_cap, solver_cfg.wronskian_budget, profile,
            ),
        )
        return f0, functional

    # the byproducts come from Picard's last RHS evaluation, at the solution
    solution, report, used_grid, (w_vals, a_vals, history) = (
        picard_solve_with_halving(
            build, grid, solver_cfg.tol, solver_cfg.max_iter, solver_cfg.max_halvings
        )
    )
    nodes = used_grid.nodes
    h_vals = solution.values.real
    # the run ends at a breach node, so the segment and its bank end there
    wall = (1.0 - solver_cfg.epsilon_critical) * critical
    breach = (np.abs(h_vals[1:]) >= wall) | (
        carry.initial.a0 / a_vals[1:] <= solver_cfg.epsilon_scale
    )
    last = int(np.argmax(breach)) + 1 if np.any(breach) else nodes.size - 1
    if history is not None:
        bank = bank.moved_to(history.chi[last], history.dchi[last], nodes[last])
    return SegmentState(
        initial=carry.initial,
        hist_taus=nodes[: last + 1],
        hist_hubble=h_vals[: last + 1],
        hist_a=a_vals[: last + 1],
        hist_wick=w_vals[: last + 1],
        a_carry=float(a_vals[last]),
        mode_bank_carry=bank,
        anchor_digest=carry.anchor_digest,
        last_report=report,
    )


def _report_diagnostics(
    carry: SegmentState, params: PhysicalParams, n_segments: int, **extra
) -> dict:
    critical = params.hubble_critical
    out = {
        "hubble_final": float(carry.hist_hubble[-1]),
        "scale_factor_final": float(carry.hist_a[-1]),
        "wick_square_final": float(carry.hist_wick[-1]),
        "margin_hubble": float(critical - abs(carry.hist_hubble[-1])),
        "margin_scale": float(carry.scale_denominator()),
        "segments": n_segments,
    }
    out.update(extra)
    return out


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

    All failure modes are reported through TerminationReport, never raised.
    segment_callback(log), when given, runs after every completed segment
    with the run's RunLog; it must not mutate the log.
    """
    if tau_horizon <= initial.tau0:
        raise ValueError("tau_horizon must exceed tau0")
    wick_cfg = effective_wick_config(wick_cfg, initial, params)
    if resume_from is None:
        resume_from = initial_segment_state(initial, params, wick_cfg, profile)
    log = RunLog(resume_from, prior_reports, prior_bounds)
    wall = (1.0 - solver_cfg.epsilon_critical) * params.hubble_critical
    diagnostics_extra = {}
    horizon_slack = 1e-12 * max(1.0, abs(tau_horizon))

    while True:
        carry = log.carry
        if abs(carry.hubble_start) >= wall:
            reason = REASON_CRITICAL_HUBBLE
            break
        if carry.scale_denominator() <= solver_cfg.epsilon_scale:
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
            segment = solve_segment(
                carry, tau_horizon, params, wick_cfg, solver_cfg, profile
            )
        except NoConvergence as err:
            reason = REASON_NO_CONVERGENCE
            diagnostics_extra = {"picard_residuals": list(err.report.residuals)}
            break
        except (BankCheckFailed, ZeroStep, OverflowError) as err:
            reason = REASON_NO_CONVERGENCE
            diagnostics_extra = {"error": str(err)}
            break
        except NaNDetected as err:
            reason = REASON_NO_CONVERGENCE
            diagnostics_extra = {"error": str(err), "raised_at_tau": err.tau}
            break
        except CriticalHubble as err:
            reason = REASON_CRITICAL_HUBBLE
            diagnostics_extra = {"raised_at_tau": err.tau}
            break
        except BlowUp as err:
            reason = REASON_SCALE_BLOWUP
            diagnostics_extra = {"raised_at_tau": err.tau}
            break
        log.append(segment)
        if segment_callback is not None:
            segment_callback(log)

    final = log.join()
    diagnostics = _report_diagnostics(
        final, params, len(log.reports), **diagnostics_extra
    )
    if reason == REASON_SCALE_BLOWUP:
        diagnostics["extrapolated_breach_tau"] = _extrapolate_blowup(final)
    if reason == REASON_CRITICAL_HUBBLE:
        diagnostics["extrapolated_breach_tau"] = _extrapolate_wall(final, wall)
    report = TerminationReport(
        reason=reason, tau_stop=final.tau_start, diagnostics=diagnostics
    )
    solution = MaximalSolution(
        taus=final.hist_taus.copy(),
        hubble=final.hist_hubble.copy(),
        scale_factor=final.hist_a.copy(),
        wick_square=final.hist_wick.copy(),
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


def solution_diagnostics(
    solution: MaximalSolution, params: PhysicalParams
) -> dict[str, np.ndarray]:
    """Time series for reporting: tau, t, a, H, H', R, W_ren, source, margins."""
    taus = solution.taus
    if taus.size >= 3:
        grid = Grid(taus)
        h_fun = SampledFunction(grid, solution.hubble)
        a_fun = SampledFunction(grid, solution.scale_factor)
        dh = h_fun.derivative().values.real
        ricci = ricci_scalar(h_fun, a_fun).values.real
        t_of_tau = cosmological_time(a_fun, 0.0).values.real
    else:
        dh = np.zeros_like(taus)
        ricci = 6.0 * 2.0 * solution.hubble**2
        t_of_tau = np.zeros_like(taus)
    critical = params.hubble_critical
    a0 = solution.final_state.initial.a0
    return {
        "tau": taus,
        "t": t_of_tau,
        "a": solution.scale_factor,
        "H": solution.hubble,
        "dH": dh,
        "R": ricci,
        "W_ren": solution.wick_square,
        "source": friedmann_source(solution.hubble, solution.wick_square, params),
        "margin_hubble": critical - np.abs(solution.hubble),
        "margin_scale": a0 / solution.scale_factor,
    }


CHECKPOINT_VERSION = 2


def save_checkpoint(
    path, log: RunLog, tau_horizon: float, written: int | None = None
) -> int:
    """Write a run's log to a checkpoint file; return the chunks it holds.

    The file is JSON lines.  The first line holds the header (version,
    horizon, initial data, anchor digest) and the state so far, the mode
    bank's fixed momenta and weights included; each later line is a record
    of what is new since the line before: the history from node index
    ``start`` on, the new Picard reports and segment bounds, and the
    carried a and the bank's modes.  ``written`` is what the previous call
    for this file returned.  None starts the file: the whole state is
    written to a temporary file that then replaces ``path``.  Otherwise one
    record is appended, so a write costs O(segment), not O(history); the
    log must be the one last written, grown since.  Each line is one
    ``json.dumps`` call, which takes the C encoder (``json.dump`` takes the
    pure-Python one); floats survive the round trip exactly (repr-based).
    """
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
        "reports": [r.as_dict() for r in log.reports[n_reports:]],
        "segment_bounds": log.bounds[n_bounds:],
        "a_carry": carry.a_carry,
        "bank": None,
    }
    if bank is not None:
        # momenta and weights are fixed at tau0: the first line holds them
        fixed = ("momenta", "weights") if first else ()
        record["bank"] = {
            **{name: getattr(bank, name).tolist() for name in fixed},
            "chi_re": bank.chi.real.tolist(),
            "chi_im": bank.chi.imag.tolist(),
            "dchi_re": bank.dchi.real.tolist(),
            "dchi_im": bank.dchi.imag.tolist(),
            "tau": bank.tau,
            "a0_anchor": bank.a0_anchor,
            "mass": bank.mass,
            "tau0_anchor": bank.tau0_anchor,
        }
    if first:
        header = {
            "version": CHECKPOINT_VERSION,
            "tau_horizon": tau_horizon,
            "initial": {
                "tau0": carry.initial.tau0,
                "a0": carry.initial.a0,
                "hubble0": carry.initial.hubble0,
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


def load_checkpoint(path):
    """Rebuild (carry, reports, segment_bounds, tau_horizon) from a file.

    The records are applied in order; the bank's momenta and weights come
    from the first line (older files repeat them on every line, and the
    last record's copy wins).  A last line that lacks its newline and does
    not parse is a torn append and is ignored, so the record before it is
    the checkpoint.
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
    raw_reports = []
    bounds = []
    for number, record in enumerate(records, 1):
        start = record["start"]
        if start > len(history["taus"]):
            raise ValueError(f"{path}:{number}: record starts past the history")
        for key, values in history.items():
            del values[start:]
            values.extend(record["history"][key])
        raw_reports.extend(record["reports"])
        bounds.extend(record["segment_bounds"])
    initial = InitialData(
        tau0=header["initial"]["tau0"],
        a0=header["initial"]["a0"],
        hubble0=header["initial"]["hubble0"],
    )
    raw_bank = records[-1]["bank"]
    if raw_bank is None:
        bank = None
    else:
        raw_bank = {**records[0]["bank"], **raw_bank}
        bank = ModeBank(
            momenta=np.array(raw_bank["momenta"]),
            weights=np.array(raw_bank["weights"]),
            k0=np.sqrt(
                np.array(raw_bank["momenta"]) ** 2
                + (raw_bank["a0_anchor"] * raw_bank["mass"]) ** 2
            ),
            chi=np.array(raw_bank["chi_re"]) + 1j * np.array(raw_bank["chi_im"]),
            dchi=np.array(raw_bank["dchi_re"]) + 1j * np.array(raw_bank["dchi_im"]),
            tau=raw_bank["tau"],
            a0_anchor=raw_bank["a0_anchor"],
            mass=raw_bank["mass"],
            tau0_anchor=raw_bank["tau0_anchor"],
        )
    carry = SegmentState(
        initial=initial,
        hist_taus=np.array(history["taus"]),
        hist_hubble=np.array(history["hubble"]),
        hist_a=np.array(history["a"]),
        hist_wick=np.array(history["wick"]),
        a_carry=records[-1]["a_carry"],
        mode_bank_carry=bank,
        anchor_digest=header["anchor_digest"],
    )
    reports = tuple(
        PicardReport(
            iterates=r["iterates"],
            residuals=tuple(r["residuals"]),
            converged=r["converged"],
            tol=r["tol"],
            equation_residual=r["equation_residual"],
            halvings=r.get("halvings", 0),
        )
        for r in raw_reports
    )
    return carry, reports, tuple(bounds), header["tau_horizon"]
