"""Semiclassical backreaction on flat FLRW backgrounds.

A conformally coupled massive scalar sources the Hubble rate through the
renormalized Wick square; the trace equation becomes a retarded Volterra
equation solved segment by segment up to the maximal regular time.
"""

from __future__ import annotations

from .core import (
    DEFAULT_HUBBLE_CRITICAL,
    BlowUp,
    InitialData,
    PhysicalParams,
    cosmological_time,
    ricci_scalar,
    scale_factor_from_hubble,
)
from .energy import ConstraintMode, constraint_report
from .fixedpoint import (
    NoConvergence,
    PicardReport,
    picard_solve,
    picard_solve_with_halving,
)
from .modes import ModeBank, evolve_bank
from .solver import (
    EXIT_CODES,
    CriticalHubble,
    MaximalSolution,
    RunLog,
    SegmentState,
    SolverConfig,
    TerminationReport,
    continue_maximal,
    initial_segment_state,
    load_checkpoint,
    save_checkpoint,
    solution_diagnostics,
    solve_segment,
)
from .wick import (
    BogoliubovProfile,
    TailFit,
    WickConfig,
    wick_square_bogoliubov_delta,
    wick_square_renormalized,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_HUBBLE_CRITICAL",
    "EXIT_CODES",
    "BlowUp",
    "BogoliubovProfile",
    "ConstraintMode",
    "CriticalHubble",
    "InitialData",
    "MaximalSolution",
    "ModeBank",
    "NoConvergence",
    "PhysicalParams",
    "PicardReport",
    "RunLog",
    "SegmentState",
    "SolverConfig",
    "TailFit",
    "TerminationReport",
    "WickConfig",
    "constraint_report",
    "continue_maximal",
    "cosmological_time",
    "evolve_bank",
    "initial_segment_state",
    "load_checkpoint",
    "picard_solve",
    "picard_solve_with_halving",
    "ricci_scalar",
    "save_checkpoint",
    "scale_factor_from_hubble",
    "solution_diagnostics",
    "solve_segment",
    "wick_square_bogoliubov_delta",
    "wick_square_renormalized",
    "__version__",
]
