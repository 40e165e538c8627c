"""Batch front-end: JSON run configs in, CSV series and JSON summaries out.

Exit codes: 0 TimeHorizon, 10 HitCriticalHubble, 11 ScaleFactorBlowUp,
20 ConvergenceFailure (or any domain error mid-run), 2 config error.
The only environment variable read is SEMIFLRW_LOG (log level name).
"""

from __future__ import annotations

import argparse
import difflib
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .core import DEFAULT_HUBBLE_CRITICAL, InitialData, PhysicalParams
from .energy import ConstraintMode, constraint_report, initial_energy_density
from .modes import SUBSTEP_CAP
from .solver import (
    RunLog,
    SolverConfig,
    continue_maximal,
    load_checkpoint,
    save_checkpoint,
    solution_diagnostics,
    wick_square_renormalized,
)
from .wick import BogoliubovProfile, WickConfig

log = logging.getLogger("semiflrw")

CSV_COLUMNS = ("tau", "t", "a", "H", "dH", "R", "W_ren", "source")


class ConfigError(Exception):
    """Base for everything that should exit with code 2."""


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass


_NUMERICAL_DEFAULTS = {
    "dt_target": None,
    "k_max": 40.0,
    "n_k": 192,
    "tol": 1e-10,
    "max_iter": 40,
    "max_halvings": 6,
    "nodes_per_segment": 49,
    "tail_model": "power-fit",
    "tail_fit_window": 0.25,
    "k_knee": 0.0,
    "panel_points": 8,
    "epsilon_critical": 1e-6,
    "epsilon_scale": 1e-6,
    "safety": 0.5,
    "max_segments": 10000,
    "substep_cap": SUBSTEP_CAP,
    "wronskian_budget": 1e-8,
    "wronskian_tolerance": 1e-5,
}

_TOP_KEYS = {
    "mass",
    "Lambda_tilde",
    "lambda_len",
    "hubble_critical",
    "tau0",
    "a0",
    "H0",
    "constraint",
    "horizon",
    "state",
    "numerical",
    "out_dir",
}
_CONSTRAINT_KEYS = {"variant", "sign", "target_hubble"}
_STATE_KEYS = {"type", "amplitude", "k_scale"}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; echo() round-trips through parse."""

    mass: float
    lambda_tilde: float
    lambda_len: float | None
    hubble_critical: float
    tau0: float
    a0: float
    h0: float | None
    constraint: dict | None
    horizon: float
    state: dict
    numerical: dict
    out_dir: str | None

    def echo(self) -> dict:
        out = {
            "mass": self.mass,
            "Lambda_tilde": self.lambda_tilde,
            "lambda_len": self.lambda_len,
            "hubble_critical": self.hubble_critical,
            "tau0": self.tau0,
            "a0": self.a0,
            "horizon": self.horizon,
            "state": dict(self.state),
            "numerical": dict(self.numerical),
        }
        if self.constraint is not None:
            out["constraint"] = dict(self.constraint)
        else:
            out["H0"] = self.h0
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out


def _check_keys(mapping: dict, allowed: set, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            close = difflib.get_close_matches(key, sorted(allowed), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ParseError(f"unknown key {key!r} in {context}{hint}")


_REQUIRED = object()


def _as_float(mapping: dict, key: str, context: str, default=_REQUIRED):
    if key not in mapping:
        if default is _REQUIRED:
            raise ParseError(f"missing required key {key!r} in {context}")
        return default
    value = mapping[key]
    if value is None and key in ("lambda_len", "dt_target", "hubble_critical"):
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{context}.{key} must be a number, got {value!r}")
    return float(value)


def _as_int(mapping: dict, key: str, context: str, default: int) -> int:
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{context}.{key} must be an integer, got {value!r}")
    return value


def parse_config_mapping(raw: dict, origin: str) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    if not isinstance(raw, dict):
        raise ParseError(f"{origin}: top level must be a JSON object")
    _check_keys(raw, _TOP_KEYS, origin)
    mass = _as_float(raw, "mass", origin)
    horizon = _as_float(raw, "horizon", origin)
    if "H0" in raw and "constraint" in raw:
        raise ParseError(f"{origin}: H0 and constraint are mutually exclusive")

    constraint = None
    h0 = None
    if "constraint" in raw:
        block = raw["constraint"]
        if not isinstance(block, dict):
            raise ParseError(f"{origin}: constraint must be an object")
        _check_keys(block, _CONSTRAINT_KEYS, f"{origin}.constraint")
        if "variant" not in block:
            raise ParseError(f"{origin}: constraint.variant is required")
        constraint = {
            "variant": block["variant"],
            "sign": _as_float(block, "sign", f"{origin}.constraint", 1.0),
        }
        if "target_hubble" in block:
            constraint["target_hubble"] = _as_float(
                block, "target_hubble", f"{origin}.constraint", None
            )
    else:
        h0 = _as_float(raw, "H0", origin, 0.0)

    state = raw.get("state", {"type": "vacuum"})
    if not isinstance(state, dict):
        raise ParseError(f"{origin}: state must be an object")
    _check_keys(state, _STATE_KEYS, f"{origin}.state")
    state_type = state.get("type", "vacuum")
    if state_type not in ("vacuum", "bogoliubov-gaussian"):
        raise ParseError(
            f"{origin}: state.type must be 'vacuum' or 'bogoliubov-gaussian', "
            f"got {state_type!r}"
        )
    state_resolved = {"type": state_type}
    if state_type == "bogoliubov-gaussian":
        state_resolved["amplitude"] = _as_float(state, "amplitude", f"{origin}.state")
        state_resolved["k_scale"] = _as_float(state, "k_scale", f"{origin}.state")

    numerical_raw = raw.get("numerical", {})
    if not isinstance(numerical_raw, dict):
        raise ParseError(f"{origin}: numerical must be an object")
    if "tol_rel" in numerical_raw:
        # removed, not misspelt: pointing it at a similar name would steer an
        # old config towards the Picard tolerance, a different setting
        raise ParseError(
            f"key 'tol_rel' in {origin}.numerical was removed and nothing"
            " replaces it; delete it"
        )
    _check_keys(numerical_raw, set(_NUMERICAL_DEFAULTS), f"{origin}.numerical")
    numerical = dict(_NUMERICAL_DEFAULTS)
    for key, value in numerical_raw.items():
        if key in ("n_k", "max_iter", "max_halvings", "nodes_per_segment",
                   "panel_points", "max_segments"):
            numerical[key] = _as_int(numerical_raw, key, f"{origin}.numerical",
                                     _NUMERICAL_DEFAULTS[key])
        elif key == "tail_model":
            numerical[key] = value
        else:
            numerical[key] = _as_float(numerical_raw, key, f"{origin}.numerical",
                                       _NUMERICAL_DEFAULTS[key])

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ParseError(f"{origin}: out_dir must be a string")

    hubble_critical = _as_float(raw, "hubble_critical", origin, None)
    return RunConfig(
        mass=mass,
        lambda_tilde=_as_float(raw, "Lambda_tilde", origin, 0.0),
        lambda_len=_as_float(raw, "lambda_len", origin, None),
        hubble_critical=(
            DEFAULT_HUBBLE_CRITICAL if hubble_critical is None else hubble_critical
        ),
        tau0=_as_float(raw, "tau0", origin, 0.0),
        a0=_as_float(raw, "a0", origin, 1.0),
        h0=h0,
        constraint=constraint,
        horizon=horizon,
        state=state_resolved,
        numerical=numerical,
        out_dir=out_dir,
    )


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return parse_config_mapping(raw, str(path))


def _resolve_h0_fixed_point(
    config: RunConfig, mode: ConstraintMode, wick_cfg: WickConfig
) -> float:
    """Constraint 3 H0^2 = rho0 + Lambda with rho0 depending on a'(tau0)
    = a0^2 H0; iterate because the coupling is weak."""
    h = 0.0
    for _ in range(60):
        rho0 = initial_energy_density(
            config.a0, config.a0**2 * h, config.mass, wick_cfg
        )
        h_new = (rho0 + config.lambda_tilde) / 3.0
        if h_new < 0.0:
            raise ValidationError(
                f"constraint has no real H0: rho0 + Lambda = {rho0 + config.lambda_tilde:.6g} < 0"
            )
        h_new = mode.sign * math.sqrt(h_new)
        if abs(h_new - h) <= 1e-14 * max(1.0, abs(h_new)):
            return h_new
        h = h_new
    raise ValidationError("constraint fixed point for H0 did not settle")


def build_run(config: RunConfig):
    """Turn a RunConfig into solver inputs plus the constraint report."""
    try:
        params = PhysicalParams(
            mass=config.mass,
            length_scale=config.lambda_len,
            cosmological_constant=config.lambda_tilde,
            hubble_critical=config.hubble_critical,
        )
        wick_cfg = WickConfig(
            k_max=config.numerical["k_max"],
            n_k=config.numerical["n_k"],
            tail_model=config.numerical["tail_model"],
            tail_fit_window=config.numerical["tail_fit_window"],
            k_knee=config.numerical["k_knee"],
            panel_points=config.numerical["panel_points"],
        )
        solver_cfg = SolverConfig(
            dt_target=config.numerical["dt_target"],
            tol=config.numerical["tol"],
            max_iter=config.numerical["max_iter"],
            max_halvings=config.numerical["max_halvings"],
            nodes_per_segment=config.numerical["nodes_per_segment"],
            epsilon_critical=config.numerical["epsilon_critical"],
            epsilon_scale=config.numerical["epsilon_scale"],
            safety=config.numerical["safety"],
            substep_cap=config.numerical["substep_cap"],
            wronskian_budget=config.numerical["wronskian_budget"],
            wronskian_tolerance=config.numerical["wronskian_tolerance"],
            max_segments=config.numerical["max_segments"],
        )
    except ValueError as err:
        raise ValidationError(str(err)) from err

    profile = None
    if config.state["type"] == "bogoliubov-gaussian":
        try:
            profile = BogoliubovProfile.gaussian(
                amplitude=config.state["amplitude"], k_scale=config.state["k_scale"]
            )
        except ValueError as err:
            raise ValidationError(str(err)) from err

    if config.constraint is None:
        h0 = config.h0
        rho0 = initial_energy_density(
            config.a0, config.a0**2 * h0, config.mass, wick_cfg
        )
        report = {
            "variant": "direct",
            "rho0": rho0,
            "Lambda": config.lambda_tilde,
            "H0": h0,
            "solved_value": h0,
            "residual": 3.0 * h0**2 - config.lambda_tilde - rho0,
        }
    else:
        try:
            mode = ConstraintMode(
                variant=config.constraint["variant"],
                sign=config.constraint.get("sign", 1.0),
                target_hubble=config.constraint.get("target_hubble"),
            )
        except ValueError as err:
            raise ValidationError(str(err)) from err
        if mode.variant == "given_H0":
            h0 = _resolve_h0_fixed_point(config, mode, wick_cfg)
        else:
            h0 = mode.target_hubble
        rho0 = initial_energy_density(
            config.a0, config.a0**2 * h0, config.mass, wick_cfg
        )
        report = constraint_report(rho0, config.lambda_tilde, mode)
        if mode.variant == "solve_for_Lambda":
            # the solved value becomes the run's cosmological constant
            params = replace(params, cosmological_constant=report["Lambda"])

    try:
        initial = InitialData(tau0=config.tau0, a0=config.a0, hubble0=h0)
        initial.validate_against(params)
    except ValueError as err:
        raise ValidationError(str(err)) from err
    if config.horizon <= config.tau0:
        raise ValidationError(
            f"horizon {config.horizon} must exceed tau0 {config.tau0}"
        )
    return params, initial, wick_cfg, solver_cfg, profile, report


def _format_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def write_solution_csv(path, solution, params, config_echo: dict) -> None:
    diag = solution_diagnostics(solution, params)
    lines = [
        "# semiflrw solution time series",
        "# units: 8*pi*G = c = hbar = 1; tau conformal time, t cosmological"
        " time (decreasing in tau)",
        "# H = a'/a^2, R = 6*(2H^2 - H'/a), W_ren renormalized Wick square,"
        " source = numerator of the Friedmann right-hand side"
        " (semiflrw.solver.friedmann_source)",
        "# config: " + json.dumps(config_echo, sort_keys=True),
        ",".join(CSV_COLUMNS),
    ]
    columns = [diag[c] for c in CSV_COLUMNS]
    for j in range(solution.taus.size):
        lines.append(_format_row(col[j] for col in columns))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _tail_summary(solution, params, wick_cfg) -> dict | None:
    bank = solution.final_state.mode_bank_carry
    if bank is None or params.mass == 0.0:
        return None
    _, detail = wick_square_renormalized(
        float(solution.scale_factor[-1]), bank, bank.chi, params, wick_cfg,
        detail=True,
    )
    fit = detail.tail
    out = {"error_estimate": detail.error_estimate}
    if fit is not None:
        out.update(
            {
                "C": fit.coefficient,
                "p_raw": fit.p_raw,
                "p_used": fit.p_used,
                "coherent": fit.coherent,
                "ok": fit.ok,
            }
        )
    return out


def write_summary(
    path, config_echo, constraint_rep, solution, term_report, params, wick_cfg,
    error: str | None = None,
) -> None:
    payload = {
        "config": config_echo,
        "constraint": constraint_rep,
        "termination": None
        if term_report is None
        else {
            "reason": term_report.reason,
            "exit_code": term_report.exit_code,
            "tau_stop": term_report.tau_stop,
            "diagnostics": term_report.diagnostics,
        },
        "picard": None
        if solution is None
        else [r.as_dict() for r in solution.reports],
        "tail_fit": None
        if solution is None
        else _tail_summary(solution, params, wick_cfg),
        "series": None
        if solution is None
        else {
            "n_nodes": int(solution.taus.size),
            "tau_final": float(solution.taus[-1]),
            "hubble_final": float(solution.hubble[-1]),
            "scale_factor_final": float(solution.scale_factor[-1]),
            "wick_square_final": float(solution.wick_square[-1]),
            "segments": len(solution.reports),
        },
        "error": error,
    }
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_run(args) -> int:
    try:
        config = parse_config(args.config)
        built = build_run(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    params, initial, wick_cfg, solver_cfg, profile, constraint_rep = built

    out_dir = Path(args.out or config.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "solution.csv"
    summary_path = out_dir / "summary.json"

    resume_state = None
    prior_reports = ()
    prior_bounds = ()
    if args.resume:
        try:
            resume_state, prior_reports, prior_bounds, horizon_ck = load_checkpoint(
                args.resume
            )
        except (OSError, ValueError, KeyError) as err:
            print(f"config error: cannot resume from {args.resume}: {err}",
                  file=sys.stderr)
            return 2
        if horizon_ck != config.horizon:
            print(
                f"config error: checkpoint horizon {horizon_ck!r} differs from"
                f" config horizon {config.horizon!r}",
                file=sys.stderr,
            )
            return 2

    callback = None
    written = None  # what the checkpoint file holds, as save_checkpoint says
    run_log = None
    if args.checkpoint:
        every = max(1, args.checkpoint_every)

        def callback(log):
            nonlocal written, run_log
            run_log = log
            if log.segments % every == 0:
                written = save_checkpoint(
                    args.checkpoint, log, config.horizon, written
                )

    try:
        solution, term = continue_maximal(
            initial,
            config.horizon,
            params,
            wick_cfg,
            solver_cfg,
            resume_from=resume_state,
            prior_reports=prior_reports,
            prior_bounds=prior_bounds,
            profile=profile,
            segment_callback=callback,
        )
    except (RuntimeError, ValueError, ArithmeticError) as err:
        log.error("run failed: %s", err)
        write_summary(
            summary_path, config.echo(), constraint_rep, None, None, params,
            wick_cfg, error=str(err),
        )
        print(f"run failed: {err}", file=sys.stderr)
        return 20

    write_solution_csv(csv_path, solution, params, config.echo())
    write_summary(
        summary_path, config.echo(), constraint_rep, solution, term, params,
        wick_cfg,
    )
    if args.checkpoint:
        # run_log is None when no segment was solved
        log = run_log or RunLog(
            solution.final_state, solution.reports, solution.segment_bounds
        )
        save_checkpoint(args.checkpoint, log, config.horizon, written)
    print(
        f"{term.reason} tau_stop={term.tau_stop!r} nodes={solution.taus.size}"
        f" -> {csv_path}"
    )
    return term.exit_code


SWEEP_COLUMNS = (
    "config",
    "mass",
    "Lambda_tilde",
    "H0",
    "horizon",
    "status",
    "reason",
    "exit_code",
    "tau_stop",
    "hubble_final",
    "scale_factor_final",
    "wick_square_final",
    "segments",
    "error",
)


def _sweep_one(name: str, config: RunConfig, out_dir: Path) -> dict:
    row = {key: "" for key in SWEEP_COLUMNS}
    row["config"] = name
    row["mass"] = repr(config.mass)
    row["Lambda_tilde"] = repr(config.lambda_tilde)
    row["horizon"] = repr(config.horizon)
    try:
        params, initial, wick_cfg, solver_cfg, profile, constraint_rep = build_run(
            config
        )
        row["H0"] = repr(initial.hubble0)
        run_dir = out_dir / name
        run_dir.mkdir(parents=True, exist_ok=True)
        solution, term = continue_maximal(
            initial, config.horizon, params, wick_cfg, solver_cfg, profile=profile
        )
        write_solution_csv(run_dir / "solution.csv", solution, params, config.echo())
        write_summary(
            run_dir / "summary.json", config.echo(), constraint_rep, solution,
            term, params, wick_cfg,
        )
        row.update(
            status="ok",
            reason=term.reason,
            exit_code=str(term.exit_code),
            tau_stop=repr(term.tau_stop),
            hubble_final=repr(float(solution.hubble[-1])),
            scale_factor_final=repr(float(solution.scale_factor[-1])),
            wick_square_final=repr(float(solution.wick_square[-1])),
            segments=str(len(solution.reports)),
        )
    except (ConfigError, RuntimeError, ValueError, ArithmeticError) as err:
        row["status"] = "failed"
        row["error"] = str(err).replace("\n", " ").replace(",", ";")
    return row


def _collect_sweep_configs(target: str) -> list[tuple[str, RunConfig]]:
    path = Path(target)
    entries: list[tuple[str, RunConfig]] = []
    if path.is_dir():
        for child in sorted(path.glob("*.json")):
            entries.append((child.stem, parse_config(child)))
        return entries
    try:
        raw = json.loads(path.read_text())
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(raw, list):
        raise ParseError(f"{path}: sweep file must hold a JSON list")
    for index, item in enumerate(raw):
        if isinstance(item, str):
            child = (path.parent / item).resolve()
            entries.append((Path(item).stem, parse_config(child)))
        elif isinstance(item, dict):
            entries.append(
                (f"run_{index:03d}", parse_config_mapping(item, f"{path}[{index}]"))
            )
        else:
            raise ParseError(f"{path}[{index}]: entries must be paths or objects")
    return entries


def cmd_sweep(args) -> int:
    try:
        entries = _collect_sweep_configs(args.target)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict | None] = [None] * len(entries)
    workers = max(1, args.threads)
    # index-ordered aggregation keeps the report independent of scheduling
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_sweep_one, name, cfg, out_dir): i
            for i, (name, cfg) in enumerate(entries)
        }
        for future in futures:
            rows[futures[future]] = future.result()
    lines = ["# semiflrw sweep aggregate", ",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in SWEEP_COLUMNS))
    aggregate = out_dir / "sweep.csv"
    with open(aggregate, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"{len(entries)} runs -> {aggregate}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiflrw",
        description="Semiclassical FLRW solver: maximal Hubble-rate solutions"
        " for a conformally coupled massive scalar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="solve one configuration")
    run_p.add_argument("config", help="path to a JSON run configuration")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--checkpoint", default=None, help="checkpoint file path")
    run_p.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="K",
        help="checkpoint every K segments (default 1)",
    )
    run_p.add_argument("--resume", default=None, help="resume from checkpoint file")
    run_p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for symmetry; single runs are sequential",
    )
    run_p.set_defaults(func=cmd_run)
    sweep_p = sub.add_parser("sweep", help="run many configurations")
    sweep_p.add_argument(
        "target", help="directory of *.json configs, or a JSON list file"
    )
    sweep_p.add_argument("--out", default=None, help="output directory")
    sweep_p.add_argument("--threads", type=int, default=1)
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SEMIFLRW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
