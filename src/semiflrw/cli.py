"""Batch front-end: JSON run configs in, CSV series and JSON summaries out.

Exit codes: 0 TimeHorizon, 10 HitCriticalHubble, 11 ScaleFactorBlowUp,
20 ConvergenceFailure (or any domain or file-writing error mid-run), 2 config error.
The only environment variable read is SEMIFLRW_LOG, a log level name of
LOG_LEVELS (unset or empty: WARNING); any other value is a config error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from .core import DEFAULT_HUBBLE_CRITICAL, InitialData, PhysicalParams
from .energy import ConstraintMode, constraint_report
from .solver import (
    RunLog,
    SolverConfig,
    check_resume,
    continue_maximal,
    initial_segment_state,
    load_checkpoint,
    save_checkpoint,
    solution_diagnostics,
    wick_square_renormalized,
)
from .wick import BogoliubovProfile, WickConfig

log = logging.getLogger("semiflrw")

CSV_COLUMNS = ("tau", "t", "a", "H", "dH", "R", "W_ren", "source")
# a built run's domain errors and the files it cannot write: exit 20
RUN_ERRORS = (OSError, RuntimeError, ValueError, ArithmeticError)


class ConfigError(Exception):
    """Base for everything that should exit with code 2."""


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass


_REQUIRED = object()

# SolverConfig's and WickConfig's defaults, but for the CLI's own k_max (the
# library has none) and n_k
_NUMERICAL_DEFAULTS = {
    **{f.name: f.default for f in fields(SolverConfig) + fields(WickConfig)},
    "k_max": 40.0,
    "n_k": 192,
}

# top-level numbers and their defaults; a null hubble_critical is the default
_TOP_NUMBERS = {
    "mass": _REQUIRED,
    "horizon": _REQUIRED,
    "Lambda_tilde": 0.0,
    "lambda_len": None,
    "hubble_critical": None,
    "tau0": 0.0,
    "a0": 1.0,
}
_TOP_KEYS = {*_TOP_NUMBERS, "H0", "constraint", "state", "numerical", "out_dir"}
_CONSTRAINT_KEYS = {"variant", "sign", "target_hubble"}
_STATE_KEYS = {"type", "amplitude", "k_scale"}


def _check_keys(mapping: dict, allowed, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ParseError(
                f"unknown key {key!r} in {context}, which accepts only:"
                f" {', '.join(sorted(allowed))}"
            )


def _as_float(mapping: dict, key: str, context: str, default=_REQUIRED):
    """mapping[key] as a float; default when the key is absent, and null
    (None) only where the default is None."""
    if key not in mapping:
        if default is _REQUIRED:
            raise ParseError(f"missing required key {key!r} in {context}")
        return default
    value = mapping[key]
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{context}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{context}.{key} is too large for a float") from None


def parse_config_mapping(raw: dict, origin: str) -> dict:
    """Validate a decoded JSON object into the resolved run config.

    Every default is filled in, so the result parses back to itself: it is
    the config block that solution.csv and summary.json echo.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"{origin}: top level must be a JSON object")
    _check_keys(raw, _TOP_KEYS, origin)
    config = {
        key: _as_float(raw, key, origin, default)
        for key, default in _TOP_NUMBERS.items()
    }
    if config["hubble_critical"] is None:
        config["hubble_critical"] = DEFAULT_HUBBLE_CRITICAL
    if "H0" in raw and "constraint" in raw:
        raise ParseError(f"{origin}: H0 and constraint are mutually exclusive")

    if "constraint" in raw:
        block = raw["constraint"]
        context = f"{origin}.constraint"
        if not isinstance(block, dict):
            raise ParseError(f"{origin}: constraint must be an object")
        _check_keys(block, _CONSTRAINT_KEYS, context)
        if "variant" not in block:
            raise ParseError(f"{origin}: constraint.variant is required")
        constraint = {
            "variant": block["variant"],
            "sign": _as_float(block, "sign", context, 1.0),
        }
        if "target_hubble" in block:
            constraint["target_hubble"] = _as_float(block, "target_hubble", context)
        config["constraint"] = constraint
    else:
        config["H0"] = _as_float(raw, "H0", origin, 0.0)

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
    config["state"] = {"type": state_type}
    if state_type == "bogoliubov-gaussian":
        for key in ("amplitude", "k_scale"):
            config["state"][key] = _as_float(state, key, f"{origin}.state")

    numerical_raw = raw.get("numerical", {})
    if not isinstance(numerical_raw, dict):
        raise ParseError(f"{origin}: numerical must be an object")
    context = f"{origin}.numerical"
    _check_keys(numerical_raw, _NUMERICAL_DEFAULTS, context)
    numerical = config["numerical"] = dict(_NUMERICAL_DEFAULTS)
    for key, value in numerical_raw.items():
        default = _NUMERICAL_DEFAULTS[key]
        if isinstance(default, str):
            numerical[key] = value
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParseError(f"{context}.{key} must be an integer, got {value!r}")
            numerical[key] = value
        else:
            numerical[key] = _as_float(numerical_raw, key, context, default)

    out_dir = raw.get("out_dir")
    if out_dir is not None:
        if not isinstance(out_dir, str):
            raise ParseError(f"{origin}: out_dir must be a string")
        config["out_dir"] = out_dir
    return config


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err


def parse_config(path) -> dict:
    path = Path(path)
    return parse_config_mapping(_read_json(path), str(path))


def _from_table(cls, numerical: dict):
    """A config dataclass built from the numerical table, field by field."""
    return cls(**{f.name: numerical[f.name] for f in fields(cls)})


def build_run(config: dict):
    """Turn a resolved config into solver inputs plus the constraint report."""
    state, constraint = config["state"], config.get("constraint")
    try:
        wick_cfg = _from_table(WickConfig, config["numerical"])
        solver_cfg = _from_table(SolverConfig, config["numerical"])
        profile = None
        if state["type"] == "bogoliubov-gaussian":
            if config["mass"] == 0.0:
                raise ValueError("bogoliubov-gaussian needs mass > 0: W enters as m^2W")
            profile = BogoliubovProfile.gaussian(
                amplitude=state["amplitude"], k_scale=state["k_scale"]
            )
        given = config.get("H0")
        if constraint is not None:
            given = ConstraintMode(
                variant=constraint["variant"],
                sign=constraint["sign"],
                target_hubble=constraint.get("target_hubble"),
            )
        report = constraint_report(config["mass"], config["Lambda_tilde"], given)
        params = PhysicalParams(
            mass=config["mass"],
            length_scale=config["lambda_len"],
            cosmological_constant=report["Lambda"],
            hubble_critical=config["hubble_critical"],
        )
        initial = InitialData(
            tau0=config["tau0"], a0=config["a0"], hubble0=report["H0"]
        )
        initial.validate_against(params)
    except ValueError as err:
        raise ValidationError(str(err)) from err
    # written so that a NaN horizon fails too
    if not config["tau0"] < config["horizon"] < math.inf:
        raise ValidationError(
            f"horizon {config['horizon']} must exceed tau0 {config['tau0']}"
            " and be finite"
        )
    return params, initial, wick_cfg, solver_cfg, profile, report


def write_solution_csv(path, solution, config: dict) -> None:
    diag = solution_diagnostics(solution)
    lines = [
        "# semiflrw solution time series",
        "# units: 8*pi*G = c = hbar = 1; tau conformal time, t cosmological"
        " time (decreasing in tau)",
        "# H = a'/a^2, R = 6*(2H^2 - H'/a), W_ren renormalized Wick square,"
        " source = numerator of the Friedmann right-hand side"
        " (semiflrw.solver.friedmann_source)",
        "# config: " + json.dumps(config, sort_keys=True),
        ",".join(CSV_COLUMNS),
    ]
    columns = [diag[c].tolist() for c in CSV_COLUMNS]
    lines.extend(",".join(map(repr, row)) for row in zip(*columns))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _tail_summary(solution) -> dict | None:
    """The power-law tail fit at the final node; None without one (m = 0 or
    tail model "none").  A row with no fit has NaN fields, written as null
    so the file stays strict JSON."""
    final = solution.final_state
    bank = final.mode_bank_carry
    if bank is None:
        return None
    _, fit = wick_square_renormalized(
        float(solution.scale_factor[-1]), bank, bank.chi, final.params,
        final.wick_cfg, detail=True,
    )
    if fit is None:
        return None
    out = dict(
        C=fit.coefficient, p_raw=fit.p_raw, p_used=fit.p_used,
        coherent=fit.coherent, ok=fit.ok,
    )
    return {key: None if math.isnan(value) else value for key, value in out.items()}


def write_summary(
    path, config, constraint_rep, solution, term_report, error: str | None = None
) -> None:
    payload = dict.fromkeys(("termination", "picard", "tail_fit", "series"))
    payload.update(config=config, constraint=constraint_rep, error=error)
    if term_report is not None:
        payload["termination"] = {
            "reason": term_report.reason,
            "exit_code": term_report.exit_code,
            "tau_stop": term_report.tau_stop,
            "diagnostics": term_report.diagnostics,
        }
    if solution is not None:
        payload["picard"] = [r.as_dict() for r in solution.reports]
        payload["tail_fit"] = _tail_summary(solution)
        payload["series"] = {
            "n_nodes": int(solution.taus.size),
            "tau_final": float(solution.taus[-1]),
            "hubble_final": float(solution.hubble[-1]),
            "scale_factor_final": float(solution.scale_factor[-1]),
            "wick_square_final": float(solution.wick_square[-1]),
            "segments": len(solution.reports),
        }
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def solve_and_write(config: dict, built, out_dir: Path, finish=None, **solve_kwargs):
    """Solve a built config; write out_dir/solution.csv and summary.json.

    finish(solution), when given, runs before the files are written.  A
    RUN_ERRORS error of the solve, finish or CSV leaves summary.json with the
    error and no termination, and propagates.  solve_kwargs go to
    continue_maximal (resume and segment callback).
    """
    params, initial, wick_cfg, solver_cfg, profile, constraint_rep = built
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.json"
    try:
        solution, term = continue_maximal(
            initial, config["horizon"], params, wick_cfg, solver_cfg,
            profile=profile, **solve_kwargs,
        )
        if finish is not None:
            finish(solution)
        write_solution_csv(out_dir / "solution.csv", solution, config)
    except RUN_ERRORS as err:
        write_summary(
            summary_path, config, constraint_rep, None, None, error=str(err)
        )
        raise
    write_summary(summary_path, config, constraint_rep, solution, term)
    return solution, term


def _resume_kwargs(path, horizon: float, built) -> dict:
    """continue_maximal's resume argument: the carry of the checkpoint at
    path, with its reports and bounds, which must continue the run that the
    built config starts."""
    params, initial, wick_cfg, _, profile = built[:5]
    try:
        carry, _, _, horizon_ck = load_checkpoint(path)
        check_resume(carry, initial_segment_state(initial, params, wick_cfg, profile))
    # TypeError: a record field of the wrong JSON type
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise ConfigError(f"cannot resume from {path}: {err}") from err
    if horizon_ck != horizon:
        raise ConfigError(
            f"checkpoint horizon {horizon_ck!r} differs from"
            f" config horizon {horizon!r}"
        )
    return {"resume_from": carry}


def _run_failed(err: Exception) -> int:
    """Report a run's domain or file-writing error; its exit code, 20."""
    log.error("run failed: %s", err)
    print(f"run failed: {err}", file=sys.stderr)
    return 20


def cmd_run(args) -> int:
    try:
        config = parse_config(args.config)
        built = build_run(config)
        horizon = config["horizon"]
        solve_kwargs = {}
        if args.resume:
            solve_kwargs = _resume_kwargs(args.resume, horizon, built)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or config.get("out_dir") or ".")

    written = None  # what the checkpoint file holds, as save_checkpoint says
    run_log = finish = None
    if args.checkpoint:
        def callback(log):
            nonlocal written, run_log
            run_log = log
            if log.segments % args.checkpoint_every == 0:
                written = save_checkpoint(args.checkpoint, log, horizon, written)

        def finish(solution):
            # run_log is None when no segment was solved
            final_log = run_log or RunLog(solution.final_state)
            save_checkpoint(args.checkpoint, final_log, horizon, written)

        solve_kwargs["segment_callback"] = callback

    try:
        solution, term = solve_and_write(config, built, out_dir, finish, **solve_kwargs)
    except RUN_ERRORS as err:
        return _run_failed(err)
    print(
        f"{term.reason} tau_stop={term.tau_stop!r} nodes={solution.taus.size}"
        f" -> {out_dir / 'solution.csv'}"
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


def _sweep_one(name: str, config: dict, out_dir: Path) -> dict:
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row["config"] = name
    for key in ("mass", "Lambda_tilde", "horizon"):
        row[key] = repr(config[key])
    try:
        built = build_run(config)
        row["H0"] = repr(built[1].hubble0)
        solution, term = solve_and_write(config, built, out_dir / name)
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
    except (ConfigError, *RUN_ERRORS) as err:
        row["status"] = "failed"
        row["error"] = str(err).replace("\n", " ").replace(",", ";")
    return row


def _collect_sweep_configs(target: str) -> list[tuple[str, dict]]:
    path = Path(target)
    if path.is_dir():
        entries = [
            (child.stem, parse_config(child)) for child in sorted(path.glob("*.json"))
        ]
    else:
        raw = _read_json(path)
        if not isinstance(raw, list):
            raise ParseError(f"{path}: sweep file must hold a JSON list")
        entries = []
        for index, item in enumerate(raw):
            if isinstance(item, str):
                child = (path.parent / item).resolve()
                entries.append((Path(item).stem, parse_config(child)))
            elif isinstance(item, dict):
                origin = f"{path}[{index}]"
                entries.append((f"run_{index:03d}", parse_config_mapping(item, origin)))
            else:
                raise ParseError(f"{path}[{index}]: entries must be paths or objects")
    # each entry writes <out>/<name>/, so a shared name would overwrite
    seen = set()
    for name, _ in entries:
        if name in seen:
            raise ParseError(
                f"{path}: more than one entry is named {name!r}; sweep entries"
                " need distinct names"
            )
        seen.add(name)
    return entries


def cmd_sweep(args) -> int:
    import csv
    from concurrent.futures import ThreadPoolExecutor

    try:
        entries = _collect_sweep_configs(args.target)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        return _run_failed(err)
    # one worker thread solves the entries in input order: on 2 cores a
    # second worker measured no faster (numpy holds the GIL at these array
    # sizes) and the main thread slower
    with ThreadPoolExecutor(max_workers=1) as pool:
        rows = list(pool.map(lambda entry: _sweep_one(*entry, out_dir), entries))
    aggregate = out_dir / "sweep.csv"
    try:
        with open(aggregate, "w", newline="") as handle:
            handle.write("# semiflrw sweep aggregate\n")
            # quoted where a field holds a comma, as a config's name may
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(SWEEP_COLUMNS)
            writer.writerows([row[c] for c in SWEEP_COLUMNS] for row in rows)
    except OSError as err:
        return _run_failed(err)
    print(f"{len(entries)} runs -> {aggregate}")
    return 0


def _count(text: str) -> int:
    """An argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
        "--checkpoint-every", type=_count, default=1, metavar="K",
        help="checkpoint every K segments (default 1)",
    )
    run_p.add_argument("--resume", default=None, help="resume from checkpoint file")
    run_p.set_defaults(func=cmd_run)
    sweep_p = sub.add_parser("sweep", help="run many configurations")
    sweep_p.add_argument(
        "target", help="directory of *.json configs, or a JSON list file"
    )
    sweep_p.add_argument("--out", default=None, help="output directory")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def main(argv=None) -> int:
    name = os.environ.get("SEMIFLRW_LOG") or "WARNING"
    if name.upper() not in LOG_LEVELS:
        print(
            f"config error: SEMIFLRW_LOG={name!r} is not a level name;"
            f" use one of {', '.join(LOG_LEVELS)}", file=sys.stderr,
        )
        return 2
    logging.basicConfig(level=name.upper())
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
