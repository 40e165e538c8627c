"""End-to-end tests of the batch front-end: parsing, runs, sweeps, resume."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import re
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflrw import cli
from semiflrw.core import DEFAULT_HUBBLE_CRITICAL, MAX_SEGMENT_NODES, cumulative_integral
from semiflrw.solver import SolverConfig, load_checkpoint
from semiflrw.wick import TailFit

HC = DEFAULT_HUBBLE_CRITICAL


def src_env() -> dict:
    """The environment with the tested package's source first on PYTHONPATH,
    so subprocesses import it without an install."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, semiflrw.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=src_env(), check=True,
    )
    assert proc.stdout.strip() == "[]"


# A massive library run and a massless checkpointed CLI run, then the names
# of GUARDED and of HASHLIB_IMPORTERS they loaded; then a massive checkpoint
# write, and whether that loaded _hashlib.  hashlib is not the only way in:
# numpy.random and secrets (through hmac) load _hashlib too, so a solve path
# that draws from numpy.random trips the guard with no digest computed.
GUARDED = ("_hashlib", "difflib", "concurrent.futures")
HASHLIB_IMPORTERS = ("hashlib", "hmac", "secrets", "numpy.random")
GUARD_SCRIPT = """
import json, sys
from semiflrw import InitialData, PhysicalParams, RunLog, WickConfig
from semiflrw import continue_maximal, save_checkpoint
from semiflrw.cli import main

out, config, names = sys.argv[1], sys.argv[2], sys.argv[3:]
massive, _ = continue_maximal(
    InitialData(0.0, 1.0, 0.0), 0.002, PhysicalParams(mass=1.0),
    WickConfig(k_max=10.0),
)
main(["run", config, "--out", out + "/run", "--checkpoint", out + "/run.ckpt"])
print(json.dumps([name for name in names if name in sys.modules]))
state = massive.final_state
save_checkpoint(
    out + "/massive.ckpt", RunLog(state, massive.reports, massive.segment_bounds),
    0.002,
)
print(json.dumps("_hashlib" in sys.modules))
"""


def test_only_a_massive_checkpoint_loads_openssl(tmp_path):
    # the solve path hashes nothing: OpenSSL (_hashlib) loads for the
    # digest a massive checkpoint writes, and the CLI's rare imports load
    # only in their callers
    config = write_config(tmp_path / "c.json", mass=0.0, H0=0.0, horizon=0.01)
    proc = subprocess.run(
        [
            sys.executable, "-c", GUARD_SCRIPT, str(tmp_path), config,
            *GUARDED, *HASHLIB_IMPORTERS,
        ],
        capture_output=True, text=True, env=src_env(), check=True,
    )
    loaded, hashed = map(json.loads, proc.stdout.splitlines()[-2:])
    assert not set(loaded) & set(GUARDED), (
        f"loaded on the solve path: {loaded}"
        f" (any of {HASHLIB_IMPORTERS} loads _hashlib)"
    )
    assert hashed is True
    assert (tmp_path / "run.ckpt").is_file()


def test_readme_cli_section_names_exactly_the_parser_options():
    # README's CLI code block and the paragraph after it name every option
    # of run and sweep, and each example line only its own command's, so a
    # removed flag cannot linger in the docs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1]
    block, paragraph = re.match(r"\s*```sh\n(.*?)```\n\n(.*?)\n\n", section, re.S).groups()
    commands = next(
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        name: {flag for action in sub._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"}
        for name, sub in commands.items()
    }
    assert set(options) == {"run", "sweep"}
    for line in block.splitlines():
        assert set(re.findall(r"--[\w-]+", line)) <= options[line.split()[1]], line
    assert set(re.findall(r"--[\w-]+", block + paragraph)) == (
        options["run"] | options["sweep"]
    )


def lam_for_root(h_root: float) -> float:
    return (2.0 * HC**2 * h_root**2 - h_root**4) / (960.0 * math.pi**2)


def write_config(path, **entries):
    path.write_text(json.dumps(entries))
    return str(path)


def run_capturing(monkeypatch, argv):
    """Run the CLI; return its exit code and the solution it computed."""
    runs = []
    solve = cli.continue_maximal

    def capturing(*args, **kwargs):
        runs.append(solve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "continue_maximal", capturing)
    code = cli.main(argv)
    return code, runs[0][0]


def assert_checkpoint_holds(path, solution):
    """The checkpoint at path reloads solution's final state bit for bit."""
    carry, reports, bounds, _ = load_checkpoint(path)
    state = solution.final_state
    for attr in ("hist_taus", "hist_hubble", "hist_a", "hist_wick"):
        assert getattr(carry, attr).tobytes() == getattr(state, attr).tobytes()
    assert carry.next_step == state.next_step
    assert carry.anchor_digest == state.anchor_digest
    assert reports == solution.reports
    assert bounds == solution.segment_bounds
    bank, bank_ref = carry.mode_bank_carry, state.mode_bank_carry
    assert (bank is None) == (bank_ref is None)
    if bank is not None:
        for name in ("momenta", "weights", "k0", "chi", "dchi"):
            assert getattr(bank, name).tobytes() == getattr(bank_ref, name).tobytes()
        assert bank.anchor_digest() == bank_ref.anchor_digest()
        assert bank.tau.hex() == bank_ref.tau.hex()


def read_csv(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    data = np.asarray(rows)
    return header, {name: data[:, j] for j, name in enumerate(header)}


class TestParsing:
    def test_minimal_config_defaults(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path / "c.json", mass=1.0, horizon=0.5))
        assert cfg["H0"] == 0.0
        assert cfg["a0"] == 1.0
        assert cfg["tau0"] == 0.0
        assert cfg["Lambda_tilde"] == 0.0
        assert cfg["hubble_critical"] == HC
        assert cfg["state"] == {"type": "vacuum"}
        assert cfg["numerical"]["k_max"] == 40.0
        assert cfg["numerical"]["n_k"] == 192
        assert "constraint" not in cfg

    def test_unknown_key_suggests_fix(self, tmp_path):
        path = write_config(tmp_path / "c.json", masss=1.0, horizon=0.5)
        with pytest.raises(cli.ParseError, match="masss.*did you mean 'mass'"):
            cli.parse_config(path)

    def test_unknown_numerical_key(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.5, numerical={"kmax": 30.0}
        )
        with pytest.raises(cli.ParseError, match="kmax.*did you mean 'k_max'"):
            cli.parse_config(path)

    def test_removed_tol_rel_key_is_rejected(self, tmp_path):
        # schema break: older configs and summary.json echoes carried it
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.5, numerical={"tol_rel": 1e-4}
        )
        with pytest.raises(cli.ParseError, match="'tol_rel'.*removed.*delete it") as err:
            cli.parse_config(path)
        # tol is the Picard tolerance, not a successor of tol_rel
        assert "did you mean" not in str(err.value)
        assert "'tol'" not in str(err.value)

    def test_removed_safety_key_is_rejected(self, tmp_path, capsys):
        # schema break: the tube step's safety factor went with the tube,
        # the substep cap and drift budget with the RK4 bank; the drift
        # tolerance, the Picard iterate cap, the scale-factor margin, the
        # panel size and the tail-fit window became constants, and the
        # grid's knee is 10 a0 m; older configs and summary.json echoes
        # carry them
        for key, value in (("safety", 0.5), ("substep_cap", 0.02),
                           ("wronskian_budget", 1e-8), ("max_iter", 40),
                           ("epsilon_scale", 1e-6), ("panel_points", 8),
                           ("wronskian_tolerance", 1e-5), ("k_knee", 0.0),
                           ("tail_fit_window", 0.25)):
            path = write_config(
                tmp_path / "c.json", mass=1.0, horizon=0.5, numerical={key: value}
            )
            with pytest.raises(cli.ParseError, match=f"'{key}'.*removed.*delete it"):
                cli.parse_config(path)
            assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
            assert f"'{key}'" in capsys.readouterr().err

    def test_missing_mass(self, tmp_path):
        path = write_config(tmp_path / "c.json", horizon=0.5)
        with pytest.raises(cli.ParseError, match="mass"):
            cli.parse_config(path)

    def test_missing_horizon(self, tmp_path):
        path = write_config(tmp_path / "c.json", mass=1.0)
        with pytest.raises(cli.ParseError, match="horizon"):
            cli.parse_config(path)

    def test_h0_and_constraint_exclusive(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.5, H0=1.0,
            constraint={"variant": "given_H0"},
        )
        with pytest.raises(cli.ParseError, match="mutually exclusive"):
            cli.parse_config(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"mass": 1.0,\n  horizon}')
        with pytest.raises(cli.ParseError, match=r"c\.json:2:"):
            cli.parse_config(path)

    def test_booleans_rejected_as_numbers(self, tmp_path):
        path = write_config(tmp_path / "c.json", mass=True, horizon=0.5)
        with pytest.raises(cli.ParseError, match="must be a number"):
            cli.parse_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(cli.ParseError, match="object"):
            cli.parse_config(path)

    def test_bad_state_type(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.5, state={"type": "squeezed"}
        )
        with pytest.raises(cli.ParseError, match="squeezed"):
            cli.parse_config(path)

    def test_gaussian_state_requires_scales(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.5,
            state={"type": "bogoliubov-gaussian", "amplitude": 0.1},
        )
        with pytest.raises(cli.ParseError, match="k_scale"):
            cli.parse_config(path)

    def test_echo_round_trips_through_parse(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.5, Lambda_tilde=2.0,
            state={"type": "bogoliubov-gaussian", "amplitude": 0.1, "k_scale": 2.0},
            numerical={"n_k": 96, "tol": 1e-9},
        )
        cfg = cli.parse_config(path)
        echoed = write_config(tmp_path / "echo.json", **cfg)
        assert cli.parse_config(echoed) == cfg


class TestValidation:
    def test_supercritical_h0_names_the_bound(self, tmp_path):
        path = write_config(tmp_path / "c.json", mass=1.0, H0=200.0, horizon=0.5)
        cfg = cli.parse_config(path)
        with pytest.raises(cli.ValidationError, match=r"\|H0\| < H_c"):
            cli.build_run(cfg)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_k", 10**20),
            ("n_k", 2**21),
            ("nodes_per_segment", 10**20 + 1),
            ("nodes_per_segment", MAX_SEGMENT_NODES + 2),
        ],
    )
    def test_grid_no_run_can_allocate_exits_2(self, tmp_path, capsys, key, value):
        # such counts once passed parsing and failed mid-run, numpy's
        # "array is too big" at 10**20; a segment's rule is a matrix of
        # nodes_per_segment^2 numbers, so its count has a bound of its own
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.5, numerical={key: value}
        )
        with pytest.raises(cli.ValidationError, match=f"{key} must .*lie in"):
            cli.build_run(cli.parse_config(path))
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_horizon_before_start(self, tmp_path):
        path = write_config(tmp_path / "c.json", mass=1.0, tau0=1.0, horizon=0.5)
        cfg = cli.parse_config(path)
        with pytest.raises(cli.ValidationError, match="horizon"):
            cli.build_run(cfg)

    def test_nan_horizon_exits_2(self, tmp_path, capsys):
        # NaN fails every comparison, so only a test that asks for
        # horizon > tau0 rejects it
        path = write_config(tmp_path / "c.json", mass=0, H0=0, horizon=math.nan)
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: horizon nan must exceed tau0" in capsys.readouterr().err

    def test_infinite_horizon_exits_2(self, tmp_path, capsys):
        # json reads the token Infinity; such a run used to end at once as
        # TimeHorizon and echo Infinity into summary.json
        path = write_config(tmp_path / "c.json", mass=0, H0=0, horizon=math.inf)
        assert "Infinity" in open(path).read()
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "must exceed tau0 0.0 and be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # json reads any integer exactly; float() of one this large overflows
        path = write_config(tmp_path / "c.json", mass=0, H0=0, horizon=10**400)
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "c.json.horizon is too large for a float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "state,message",
        [
            ({"amplitude": math.nan, "k_scale": 2.0}, "amplitude must be finite"),
            ({"amplitude": 0.1, "k_scale": 0.0}, "k_scale must be finite and > 0"),
            ({"amplitude": 0.1, "k_scale": -1.0}, "k_scale must be finite and > 0"),
            ({"amplitude": 0.1, "k_scale": math.inf}, "k_scale must be finite"),
        ],
    )
    def test_bad_gaussian_state_exits_2(self, tmp_path, capsys, state, message):
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.0005,
            state={"type": "bogoliubov-gaussian", **state},
            numerical={"k_max": 20.0, "n_k": 32},
        )
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_given_h0_without_a_real_root_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.json", mass=0.0, Lambda_tilde=-3.0, horizon=0.001,
            constraint={"variant": "given_H0"},
        )
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "constraint has no real H0: Lambda / (3 - m^2/(48 pi^2)) = -1 < 0" in err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'\xff{"mass": 0.0, "horizon": 0.01}')
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: not UTF-8 text" in err

    def test_given_h0_at_twelve_pi_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.json", mass=12.0 * math.pi, Lambda_tilde=1.0,
            horizon=0.001, constraint={"variant": "given_H0"},
        )
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: constraint does not fix H0" in err
        assert "m = 12 pi" in err

    def test_unknown_constraint_variant(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.5,
            constraint={"variant": "solve_for_everything"},
        )
        cfg = cli.parse_config(path)
        with pytest.raises(cli.ValidationError):
            cli.build_run(cfg)

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", masss=1.0, horizon=0.5)
        code = cli.main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "did you mean 'mass'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "numerical",
        [
            {"max_segments": 0},
            {"max_halvings": -1},
            {"tol": 0.0},
            # NaN fails every comparison, so only a test that asks for
            # k_max > 0 rejects it; likewise for the solver's float knobs
            {"k_max": math.nan},
            {"tol": math.nan},
            {"dt_target": math.nan},
            {"epsilon_critical": math.nan},
            # below solver.EPSILON_CRITICAL_MIN
            {"epsilon_critical": 1e-9},
            {"nodes_per_segment": 48},
            {"tol": math.inf},
        ],
    )
    def test_bad_solver_knob_exits_2(self, tmp_path, capsys, numerical):
        path = write_config(
            tmp_path / "c.json", mass=1.0, H0=1.0, horizon=0.002,
            numerical={"k_max": 20.0, "n_k": 32, **numerical},
        )
        code = cli.main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {next(iter(numerical))}" in capsys.readouterr().err


class TestRunCommand:
    def test_two_node_run_reports_its_slope(self, tmp_path):
        # the first segment ends at the wall after one step: H' at each node
        # is the equation's f = a source / (Hc^2 - H^2), bit for bit, the
        # slope of the two nodes lies between them, and t is minus the
        # segment rule's cold first row, a trapezoid step, on a
        path = write_config(
            tmp_path / "c.json", mass=0.0, H0=0.94999 * HC, horizon=1.0,
            Lambda_tilde=1.1 * HC**4 / (960.0 * math.pi**2),
            numerical={"epsilon_critical": 0.05},
        )
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 10
        _, cols = read_csv(out / "solution.csv")
        tau, a, h, dh = cols["tau"], cols["a"], cols["H"], cols["dH"]
        assert tau.size == 2
        np.testing.assert_array_equal(dh, a * cols["source"] / (HC**2 - h**2))
        slope = (h[1] - h[0]) / (tau[1] - tau[0])
        assert dh[0] < slope < dh[1]
        assert slope == pytest.approx(15968.5, rel=1e-4)
        assert cols["t"][0] == 0.0
        assert cols["t"][1] == -cumulative_integral(a, tau)[1]
        assert cols["t"][1] == pytest.approx(
            -(tau[1] - tau[0]) * (a[0] + a[1]) / 2.0, rel=1e-15
        )
        np.testing.assert_allclose(
            cols["R"], 6.0 * (2.0 * h**2 - dh / a), rtol=1e-15
        )
        assert cols["R"][1] == pytest.approx(58077.6, rel=1e-4)

    def test_de_sitter_run(self, tmp_path, capsys):
        h0 = math.sqrt(HC**2 - math.sqrt(HC**4 - 0.5 * HC**4))
        path = write_config(
            tmp_path / "c.json", mass=0.0, H0=h0,
            Lambda_tilde=lam_for_root(h0), horizon=0.005,
        )
        out = tmp_path / "out"
        code = cli.main(["run", path, "--out", str(out)])
        assert code == 0
        assert "TimeHorizon" in capsys.readouterr().out
        header, cols = read_csv(out / "solution.csv")
        assert header == list(cli.CSV_COLUMNS)
        np.testing.assert_array_equal(cols["H"], h0)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"]["reason"] == "TimeHorizon"
        assert summary["termination"]["exit_code"] == 0
        assert summary["series"]["tau_final"] == 0.005
        assert all(rep["converged"] for rep in summary["picard"])
        assert summary["tail_fit"] is None

    def test_massive_run_reports_tail_fit(self, tmp_path):
        path = write_config(tmp_path / "c.json", mass=1.0, horizon=0.002)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        fit = summary["tail_fit"]
        assert set(fit) == {"C", "p_raw", "p_used", "coherent", "ok"}
        assert fit["ok"] is True
        assert fit["p_used"] >= 3.0
        header, cols = read_csv(out / "solution.csv")
        assert cols["W_ren"][-1] == pytest.approx(-1.0 / (32 * math.pi**2), rel=1e-4)

    def test_final_row_without_a_fit_writes_null(self, tmp_path, monkeypatch):
        # a row with no fit has NaN coefficient and exponents, which strict
        # JSON cannot hold
        def no_fit(*args, detail):
            return 0.0, TailFit(math.nan, math.nan, math.nan, False, 0.0, False)

        monkeypatch.setattr(cli, "wick_square_renormalized", no_fit)
        path = write_config(tmp_path / "c.json", mass=1.0, horizon=0.002)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()

        def refuse(name):
            raise ValueError(f"{name} in summary.json")

        assert json.loads(text, parse_constant=refuse)["tail_fit"] == {
            "C": None, "p_raw": None, "p_used": None, "coherent": False, "ok": False,
        }

    def test_wall_hit_exits_10(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=0.0, H0=0.0,
            Lambda_tilde=2.0 * HC**4 / (960.0 * math.pi**2), horizon=10.0,
        )
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"]["reason"] == "HitCriticalHubble"
        _, cols = read_csv(out / "solution.csv")
        assert abs(cols["H"][-1]) >= (1.0 - 1e-6) * HC
        assert np.all(np.abs(cols["H"]) < HC)

    def test_blowup_exits_11(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=0.0, H0=60.0,
            Lambda_tilde=lam_for_root(60.0), horizon=1.0,
        )
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 11
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"]["reason"] == "ScaleFactorBlowUp"
        assert summary["termination"]["diagnostics"]["extrapolated_breach_tau"] == (
            pytest.approx(1.0 / 60.0, rel=1e-6)
        )

    def test_failed_solve_exits_20_with_the_error_in_the_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        def failing(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(cli, "continue_maximal", failing)
        path = write_config(tmp_path / "c.json", mass=0.0, horizon=0.01)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 20
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "solver exploded"
        assert summary["termination"] is None
        assert "run failed: solver exploded" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_20(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", mass=0.0, horizon=0.01)
        out = tmp_path / "out"
        out.write_text("kept")
        assert cli.main(["run", path, "--out", str(out)]) == 20
        assert "run failed: " in capsys.readouterr().err
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("every", ["1", "1000"])
    def test_unwritable_checkpoint_exits_20_with_the_error_in_the_summary(
        self, tmp_path, capsys, every
    ):
        # the first write fails: a mid-run one every segment, or the run's
        # last when no segment count reaches the interval
        path = write_config(tmp_path / "c.json", mass=0.0, horizon=0.01)
        out, ck = tmp_path / "out", tmp_path / "missing" / "ck.json"
        argv = ["run", path, "--out", str(out), "--checkpoint", str(ck)]
        assert cli.main([*argv, "--checkpoint-every", every]) == 20
        assert "run failed: " in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert str(ck) in summary["error"]
        assert summary["termination"] is None
        assert not (out / "solution.csv").exists()
        assert not ck.parent.exists()

    def test_summary_config_reproduces_run(self, tmp_path):
        path = write_config(tmp_path / "c.json", mass=1.0, horizon=0.002)
        first = tmp_path / "first"
        assert cli.main(["run", path, "--out", str(first)]) == 0
        echo = json.loads((first / "summary.json").read_text())["config"]
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(echo))
        second = tmp_path / "second"
        assert cli.main(["run", str(echo_path), "--out", str(second)]) == 0
        third = tmp_path / "third"
        assert cli.main(["run", str(echo_path), "--out", str(third)]) == 0
        first_rows = (first / "solution.csv").read_text().splitlines()
        second_rows = (second / "solution.csv").read_text().splitlines()
        assert first_rows[4:] == second_rows[4:]
        assert (second / "solution.csv").read_bytes() == (
            (third / "solution.csv").read_bytes()
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["run", "c.json", "--checkpoint", "ck.json", "--checkpoint-every", "-3"],
            ["run", "c.json", "--checkpoint", "ck.json", "--checkpoint-every", "0"],
        ],
    )
    def test_count_below_one_exits_2(self, tmp_path, capsys, flags):
        write_config(tmp_path / "c.json", mass=0.0, horizon=0.01)
        argv = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert f"must be >= 1, got {flags[-1]}" in capsys.readouterr().err
        assert not (tmp_path / "ck.json").exists()

    def test_large_gaussian_amplitude_runs_to_the_wall(self, tmp_path):
        # |A|^2 - |B|^2 misses 1 by the rounding of A = sqrt(1 + B^2),
        # 1.5e-8 here, which the normalization check allows for
        path = write_config(
            tmp_path / "c.json", mass=1.0, H0=0.0, horizon=1.0,
            state={"type": "bogoliubov-gaussian", "amplitude": 1e4, "k_scale": 2.0},
            numerical={"k_max": 20.0, "n_k": 32, "epsilon_critical": 0.09},
        )
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 10

    def test_run_takes_no_threads_flag(self, tmp_path, capsys):
        # a run and a sweep are sequential: neither takes a thread count
        path = write_config(tmp_path / "c.json", mass=0.0, horizon=0.01)
        for command in ("run", "sweep"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([command, path, "--threads", "2", "--out", str(tmp_path)])
            assert exit_info.value.code == 2
            assert "--threads" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "c.json"]

    def test_out_dir_from_config(self, tmp_path, monkeypatch):
        out = tmp_path / "from_config"
        path = write_config(
            tmp_path / "c.json", mass=0.0, horizon=0.01, out_dir=str(out)
        )
        assert cli.main(["run", path]) == 0
        assert (out / "solution.csv").exists()


GAUSSIAN = {"type": "bogoliubov-gaussian", "amplitude": 0.5, "k_scale": 3.0}


class TestCheckpointResume:
    # dt_target 1e-3 makes a run here as many segments long as its horizon
    # has milliseconds; the step controller alone takes these spans in one
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        full_cfg = write_config(
            tmp_path / "full.json", mass=1.0, horizon=0.004,
            numerical={"dt_target": 1e-3},
        )
        part_cfg = write_config(
            tmp_path / "part.json", mass=1.0, horizon=0.004,
            numerical={"dt_target": 1e-3, "max_segments": 2},
        )
        full_out = tmp_path / "full_out"
        assert cli.main(["run", full_cfg, "--out", str(full_out)]) == 0

        ck = tmp_path / "ck.json"
        part_out = tmp_path / "part_out"
        code = cli.main(
            ["run", part_cfg, "--out", str(part_out), "--checkpoint", str(ck)]
        )
        assert code == 20
        assert ck.exists()

        res_out = tmp_path / "res_out"
        code = cli.main(
            ["run", full_cfg, "--out", str(res_out), "--resume", str(ck)]
        )
        assert code == 0
        assert (res_out / "solution.csv").read_bytes() == (
            (full_out / "solution.csv").read_bytes()
        )

    def test_resume_horizon_mismatch_exits_2(self, tmp_path, capsys):
        cfg_a = write_config(
            tmp_path / "a.json", mass=0.0, horizon=0.01,
            numerical={"dt_target": 1e-3, "max_segments": 2},
        )
        ck = tmp_path / "ck.json"
        cli.main(["run", cfg_a, "--out", str(tmp_path / "a_out"),
                  "--checkpoint", str(ck)])
        cfg_b = write_config(tmp_path / "b.json", mass=0.0, horizon=0.02)
        code = cli.main(["run", cfg_b, "--out", str(tmp_path / "b_out"),
                         "--resume", str(ck)])
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    def test_checkpoint_every_reduces_writes(self, tmp_path, monkeypatch):
        saves = []
        save = cli.save_checkpoint

        def counted(path, *args):
            saves.append(path)
            return save(path, *args)

        monkeypatch.setattr(cli, "save_checkpoint", counted)
        cfg = write_config(
            tmp_path / "c.json", mass=0.0, horizon=0.01,
            numerical={"dt_target": 1e-3},
        )
        ck = tmp_path / "ck.json"
        out = tmp_path / "out"
        code = cli.main(
            ["run", cfg, "--out", str(out),
             "--checkpoint", str(ck), "--checkpoint-every", "3"]
        )
        assert code == 0
        segments = json.loads((out / "summary.json").read_text())["series"][
            "segments"
        ]
        # one save every third segment, plus the final one
        assert len(saves) == segments // 3 + 1
        assert set(saves) == {str(ck)}
        _, reports, _, horizon = load_checkpoint(ck)
        assert horizon == 0.01
        assert len(reports) == segments

    @pytest.mark.parametrize("every", [1, 3])
    def test_appended_checkpoint_reloads_the_final_state(
        self, tmp_path, monkeypatch, every
    ):
        cfg = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.01,
            numerical={"dt_target": 1e-3},
        )
        ck = tmp_path / "ck.json"
        code, solution = run_capturing(
            monkeypatch,
            ["run", cfg, "--out", str(tmp_path / "out"), "--checkpoint", str(ck),
             "--checkpoint-every", str(every)],
        )
        assert code == 0
        segments = len(solution.reports)
        # at every = 3 the final write then appends segments of its own
        assert segments > 3 and segments % 3 != 0
        # one line starts the file, each later write appends one; the final
        # write appends nothing when the last record already holds the end
        assert len(ck.read_text().splitlines()) == math.ceil(segments / every)
        assert_checkpoint_holds(ck, solution)

    def test_torn_last_line_loads_the_previous_record(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.01,
            numerical={"dt_target": 1e-3},
        )
        full_out = tmp_path / "full_out"
        ck = tmp_path / "ck.json"
        assert cli.main(
            ["run", cfg, "--out", str(full_out), "--checkpoint", str(ck)]
        ) == 0
        lines = ck.read_text().splitlines(keepends=True)
        intact = tmp_path / "intact.json"
        intact.write_text("".join(lines[:3]))
        # a write cut off mid-way through the fourth line
        torn = "".join(lines[:3]) + lines[3][: len(lines[3]) // 2]
        ck.write_text(torn)
        carry, reports, bounds, _ = load_checkpoint(ck)
        carry_ref, reports_ref, bounds_ref, _ = load_checkpoint(intact)
        assert len(reports) == 3
        assert reports == reports_ref
        assert bounds == bounds_ref
        assert carry.hist_hubble.tobytes() == carry_ref.hist_hubble.tobytes()
        assert carry.mode_bank_carry.chi.tobytes() == (
            carry_ref.mode_bank_carry.chi.tobytes()
        )

        res_out = tmp_path / "res_out"
        assert cli.main(["run", cfg, "--out", str(res_out), "--resume", str(ck)]) == 0
        for name in ("solution.csv", "summary.json"):
            assert (res_out / name).read_bytes() == (full_out / name).read_bytes()

        # a cut line followed by its newline is no torn append but an error
        ck.write_text(torn + "\n")
        with pytest.raises(ValueError, match="corrupt checkpoint line"):
            load_checkpoint(ck)
        # nor is a file that lost a record readable: the first line holds
        # tau0 and the first segment, n nodes, and each later one n - 1
        n = SolverConfig().nodes_per_segment
        ck.write_text(lines[0] + lines[2])
        with pytest.raises(
            ValueError, match=f"starts at node {2 * n - 1}, not at the end of"
            f" the history read so far, node {n}",
        ):
            load_checkpoint(ck)

    def test_duplicated_record_is_refused(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.01,
            numerical={"dt_target": 1e-3, "k_max": 20.0, "n_k": 32},
        )
        ck = tmp_path / "ck.json"
        assert cli.main(
            ["run", cfg, "--out", str(tmp_path / "a_out"), "--checkpoint", str(ck)]
        ) == 0
        lines = ck.read_text().splitlines(keepends=True)
        last = json.loads(lines[-1])
        end = last["start"] + len(last["history"]["taus"])
        # the copy restarts inside the history; its reports and bounds
        # would be counted twice
        ck.write_text("".join(lines + lines[-1:]))
        with pytest.raises(
            ValueError,
            match=f":{len(lines) + 1}: record starts at node {last['start']}, not at"
            f" the end of the history read so far, node {end}",
        ):
            load_checkpoint(ck)
        out = tmp_path / "b_out"
        code = cli.main(["run", cfg, "--out", str(out), "--resume", str(ck)])
        assert code == 2
        assert f"config error: cannot resume from {ck}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["same", "new"])
    def test_resume_checkpoints_stay_loadable(self, tmp_path, monkeypatch, target):
        full_cfg = write_config(
            tmp_path / "full.json", mass=1.0, horizon=0.01,
            numerical={"dt_target": 1e-3},
        )
        part_cfg = write_config(
            tmp_path / "part.json", mass=1.0, horizon=0.01,
            numerical={"dt_target": 1e-3, "max_segments": 2},
        )
        full_out = tmp_path / "full_out"
        code, full = run_capturing(
            monkeypatch, ["run", full_cfg, "--out", str(full_out)]
        )
        assert code == 0
        ck = tmp_path / "ck.json"
        assert cli.main(
            ["run", part_cfg, "--out", str(tmp_path / "part_out"),
             "--checkpoint", str(ck)]
        ) == 20
        res_ck = ck if target == "same" else tmp_path / "res_ck.json"
        res_out = tmp_path / "res_out"
        code, resumed = run_capturing(
            monkeypatch,
            ["run", full_cfg, "--out", str(res_out), "--resume", str(ck),
             "--checkpoint", str(res_ck)],
        )
        assert code == 0
        assert (res_out / "solution.csv").read_bytes() == (
            (full_out / "solution.csv").read_bytes()
        )
        assert_checkpoint_holds(res_ck, resumed)
        assert_checkpoint_holds(res_ck, full)
        if target == "new":
            carry, reports, _, _ = load_checkpoint(ck)
            assert len(reports) == 2
            assert carry.hist_taus.size < full.taus.size

    def test_appended_records_do_not_grow_with_the_history(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", mass=0.0, horizon=0.05,
            numerical={"dt_target": 1e-3},
        )
        ck = tmp_path / "ck.json"
        out = tmp_path / "out"
        assert cli.main(
            ["run", cfg, "--out", str(out), "--checkpoint", str(ck)]
        ) == 0
        series = json.loads((out / "summary.json").read_text())["series"]
        lines = ck.read_text().splitlines()
        assert series["segments"] > 20
        assert len(lines) == series["segments"]
        # each appended record holds one segment's new nodes, continuing
        # where the line before stopped
        start = len(json.loads(lines[0])["history"]["taus"])
        for line in lines[1:]:
            record = json.loads(line)
            assert record["start"] == start
            start += len(record["history"]["taus"])
            assert len(record["history"]["taus"]) <= 48
            # 4 series of at most 48 reprs (<= 24 characters and a separator)
            # plus a report: the same bound on the first segment and the last
            assert len(line) <= 4 * 48 * 26 + 1024
        assert start == series["n_nodes"]

    def test_appended_records_omit_the_fixed_bank_arrays(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.01,
            numerical={"dt_target": 1e-3},
        )
        ck = tmp_path / "ck.json"
        code, solution = run_capturing(
            monkeypatch,
            ["run", cfg, "--out", str(tmp_path / "out"), "--checkpoint", str(ck)],
        )
        assert code == 0
        records = [json.loads(line) for line in ck.read_text().splitlines()]
        assert len(records) == len(solution.reports) > 1
        # what tau0 fixes is in the header only; every record holds the
        # modes and no copy of the anchors, the carried a or the bank time
        assert "bank_anchor" not in records[0]
        assert set(records[0]["wick"]) == {"k_max", "n_k", "tail_model"}
        # a report is stored as its fields; the rest follows from them
        assert all(
            set(report) == {"residuals", "tol", "halvings"}
            for record in records for report in record["reports"]
        )
        for record in records:
            assert set(record["bank"]) == {"chi_re", "chi_im", "dchi_re", "dchi_im"}
            assert "a_carry" not in record
        for record in records[1:]:
            assert set(record) == {
                "start", "history", "reports", "segment_bounds", "next_step", "bank"
            }
        assert_checkpoint_holds(ck, solution)

    @pytest.mark.parametrize(
        "damage,error",
        [
            ("list_record", ValueError),
            ("text_start", ValueError),
            ("negative_start", ValueError),
            ("history_not_object", TypeError),
        ],
    )
    def test_resume_from_malformed_record_exits_2(
        self, tmp_path, capsys, damage, error
    ):
        cfg = write_config(
            tmp_path / "c.json", mass=0.0, horizon=0.01,
            numerical={"dt_target": 1e-3, "max_segments": 2},
        )
        ck = tmp_path / "ck.json"
        cli.main(["run", cfg, "--out", str(tmp_path / "a_out"),
                  "--checkpoint", str(ck)])
        lines = ck.read_text().splitlines(keepends=True)
        if damage == "list_record":
            lines.append("[1]\n")
        else:
            field, value = {
                "text_start": ("start", "x"),
                "negative_start": ("start", -1),
                "history_not_object": ("history", 5),
            }[damage]
            lines[0] = json.dumps({**json.loads(lines[0]), field: value}) + "\n"
        ck.write_text("".join(lines))
        with pytest.raises(error):
            load_checkpoint(ck)
        code = cli.main(["run", cfg, "--out", str(tmp_path / "b_out"),
                         "--resume", str(ck)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: cannot resume from {ck}" in err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("taus", "0.005"),
            ("hubble", None),
            ("a", True),
            ("wick", 10**400),
            ("segment_bounds", "0.0"),
            ("next_step", None),
            ("chi_re", "1.0"),
            ("dchi_im", None),
        ],
        ids=["taus-str", "hubble-null", "a-bool", "wick-huge", "bounds-str",
             "next_step-null", "chi_re-str", "dchi_im-null"],
    )
    def test_resume_from_a_value_that_is_not_a_number_exits_2(
        self, tmp_path, capsys, field, value
    ):
        # a numeric string, null, a bool or an integer past the float range
        # in the last record is named with its line, not carried into the
        # solve
        cfg = write_config(
            tmp_path / "c.json", mass=1.0, horizon=0.01,
            numerical={"dt_target": 1e-3, "max_segments": 2, "k_max": 20.0, "n_k": 32},
        )
        ck = tmp_path / "ck.json"
        cli.main(["run", cfg, "--out", str(tmp_path / "a_out"),
                  "--checkpoint", str(ck)])
        lines = ck.read_text().splitlines(keepends=True)
        record = json.loads(lines[-1])
        if field in record["history"]:
            record["history"][field][-1] = value
        elif field in record["bank"]:
            record["bank"][field][0] = value
        else:
            record[field][0] = value
        lines[-1] = json.dumps(record) + "\n"
        ck.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"{ck}:{len(lines)}: .*not a finite number"):
            load_checkpoint(ck)
        out = tmp_path / "b_out"
        code = cli.main(["run", cfg, "--out", str(out), "--resume", str(ck)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: cannot resume from {ck}: {ck}:{len(lines)}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("mass", [0.0, 1.0])
    @pytest.mark.parametrize("damage", ["empty_history", "ragged_history"])
    def test_resume_from_malformed_history_exits_2(
        self, tmp_path, capsys, mass, damage
    ):
        cfg = write_config(
            tmp_path / "c.json", mass=mass, horizon=0.01,
            numerical={"dt_target": 1e-3, "max_segments": 2, "k_max": 20.0, "n_k": 32},
        )
        ck = tmp_path / "ck.json"
        cli.main(["run", cfg, "--out", str(tmp_path / "a_out"),
                  "--checkpoint", str(ck)])
        lines = ck.read_text().splitlines(keepends=True)
        first = json.loads(lines[0])
        if damage == "empty_history":
            # the header alone, with no nodes
            first["history"] = {key: [] for key in first["history"]}
            lines = [json.dumps(first) + "\n"]
        else:
            # one node short of W: the records still chain on tau
            first["history"]["wick"].pop()
            lines[0] = json.dumps(first) + "\n"
        ck.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"{ck}: the history must hold"):
            load_checkpoint(ck)
        out = tmp_path / "b_out"
        code = cli.main(["run", cfg, "--out", str(out), "--resume", str(ck)])
        assert code == 2
        assert f"config error: cannot resume from {ck}" in capsys.readouterr().err
        assert not out.exists()

    def _cut_checkpoint(self, tmp_path):
        """The config path, checkpoint path and records of a two-segment
        checkpoint, one line per segment."""
        cfg = write_config(
            tmp_path / "c.json", mass=0.0, H0=5.0, horizon=0.01,
            numerical={"dt_target": 1e-3, "max_segments": 2},
        )
        ck = tmp_path / "ck.json"
        cli.main(["run", cfg, "--out", str(tmp_path / "a_out"),
                  "--checkpoint", str(ck)])
        return cfg, ck, [json.loads(line) for line in ck.read_text().splitlines()]

    def _assert_refused(self, tmp_path, capsys, cfg, ck, records, line, match):
        ck.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(ValueError, match=f"{ck}:{line}: {match}"):
            load_checkpoint(ck)
        out = tmp_path / "b_out"
        code = cli.main(["run", cfg, "--out", str(out), "--resume", str(ck)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: cannot resume from {ck}: {ck}:{line}: " in err
        # refused before any segment: the solve never made the directory
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage", ["last_moved", "first_moved", "last_dropped", "repeated"]
    )
    def test_resume_from_bounds_off_the_history_exits_2(
        self, tmp_path, capsys, damage
    ):
        # bounds must be history nodes from the first to the last, strictly
        # increasing; cosmological_time would refuse them only after the solve
        cfg, ck, records = self._cut_checkpoint(tmp_path)
        assert len(records) == 2
        first, last = records[0]["segment_bounds"], records[-1]["segment_bounds"]
        line, match = 2, "segment bound"
        if damage == "last_moved":
            last[-1] += 1e-9
        elif damage == "first_moved":
            first[0] = records[0]["history"]["taus"][1]
            line = 1
        elif damage == "last_dropped":
            last.pop()
            match = "the segment bounds end at node"
        else:
            last.append(last[-1])
        self._assert_refused(tmp_path, capsys, cfg, ck, records, line, match)

    @pytest.mark.parametrize(
        "next_step",
        [[0.0104], [0.0, "dt_target"], [-1e-3, "dt_target"], [1e-3, 5], 1e-3],
        ids=["no-limit", "zero-span", "negative-span", "limit-not-str", "bare-span"],
    )
    def test_resume_from_a_malformed_next_step_exits_2(
        self, tmp_path, capsys, next_step
    ):
        # only null or a [span, limit] pair with a span > 0 resumes: a short
        # pair failed to unpack, and a span <= 0 ended the run in the solve
        cfg, ck, records = self._cut_checkpoint(tmp_path)
        assert isinstance(records[-1]["next_step"], list)
        records[-1]["next_step"] = next_step
        self._assert_refused(
            tmp_path, capsys, cfg, ck, records, len(records),
            r"next_step must be null or a \[span, limit\] pair",
        )

    # a bank of 32 momenta is too coarse for a clean tail fit at some masses
    @pytest.mark.filterwarnings("ignore::semiflrw.wick.TailFitFailed")
    @settings(max_examples=20, deadline=None)
    @given(
        mass=st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=2.0)),
        h0=st.floats(min_value=-5.0, max_value=5.0),
        every=st.integers(min_value=1, max_value=3),
        cut=st.integers(min_value=1, max_value=4),
        amplitude=st.one_of(st.none(), st.floats(min_value=-2.0, max_value=2.0)),
    )
    # the step controller sets the span, so the proposal the checkpoint
    # carries matters; dt_target does wherever |H0| is small
    @example(mass=1.0, h0=5.0, every=2, cut=3, amplitude=None)
    @example(mass=1.0, h0=5.0, every=1, cut=2, amplitude=0.5)
    def test_resume_is_bit_exact(
        self, tmp_path_factory, mass, h0, every, cut, amplitude
    ):
        tmp = tmp_path_factory.mktemp("resume")
        numerical = {"dt_target": 2e-3, "k_max": 20.0, "n_k": 32}
        config = {"mass": mass, "H0": h0, "horizon": 0.01}
        # a massless run has no modes to put in a Bogoliubov state
        if amplitude is not None and mass > 0.0:
            config["state"] = {
                "type": "bogoliubov-gaussian", "amplitude": amplitude, "k_scale": 3.0
            }
        full = write_config(tmp / "full.json", **config, numerical=numerical)
        part = write_config(
            tmp / "part.json", **config,
            numerical={**numerical, "max_segments": cut},
        )
        ck = tmp / "ck.json"
        # at least five segments: every cut leaves some to resume
        assert cli.main(
            ["run", part, "--out", str(tmp / "part"), "--checkpoint", str(ck),
             "--checkpoint-every", str(every)]
        ) == 20
        assert cli.main(["run", full, "--out", str(tmp / "full")]) == 0
        assert cli.main(
            ["run", full, "--out", str(tmp / "res"), "--resume", str(ck)]
        ) == 0
        for name in ("solution.csv", "summary.json"):
            assert (tmp / "res" / name).read_bytes() == (
                (tmp / "full" / name).read_bytes()
            )

    @pytest.mark.parametrize(
        "written,resumed,differs",
        [
            # a massless checkpoint has no mode bank for a massive run
            ({"mass": 0.0, "H0": 0.0}, {"mass": 1.0, "H0": 0.0}, "mass 0.0"),
            ({"mass": 1.0, "H0": 5.0}, {"mass": 2.0, "H0": 5.0}, "mass 1.0"),
            (
                {"mass": 1.0, "H0": 5.0},
                {"mass": 1.0, "a0": 2.0, "H0": 7.0},
                "initial data",
            ),
            # the physical parameters the checkpoint's header holds
            (
                {"mass": 0.0, "H0": 5.0},
                {"mass": 0.0, "H0": 5.0, "Lambda_tilde": 1000.0},
                "cosmological_constant 0.0 differs from the config's 1000.0",
            ),
            (
                {"mass": 0.0, "H0": 5.0},
                {"mass": 0.0, "H0": 5.0, "hubble_critical": 100.0},
                "hubble_critical",
            ),
            (
                {"mass": 1.0, "H0": 5.0},
                {"mass": 1.0, "H0": 5.0, "lambda_len": 2.0},
                "length_scale",
            ),
            # the state and the Wick settings
            (
                {"mass": 1.0, "H0": 5.0},
                {"mass": 1.0, "H0": 5.0, "state": GAUSSIAN},
                "vacuum state differs from the config's Bogoliubov state",
            ),
            (
                {"mass": 1.0, "H0": 5.0, "state": GAUSSIAN},
                {"mass": 1.0, "H0": 5.0, "state": {**GAUSSIAN, "amplitude": 0.6}},
                "Bogoliubov state differs from the config's Bogoliubov state",
            ),
            (
                {"mass": 1.0, "H0": 5.0},
                {"mass": 1.0, "H0": 5.0, "numerical": {"tail_model": "none"}},
                "tail_model 'power-fit' differs from the config's 'none'",
            ),
            (
                {"mass": 1.0, "H0": 5.0},
                {"mass": 1.0, "H0": 5.0, "numerical": {"n_k": 96}},
                "n_k 192 differs from the config's 96",
            ),
        ],
    )
    def test_resume_under_another_run_exits_2(
        self, tmp_path, capsys, written, resumed, differs
    ):
        cut = write_config(
            tmp_path / "cut.json", horizon=0.3, numerical={"max_segments": 1},
            **written,
        )
        ck = tmp_path / "ck.json"
        assert cli.main(["run", cut, "--out", str(tmp_path / "cut_out"),
                         "--checkpoint", str(ck)]) == 20
        cfg = write_config(tmp_path / "c.json", horizon=0.3, **resumed)
        out = tmp_path / "out"
        code = cli.main(["run", cfg, "--out", str(out), "--resume", str(ck)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: cannot resume from {ck}: the checkpoint's" in err
        assert differs in err
        assert not out.exists()

    def test_resume_from_version_2_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", mass=0.0, horizon=0.01,
            numerical={"dt_target": 1e-3, "max_segments": 2},
        )
        ck = tmp_path / "ck.json"
        cli.main(["run", cfg, "--out", str(tmp_path / "a_out"),
                  "--checkpoint", str(ck)])
        lines = ck.read_text().splitlines(keepends=True)
        lines[0] = json.dumps({**json.loads(lines[0]), "version": 2}) + "\n"
        ck.write_text("".join(lines))
        code = cli.main(["run", cfg, "--out", str(tmp_path / "b_out"),
                         "--resume", str(ck)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: cannot resume from {ck}" in err
        assert "version 2" in err and "rerun" in err

    def test_resume_from_version_1_checkpoint_exits_2(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        # the whole-history format of earlier releases, at tau0
        old.write_text(json.dumps({
            "version": 1, "tau_horizon": 0.01,
            "initial": {"tau0": 0.0, "a0": 1.0, "hubble0": 0.0},
            "history": {"taus": [0.0], "hubble": [0.0], "a": [1.0], "wick": [0.0]},
            "a_carry": 1.0, "anchor_digest": None, "bank": None,
            "reports": [], "segment_bounds": [0.0],
        }))
        with pytest.raises(ValueError, match="version 1.*rerun"):
            load_checkpoint(old)
        cfg = write_config(tmp_path / "c.json", mass=0.0, horizon=0.01)
        code = cli.main(
            ["run", cfg, "--out", str(tmp_path / "out"), "--resume", str(old)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "version 1" in err


class TestStepLog:
    def run_logged(self, tmp_path, caplog, name, level, **config):
        """Run a config at a log level; return the limit named per segment
        and the bytes of solution.csv and summary.json."""
        caplog.clear()
        caplog.set_level(level, logger="semiflrw")
        path = write_config(tmp_path / f"{name}.json", **config)
        out = tmp_path / f"{name}_{level}"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        limits = [
            re.search(r" limit=(\w+) ", record.getMessage()).group(1)
            for record in caplog.records
            if record.getMessage().startswith("segment ")
        ]
        summary = json.loads((out / "summary.json").read_text())
        if level == logging.DEBUG:
            assert len(limits) == summary["series"]["segments"]
        outputs = [(out / f).read_bytes() for f in ("solution.csv", "summary.json")]
        return limits, outputs

    @pytest.mark.parametrize(
        "config,expected",
        [
            # the benchmark's cli_checkpoint config: H = 0, dt_target 0.1
            ({"mass": 0.0, "H0": 0.0, "horizon": 0.3}, {"dt_target"}),
            (
                {"mass": 1.0, "H0": 5.0, "horizon": 0.01,
                 "numerical": {"k_max": 20.0, "n_k": 32}},
                {"contraction", "accuracy"},
            ),
        ],
    )
    def test_debug_log_names_each_segments_limit(
        self, tmp_path, caplog, config, expected
    ):
        limits, outputs = self.run_logged(
            tmp_path, caplog, "c", logging.DEBUG, **config
        )
        assert expected & set(limits)
        assert set(limits) <= {
            "contraction", "accuracy", "growth", "denominator", "dt_target",
            "remaining",
        }
        # the log never reaches the outputs
        quiet, quiet_outputs = self.run_logged(
            tmp_path, caplog, "c", logging.WARNING, **config
        )
        assert quiet == []
        assert quiet_outputs == outputs


class TestConstraintVariants:
    def test_given_h0_massless(self, tmp_path):
        lam = 3.0 * 40.0**2
        path = write_config(
            tmp_path / "c.json", mass=0.0, Lambda_tilde=lam, horizon=0.001,
            constraint={"variant": "given_H0", "sign": 1.0},
        )
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constraint"]["variant"] == "given_H0"
        assert summary["constraint"]["H0"] == pytest.approx(40.0, rel=1e-12)
        _, cols = read_csv(out / "solution.csv")
        assert cols["H"][0] == pytest.approx(40.0, rel=1e-12)

    def test_given_h0_massive_balances_constraint(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=1.0, Lambda_tilde=10.0, horizon=0.0005,
            constraint={"variant": "given_H0", "sign": -1.0},
        )
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        rep = json.loads((out / "summary.json").read_text())["constraint"]
        assert rep["H0"] < 0.0
        assert 3.0 * rep["H0"] ** 2 == pytest.approx(
            rep["rho0"] + rep["Lambda"], rel=1e-10
        )

    @pytest.mark.parametrize(
        "mass,lam,hubble0",
        [
            # the fixed-point iteration of earlier releases did not settle here
            (35.0, 10.0, 4.913551342282575),
            # above m = 12 pi a negative Lambda has a real root
            (40.0, -10.0, 5.147717552009609),
        ],
    )
    def test_given_h0_closed_form_runs(self, tmp_path, mass, lam, hubble0):
        path = write_config(
            tmp_path / "c.json", mass=mass, Lambda_tilde=lam, horizon=1e-4,
            constraint={"variant": "given_H0"},
        )
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        rep = json.loads((out / "summary.json").read_text())["constraint"]
        assert rep["H0"] == pytest.approx(hubble0, rel=1e-14)
        assert rep["rho0"] == pytest.approx(
            mass**2 * hubble0**2 / (48.0 * math.pi**2), rel=1e-14
        )
        _, cols = read_csv(out / "solution.csv")
        assert cols["H"][0] == rep["H0"]

    def test_solve_for_lambda_replaces_run_value(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", mass=0.0, Lambda_tilde=0.0, horizon=0.001,
            constraint={"variant": "solve_for_Lambda", "target_hubble": 5.0},
        )
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constraint"]["Lambda"] == pytest.approx(75.0, rel=1e-12)
        _, cols = read_csv(out / "solution.csv")
        assert cols["H"][0] == 5.0
        # solved Lambda feeds the source: H must move off a non-root start
        assert cols["source"][0] == pytest.approx(
            5.0**4 - 2 * HC**2 * 25.0 + 960 * math.pi**2 * 75.0, rel=1e-12
        )

    def test_radiation_offset_reported_not_evolved(self, tmp_path):
        base = write_config(
            tmp_path / "a.json", mass=0.0, Lambda_tilde=0.0, horizon=0.001, H0=5.0
        )
        offs = write_config(
            tmp_path / "b.json", mass=0.0, Lambda_tilde=0.0, horizon=0.001,
            constraint={
                "variant": "classical_radiation_offset", "target_hubble": 5.0
            },
        )
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        assert cli.main(["run", base, "--out", str(out_a)]) == 0
        assert cli.main(["run", offs, "--out", str(out_b)]) == 0
        rep = json.loads((out_b / "summary.json").read_text())["constraint"]
        assert rep["solved_value"] == pytest.approx(75.0, rel=1e-12)
        _, cols_a = read_csv(out_a / "solution.csv")
        _, cols_b = read_csv(out_b / "solution.csv")
        np.testing.assert_array_equal(cols_a["H"], cols_b["H"])


class TestBogoliubovState:
    def test_gaussian_state_shifts_wick_square(self, tmp_path):
        vac = write_config(tmp_path / "v.json", mass=1.0, horizon=0.0005)
        bog = write_config(
            tmp_path / "b.json", mass=1.0, horizon=0.0005,
            state={"type": "bogoliubov-gaussian", "amplitude": 0.2, "k_scale": 2.0},
        )
        out_v, out_b = tmp_path / "ov", tmp_path / "ob"
        assert cli.main(["run", vac, "--out", str(out_v)]) == 0
        assert cli.main(["run", bog, "--out", str(out_b)]) == 0
        _, cols_v = read_csv(out_v / "solution.csv")
        _, cols_b = read_csv(out_b / "solution.csv")
        assert cols_b["W_ren"][0] > cols_v["W_ren"][0]

    def test_massless_gaussian_state_exits_2(self, tmp_path, capsys):
        # at m = 0 W enters the trace equation only as m^2 W = 0, so the run
        # would be the vacuum's
        path = write_config(
            tmp_path / "c.json", mass=0.0, H0=5.0, horizon=0.01,
            state={"type": "bogoliubov-gaussian", "amplitude": 3.0, "k_scale": 2.0},
        )
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: bogoliubov-gaussian needs mass > 0" in err
        assert not out.exists()


class TestSweep:
    def test_directory_sweep_ordered_rows(self, tmp_path):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        for i, m in enumerate([0.5, 1.0, 2.0]):
            write_config(sweep_dir / f"m{i}.json", mass=m, horizon=0.001)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(sweep_dir), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",") == list(cli.SWEEP_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["m0", "m1", "m2"]
        assert all(r[5] == "ok" and r[7] == "0" for r in rows)
        assert (out / "m1" / "solution.csv").exists()
        assert (out / "m1" / "summary.json").exists()

    def test_name_with_a_comma_keeps_its_row_to_the_header(self, tmp_path):
        # a field that holds a comma is quoted, so every row has as many
        # fields as the header; other names keep their bytes
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        for name in ("a,b", "c"):
            write_config(sweep_dir / f"{name}.json", mass=0.0, horizon=0.01)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(sweep_dir), "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        rows = list(csv.reader(text.splitlines()[1:]))
        assert rows[0] == list(cli.SWEEP_COLUMNS)
        assert [len(row) for row in rows[1:]] == [len(cli.SWEEP_COLUMNS)] * 2
        assert [row[0] for row in rows[1:]] == ["a,b", "c"]
        assert text.splitlines()[2].startswith('"a,b",0.0,')
        assert text.splitlines()[3].startswith("c,0.0,")
        assert (out / "a,b" / "solution.csv").exists()

    def test_invalid_entry_fails_alone(self, tmp_path):
        listing = tmp_path / "list.json"
        listing.write_text(json.dumps([
            {"mass": 0.0, "H0": 0.0, "horizon": 0.01},
            {"mass": 1.0, "H0": 200.0, "horizon": 0.001},
            {"mass": 0.0, "H0": 0.0, "horizon": 0.02},
        ]))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(listing), "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "sweep.csv").read_text().splitlines()[2:]
        ]
        assert [r[5] for r in rows] == ["ok", "failed", "ok"]
        assert "|H0| < H_c" in ",".join(rows[1])

    def test_empty_list_writes_header_only(self, tmp_path):
        listing = tmp_path / "list.json"
        listing.write_text("[]")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(listing), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_list_of_paths_resolves_relative(self, tmp_path):
        write_config(tmp_path / "one.json", mass=0.0, horizon=0.01)
        listing = tmp_path / "list.json"
        listing.write_text(json.dumps(["one.json"]))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(listing), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert rows[0].startswith("one,")

    def test_thread_count_does_not_change_output(self, tmp_path):
        # each entry writes the bytes of a solo run, and sweep.csv repeats
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        for i, m in enumerate([0.5, 1.0, 2.0]):
            write_config(sweep_dir / f"m{i}.json", mass=m, horizon=0.001)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", str(sweep_dir), "--out", str(out_a)]) == 0
        assert cli.main(["sweep", str(sweep_dir), "--out", str(out_b)]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
        for name in ("m0", "m1", "m2"):
            solo = tmp_path / f"solo_{name}"
            cli.main(["run", str(sweep_dir / f"{name}.json"), "--out", str(solo)])
            for file in ("solution.csv", "summary.json"):
                assert (out_a / name / file).read_bytes() == (solo / file).read_bytes()

    def test_missing_target_exits_2(self, tmp_path, capsys):
        code = cli.main(["sweep", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_list_file_exits_2(self, tmp_path, capsys):
        listing = tmp_path / "list.json"
        listing.write_bytes(b'\xff[{"mass": 0.0, "horizon": 0.01}]')
        out = tmp_path / "out"
        assert cli.main(["sweep", str(listing), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {listing}: not UTF-8 text" in err
        assert not out.exists()

    def test_entries_sharing_a_name_exit_2(self, tmp_path, capsys):
        # both entries would write <out>/x/, the second over the first
        for sub, horizon in (("a", 0.01), ("b", 0.02)):
            (tmp_path / sub).mkdir()
            write_config(tmp_path / sub / "x.json", mass=0.0, horizon=horizon)
        listing = tmp_path / "list.json"
        listing.write_text(json.dumps(["a/x.json", "b/x.json"]))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(listing), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "named 'x'" in err
        assert not out.exists()

    def test_failed_solve_leaves_its_summary(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(cli, "continue_maximal", failing)
        listing = tmp_path / "list.json"
        listing.write_text(json.dumps([{"mass": 0.0, "horizon": 0.01}]))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(listing), "--out", str(out)]) == 0
        row = (out / "sweep.csv").read_text().splitlines()[2].split(",")
        assert row[5] == "failed"
        assert row[-1] == "solver exploded"
        summary = json.loads((out / "run_000" / "summary.json").read_text())
        assert summary["error"] == "solver exploded"
        assert summary["termination"] is None
        assert not (out / "run_000" / "solution.csv").exists()


    def test_entry_whose_out_is_a_file_fails_alone(self, tmp_path):
        listing = tmp_path / "list.json"
        listing.write_text(json.dumps([{"mass": 0.0, "horizon": 0.01}] * 2))
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_000").write_text("kept")
        assert cli.main(["sweep", str(listing), "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "sweep.csv").read_text().splitlines()[2:]
        ]
        assert [r[5] for r in rows] == ["failed", "ok"]
        assert "run_000" in rows[0][-1]
        assert (out / "run_000").read_text() == "kept"
        assert (out / "run_001" / "solution.csv").exists()

    def test_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        listing = tmp_path / "list.json"
        listing.write_text(json.dumps([{"mass": 0.0, "horizon": 10**400}]))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(listing), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: " in err and "horizon is too large for a float" in err
        assert not out.exists()

    @pytest.mark.parametrize("blocked", ["out", "out/sweep.csv"])
    def test_out_that_cannot_be_written_exits_20(self, tmp_path, capsys, blocked):
        # a file where the output directory goes, or a directory where the
        # aggregate goes
        listing = tmp_path / "list.json"
        listing.write_text("[]")
        (tmp_path / blocked).parent.mkdir(exist_ok=True)
        if blocked == "out":
            (tmp_path / blocked).write_text("kept")
        else:
            (tmp_path / blocked).mkdir()
        argv = ["sweep", str(listing), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 20
        assert "run failed: " in capsys.readouterr().err
        if blocked == "out":
            assert (tmp_path / "out").read_text() == "kept"


class TestLogLevel:
    @pytest.mark.parametrize("value", ["basic_format", "verbose"])
    def test_unknown_level_name_exits_2(self, tmp_path, capsys, monkeypatch, value):
        # basic_format names a format string of the logging module, not a level
        monkeypatch.setenv("SEMIFLRW_LOG", value)
        cfg = write_config(tmp_path / "c.json", mass=0.0, horizon=0.01)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: SEMIFLRW_LOG={value!r} is not a level name" in err
        assert "DEBUG, INFO, WARNING, ERROR, CRITICAL" in err
        assert not (tmp_path / "out").exists()

    def test_debug_logs_segment_lines(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", mass=0.0, H0=5.0, horizon=0.01)
        proc = subprocess.run(
            [sys.executable, "-m", "semiflrw.cli", "run", cfg, "--out",
             str(tmp_path / "out")],
            capture_output=True, text=True, env={**src_env(), "SEMIFLRW_LOG": "debug"},
        )
        assert proc.returncode == 0
        assert re.search(r"DEBUG:semiflrw\.solver:segment tau=", proc.stderr)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", mass=0.0, horizon=0.01)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "semiflrw.cli", "run", cfg, "--out", str(out)],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0
        assert "TimeHorizon" in proc.stdout
        assert (out / "solution.csv").exists()
