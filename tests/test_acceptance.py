"""System-level acceptance sweep: eleven numbered criteria, one line each.

Run with `pytest tests/test_acceptance.py -s -q` to see every verdict line;
without -s the lines still surface for any failing criterion.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from semiflrw import cli
from semiflrw.core import (
    DEFAULT_HUBBLE_CRITICAL,
    InitialData,
    PhysicalParams,
    segment_rule,
)
from semiflrw.fixedpoint import picard_solve
from semiflrw.modes import ModeBank, evolve_bank, wronskian_error
from semiflrw.solver import (
    SolverConfig,
    _rhs_detail,
    continue_maximal,
    initial_segment_state,
    solve_segment,
)
from semiflrw.wick import WickConfig, radial_grid, wick_integrand, wick_square_renormalized

from oracles import (
    Potential,
    evolve_mode,
    initial_energy_from_modes,
    initial_energy_integral,
    initial_mode,
    perturbative_mode,
    perturbative_orders,
)

HC = DEFAULT_HUBBLE_CRITICAL
W0 = WickConfig(k_max=40.0, n_k=192)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def lam_for_root(h_root: float) -> float:
    return (2.0 * HC**2 * h_root**2 - h_root**4) / (960.0 * math.pi**2)


@pytest.fixture(scope="module")
def sine_background():
    grid = np.linspace(0.0, 2.0, 2001)
    a = 1.0 + 0.1 * np.sin(grid)
    return grid, a, Potential.from_scale_factor(grid, a, 1.0)


@pytest.fixture(scope="module")
def k_nodes_64():
    return radial_grid(50.0, 64)


def test_criterion_01_wronskian_conservation(sine_background, k_nodes_64):
    # the bank takes one Magnus step per interval and keeps the Wronskian
    # to rounding, so the integrator's order shows on chi, not on the
    # drift: chi at tau = 2 on every fourth, every second and every node
    grid, _, pot = sine_background
    momenta, weights = k_nodes_64
    started = time.perf_counter()
    bank = ModeBank.at_initial(momenta, weights, a0=1.0, mass=1.0, tau0=0.0)
    finals = {}
    for stride in (4, 2, 1):
        chi, dchi = evolve_bank(
            bank, pot.V[::stride], pot.dV[::stride], grid[::stride]
        )
        finals[stride] = chi[-1]
    drift = float(np.max(wronskian_error(chi, dchi)))
    elapsed = time.perf_counter() - started
    err_coarse = float(np.max(np.abs(finals[4] - finals[2])))
    err_fine = float(np.max(np.abs(finals[2] - finals[1])))
    ratio = err_coarse / err_fine
    ok = drift < 1e-8 and ratio >= 8.0 and elapsed < 10.0
    _verdict(
        1,
        "wronskian conservation",
        ok,
        f"max |W - i| {drift:.3e} (< 1e-8), chi halving ratio {ratio:.1f}x"
        f" (>= 8x), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_mode_oracle_equivalence(sine_background, k_nodes_64):
    grid, _, pot = sine_background
    momenta, _ = k_nodes_64
    scaled = Potential(grid, 0.05 * pot.V, pot.freq_shift)
    omega_max = math.sqrt(50.0**2 + 1.0 + max(float(np.max(scaled.V)), 0.0))
    # the RK4 oracle's step: an oscillation cap of 0.02 / omega, and a
    # Wronskian drift of at most 1e-10 over the span at (omega h)^6 / 72 per
    # step
    step = min(0.02 / omega_max, (72.0 * 1e-10 / (2.0 * omega_max**6)) ** 0.2)
    worst = 0.0
    for k in momenta:
        traj = evolve_mode(
            initial_mode(float(k), 1.0, 1.0, 0.0), scaled, 2.0, step,
            wronskian_tol=1e-3,
        )
        oracle = perturbative_mode(float(k), scaled, 6, 2.0)
        worst = max(worst, abs(traj.chi[-1] - oracle) / abs(oracle))
    ok = worst < 1e-6
    _verdict(
        2,
        "mode oracle equivalence",
        ok,
        f"worst |evolved - series| / |chi| {worst:.3e} (< 1e-6) over"
        f" {momenta.size} k-nodes",
    )


def test_criterion_03_order_cancellations(sine_background, k_nodes_64):
    from scipy.integrate import simpson

    grid, _, pot = sine_background
    momenta, _ = k_nodes_64
    worst_zeroth = 0.0
    for k in momenta[::8]:
        k0 = math.sqrt(float(k) ** 2 + pot.freq_shift)
        chi0 = perturbative_orders(float(k), pot, 0, 2.0)[0]
        worst_zeroth = max(worst_zeroth, abs(wick_integrand(chi0, k0, 0.0)))
    worst_first = 0.0
    for k in (0.7, 2.3, 11.0):
        k0 = math.sqrt(k**2 + pot.freq_shift)
        orders = perturbative_orders(k, pot, 1, 2.0)
        v_tau = float(np.interp(2.0, grid, pot.V))
        first = 2.0 * (orders[1] * np.conj(orders[0])).real + v_tau / (4.0 * k0**3)
        etas = grid
        transform = simpson(
            np.cos(2.0 * k0 * (etas - 2.0)) * np.gradient(pot.V, etas, edge_order=2),
            x=etas,
        ) / (4.0 * k0**3)
        worst_first = max(worst_first, abs(first - transform))
    ok = worst_zeroth < 1e-15 and worst_first < 1e-8
    _verdict(
        3,
        "zeroth/first order cancellation",
        ok,
        f"zeroth residue {worst_zeroth:.3e} (< 1e-15), first-order vs cosine"
        f" transform {worst_first:.3e} (< 1e-8)",
    )


def test_criterion_04_tail_decay(sine_background):
    grid, a, pot = sine_background
    params = PhysicalParams(mass=1.0)
    tau_eval = 1.0
    sub = grid[grid <= tau_eval + 1e-12]

    def renormalized(k_max, n_k):
        cfg = WickConfig(k_max=k_max, n_k=n_k)
        momenta, weights = radial_grid(k_max, n_k)
        bank = ModeBank.at_initial(momenta, weights, a0=1.0, mass=1.0, tau0=0.0)
        chi, _ = evolve_bank(
            bank, np.interp(sub, grid, pot.V), np.interp(sub, grid, pot.dV), sub
        )
        return wick_square_renormalized(
            float(np.interp(sub[-1], grid, a)), bank, chi[-1], params, cfg, detail=True
        )

    w_base, tail_base = renormalized(40.0, 192)
    w_doubled, tail_doubled = renormalized(80.0, 384)
    rel_change = abs(w_doubled - w_base) / abs(w_base)
    p_base = tail_base.p_raw
    p_doubled = tail_doubled.p_raw
    ok = p_base >= 3.0 and p_doubled >= 3.0 and rel_change < 1e-4
    _verdict(
        4,
        "integrand tail decay",
        ok,
        f"fitted p {p_base:.2f}/{p_doubled:.2f} (>= 3.0), k_max doubling moves"
        f" W_ren by {rel_change:.3e} rel (< 1e-4)",
    )


def test_criterion_05_energy_closed_form():
    cfg = WickConfig(k_max=20.0, n_k=64)
    worst_int = 0.0
    worst_modes = 0.0
    for m, a0, da0 in itertools.product(
        (0.1, 1.0, 10.0), (0.5, 1.0, 2.0), (0.0, 1.0, 5.0)
    ):
        closed = m**2 * da0**2 / 24.0
        integral = initial_energy_integral(a0, da0, m, cfg)
        if da0 == 0.0:
            worst_int = max(worst_int, abs(integral))
        else:
            worst_int = max(worst_int, abs(integral - closed) / closed)
        grid = np.linspace(0.0, 0.5, 201)
        modes = initial_energy_from_modes(grid, a0 + da0 * grid, m, cfg)
        worst_modes = max(worst_modes, abs(modes - closed) / max(1.0, closed))
    ok = worst_int < 1e-8 and worst_modes < 1e-6
    _verdict(
        5,
        "initial energy closed form",
        ok,
        f"27-point sweep: quadrature vs m^2 da0^2/24 {worst_int:.3e} rel"
        f" (< 1e-8), mode-sum route {worst_modes:.3e} (< 1e-6)",
    )


def test_criterion_06_massless_conformal_vacuum():
    params = PhysicalParams(mass=0.0, cosmological_constant=1.0e4)
    carry = initial_segment_state(InitialData(0.0, 1.0, 20.0), params, W0)
    grid = np.linspace(0.0, 1e-3, 25)
    h_vals = 20.0 + 500.0 * grid
    rule = segment_rule(grid)
    rhs = _rhs_detail(h_vals, grid, carry, rule, rule.on_back @ carry.back[1])[0]
    integral = np.concatenate(
        ([0.0], np.cumsum(0.5 * np.diff(grid) * (h_vals[:-1] + h_vals[1:])))
    )
    a_vals = 1.0 / (1.0 - integral)
    quartic = a_vals * (
        h_vals**4 - 2.0 * HC**2 * h_vals**2 + 960.0 * math.pi**2 * 1.0e4
    ) / (HC**2 - h_vals**2)
    rhs_gap = float(np.max(np.abs(rhs / quartic - 1.0)))

    solution, report = continue_maximal(
        InitialData(0.0, 1.0, 0.0), 10.0, PhysicalParams(mass=0.0), W0,
        SolverConfig(max_segments=20000),
    )
    h_norm = float(np.max(np.abs(solution.hubble)))
    w_norm = float(np.max(np.abs(solution.wick_square)))
    ok = (
        rhs_gap < 1e-12
        and report.reason == "TimeHorizon"
        and h_norm < 1e-12
        and w_norm == 0.0
    )
    _verdict(
        6,
        "massless conformal vacuum",
        ok,
        f"RHS vs pure quartic {rhs_gap:.3e} rel (< 1e-12), Minkowski [0, 10]"
        f" sup|H| {h_norm:.3e} (< 1e-12), W_ren sup {w_norm:.1e} (== 0)",
    )


@pytest.fixture(scope="module")
def de_sitter_setup():
    lam = 0.5 * HC**4 / (960.0 * math.pi**2)
    h0 = math.sqrt(HC**2 - math.sqrt(HC**4 - 960.0 * math.pi**2 * lam))
    params = PhysicalParams(mass=0.0, cosmological_constant=lam)
    initial = InitialData(0.0, 1.0, h0)
    return params, initial, h0


def test_criterion_07_de_sitter_fixed_point(de_sitter_setup):
    params, initial, h0 = de_sitter_setup
    started = time.perf_counter()
    carry = initial_segment_state(initial, params, W0)
    one = solve_segment(carry, 1.0, SolverConfig())
    err_one = float(np.max(np.abs(one.hist_hubble - h0)))
    span = float(one.hist_taus[-1] - one.hist_taus[0])
    solution, report = continue_maximal(
        initial, 10.5 * span, params, W0, SolverConfig()
    )
    err_many = float(np.max(np.abs(solution.hubble - h0)))
    elapsed = time.perf_counter() - started
    segments = len(solution.reports)
    ok = (
        err_one < 1e-8
        and segments >= 10
        and err_many < 1e-6
        and report.reason == "TimeHorizon"
        and elapsed < 60.0
    )
    _verdict(
        7,
        "de Sitter fixed point",
        ok,
        f"one segment sup|H - H0| {err_one:.3e} (< 1e-8), {segments} segments"
        f" {err_many:.3e} (< 1e-6), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_08_singularity_detection():
    lam_wall = 1.1 * HC**4 / (960.0 * math.pi**2)
    params_wall = PhysicalParams(mass=0.0, cosmological_constant=lam_wall)
    sol_wall, rep_wall = continue_maximal(
        InitialData(0.0, 1.0, 0.0), 10.0, params_wall, W0, SolverConfig()
    )
    monotone = bool(np.all(np.diff(sol_wall.hubble) > 0.0))

    h_const = 60.0
    params_blow = PhysicalParams(
        mass=0.0, cosmological_constant=lam_for_root(h_const)
    )
    sol_blow, rep_blow = continue_maximal(
        InitialData(0.0, 1.0, h_const), 1.0, params_blow, W0, SolverConfig()
    )
    breach = rep_blow.diagnostics["extrapolated_breach_tau"]
    blow_gap = abs(breach - 1.0 / h_const)
    ok = (
        rep_wall.reason == "HitCriticalHubble"
        and monotone
        and rep_blow.reason == "ScaleFactorBlowUp"
        and blow_gap < 1e-3
    )
    _verdict(
        8,
        "singularity detection",
        ok,
        f"supercritical source: {rep_wall.reason}, H monotone {monotone};"
        f" constant-H breach predicted within {blow_gap:.1e} of 1/(a0 H)"
        f" (< 1e-3)",
    )


def test_criterion_09_picard_contraction(de_sitter_setup):
    params, initial, h0 = de_sitter_setup
    carry = initial_segment_state(initial, params, W0)
    one = solve_segment(carry, 1.0, SolverConfig())
    nodes = one.hist_taus
    span = float(nodes[-1] - nodes[0])
    delta = 0.1 * h0 * np.cos(2.0 * math.pi * (nodes - nodes[0]) / span)
    tol = 1e-10
    rule = segment_rule(nodes)
    share = rule.on_back @ carry.back[1]
    _, report, _ = picard_solve(
        np.full(nodes.size, h0),
        lambda x: (_rhs_detail(x, nodes, carry, rule, share)[0], None),
        nodes, tol=tol, max_iter=40, x0=h0 + delta,
    )
    residuals = np.asarray(report.residuals)
    decreasing = bool(np.all(np.diff(residuals[1:]) < 0.0))
    ok = (
        float(np.max(np.abs(delta))) == 0.1 * h0
        and report.converged
        and decreasing
        and residuals[-1] < 2.0 * tol
    )
    _verdict(
        9,
        "Picard contraction",
        ok,
        f"seed ||dH|| = 0.1 H0, residuals strictly decreasing from iteration 2"
        f" {decreasing}, final {residuals[-1]:.3e} (< 2 tol)",
    )


def test_criterion_10_segmentation_uniqueness():
    params = PhysicalParams(mass=0.1)
    initial = InitialData(0.0, 1.0, 0.0)
    horizon = 1e-3
    sol_one, _ = continue_maximal(
        initial, horizon, params, W0,
        SolverConfig(dt_target=horizon, nodes_per_segment=97),
    )
    sol_two, _ = continue_maximal(
        initial, horizon, params, W0,
        SolverConfig(dt_target=horizon / 2.0, nodes_per_segment=49),
    )
    segments = (len(sol_one.reports), len(sol_two.reports))
    np.testing.assert_allclose(sol_one.taus, sol_two.taus, rtol=0.0, atol=1e-15)
    gap = float(np.max(np.abs(sol_one.hubble - sol_two.hubble)))
    tol = SolverConfig().tol
    ok = segments == (1, 2) and gap < 5.0 * tol
    _verdict(
        10,
        "segmentation uniqueness",
        ok,
        f"one vs two segments {segments}, sup|dH| {gap:.3e} (< 5 tol ="
        f" {5.0 * tol:.1e})",
    )


def test_criterion_11_determinism(tmp_path):
    config = {
        "mass": 1.0,
        "H0": 0.0,
        "horizon": 0.002,
        "state": {"type": "bogoliubov-gaussian", "amplitude": 0.1, "k_scale": 2.0},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.main(["run", str(cfg_path), "--out", str(out_a)])
    code_b = cli.main(["run", str(cfg_path), "--out", str(out_b)])
    run_identical = (out_a / "solution.csv").read_bytes() == (
        (out_b / "solution.csv").read_bytes()
    ) and (out_a / "summary.json").read_bytes() == (
        (out_b / "summary.json").read_bytes()
    )

    sweep_dir = tmp_path / "configs"
    sweep_dir.mkdir()
    for i, m in enumerate((0.5, 1.0)):
        (sweep_dir / f"m{i}.json").write_text(
            json.dumps({"mass": m, "H0": 0.0, "horizon": 0.001})
        )
    # each sweep entry must write a solo run's bytes, and sweep.csv repeat
    sw_a, sw_b = tmp_path / "sw_a", tmp_path / "sw_b"
    cli.main(["sweep", str(sweep_dir), "--out", str(sw_a)])
    cli.main(["sweep", str(sweep_dir), "--out", str(sw_b)])
    sweep_identical = (sw_a / "sweep.csv").read_bytes() == (
        (sw_b / "sweep.csv").read_bytes()
    )
    for name in ("m0", "m1"):
        solo = tmp_path / f"solo_{name}"
        cli.main(["run", str(sweep_dir / f"{name}.json"), "--out", str(solo)])
        sweep_identical &= all(
            (sw_a / name / file).read_bytes() == (solo / file).read_bytes()
            for file in ("solution.csv", "summary.json")
        )
    ok = code_a == 0 and code_b == 0 and run_identical and sweep_identical
    _verdict(
        11,
        "bitwise determinism",
        ok,
        f"run CSV+summary identical across runs {run_identical}, sweep"
        f" entries identical to solo runs and sweep.csv across sweeps"
        f" {sweep_identical}",
    )
