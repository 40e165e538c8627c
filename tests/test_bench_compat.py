"""The names and calls the benchmark in bench/ relies on.

bench/ is read, never imported as a package: its modules are compiled from
source here, so no bytecode is written next to them.
"""

from __future__ import annotations

import importlib
import json
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import semiflrw
from semiflrw import cli, solver, wick

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads():
    return bench_module("workloads")


def test_every_patch_site_resolves():
    spans = bench_module("spans")
    for module_name, names in spans.PATCH_SITES:
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name)), f"{module_name}.{name}"


def test_every_patch_site_feeds_a_layer_metric():
    # a span is named after the module that defines the function, so a
    # function moved to another module still resolves at its patch site
    # while the metrics read from its span would silently read 0
    spans = bench_module("spans")
    names = [
        spans.span_name(getattr(importlib.import_module(module_name), name))
        for module_name, attrs in spans.PATCH_SITES
        for name in attrs
    ]

    def metrics(totals):
        out = spans.layer_metrics(totals, 0, 0, 0, 0)
        del out["trace.spans"]
        return out

    one = {"calls": 1, "total_s": 1.0, "self_s": 1.0, "bytes": 1}
    idle = metrics({})
    for name in names:
        assert metrics({name: one}) != idle, name
    every = metrics({name: one for name in names})
    for key in (
        "solver.segments", "solver.rhs_evals", "modes.evolve_calls",
        "wick.renorm_calls", "solver.checkpoint_writes",
    ):
        assert every[key] == 1, key


def test_worker_imports_resolve():
    # bench/worker.py counts TailFitFailed warnings and drives these calls
    assert issubclass(wick.TailFitFailed, Warning)
    for module, name in (
        (solver, "continue_maximal"), (cli, "build_run"), (cli, "main")
    ):
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"


@pytest.mark.parametrize("workload", ["massive_vacuum", "massless_wall"])
def test_library_calls_build(workloads, workload):
    call = workloads.library_call(workload, 0)
    assert call["solver_cfg"].tol > 0.0
    assert call["wick_cfg"].k_max == 40.0


@pytest.mark.parametrize("workload", ["massive_vacuum", "massless_wall"])
def test_library_outputs_pass_the_workload_check(workloads, workload):
    # the canonical seed-0 outputs the benchmark holds a run to, and the
    # checks every seed's run must pass, on two of the seeds that the
    # benchmark draws inputs from
    for seed in (0, 1, 2):
        call = workloads.library_call(workload, seed)
        solution, report = solver.continue_maximal(**call)
        problems = workloads.check_library(workload, seed, call, solution, report)
        assert problems == [], f"seed {seed}"


def test_massive_vacuum_sweep_count(workloads, sweeps):
    # bank sweeps dominate the workload's run time: a change that brings
    # sweeps back fails here before the benchmark runs
    solution, report = solver.continue_maximal(
        **workloads.library_call("massive_vacuum", 0)
    )
    assert report.reason == "TimeHorizon"
    assert len(sweeps) <= 10
    assert len(solution.reports) <= 5


def test_a_trial_builds_its_rule_once(workloads, monkeypatch):
    # every integral of a trial is a product with the rule built for its
    # nodes: on massive_vacuum seed 0 (6 trials, 69 a(H) evaluations) at
    # most the rule and its every-second-node twin per trial, and no
    # integral that builds a rule of its own (core.cumulative_integral)
    counts = {"Rule": 0, "cumulative_integral": 0}
    trials = []

    def counted(fn, name):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in counts:
        for module in (semiflrw.core, semiflrw.fixedpoint, solver, wick):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    driver = solver.picard_solve_with_halving

    def each_trial(trial, *args, **kwargs):
        def run(nodes):
            trials.append(nodes.size)
            return trial(nodes)

        return driver(run, *args, **kwargs)

    monkeypatch.setattr(solver, "picard_solve_with_halving", each_trial)
    _, report = solver.continue_maximal(**workloads.library_call("massive_vacuum", 0))
    assert report.reason == "TimeHorizon"
    assert len(trials) == 6
    assert counts["Rule"] <= 2 * len(trials)
    assert counts["cumulative_integral"] == 0


def test_massless_wall_picard_iterates(workloads):
    # every trial, a retry included, seeds from the history: the seed-0 run
    # makes 209 Picard iterates, where seeds switched off after a halving
    # and on every retry made 244 over the same segments and halvings
    solution, report = solver.continue_maximal(
        **workloads.library_call("massless_wall", 0)
    )
    assert report.reason == "HitCriticalHubble"
    assert sum(r.halvings for r in solution.reports) == 11
    assert sum(r.iterates for r in solution.reports) <= 215


def test_massless_wall_time_takes_the_segment_rule(workloads):
    # t is a's integral by the fourth-order segment rule: within 1e-9 of
    # the run's elapsed t from a composite Simpson on each segment's nodes
    # (measured 2.2e-10), where the trapezoid over the joined history was
    # 2.2e-6 off
    solution, _ = solver.continue_maximal(**workloads.library_call("massless_wall", 0))
    taus, a = solution.taus, solution.scale_factor
    reference = np.zeros(taus.size)
    ends = np.searchsorted(taus, solution.segment_bounds)
    for i, j in zip(ends[:-1], ends[1:] + 1):
        reference[i:j] = reference[i] + integrate.cumulative_simpson(
            a[i:j], x=taus[i:j], initial=0.0
        )
    t = solver.solution_diagnostics(solution)["t"]
    assert len(solution.reports) == 41
    assert np.max(np.abs(t + reference)) <= 1e-9 * reference[-1]


def test_the_trial_spans_hold_every_sweep_and_evaluation(workloads):
    # fixedpoint.picard_s is the halving driver's span: it measures the
    # whole segment trial only while every bank sweep and every a(H)
    # evaluation runs below it, and its calls count one per segment
    spans = bench_module("spans")
    recorder = spans.SpanRecorder("nesting")
    recorder.install()
    try:
        solution, report = solver.continue_maximal(
            **workloads.library_call("massive_vacuum", 0)
        )
    finally:
        recorder.uninstall()
    assert report.reason == "TimeHorizon"
    records = recorder.spans
    driver = "fixedpoint.picard_solve_with_halving"

    def under_driver(index):
        parent = records[index][3]
        while parent is not None:
            if records[parent][0] == driver:
                return True
            parent = records[parent][3]
        return False

    for name in ("modes.evolve_bank", "core.scale_factor_from_hubble"):
        inner = [i for i, record in enumerate(records) if record[0] == name]
        assert inner, name
        assert all(map(under_driver, inner)), name
    calls = sum(record[0] == driver for record in records)
    assert calls == len(solution.reports)


def test_checkpoint_config_builds(workloads):
    config = cli.parse_config_mapping(workloads.checkpoint_config(0), "bench")
    cli.build_run(config)


def test_cli_outputs_pass_the_workload_check(workloads, tmp_path):
    # the CLI workload on a short horizon: summary, CSV and checkpoint as
    # check_cli reads them
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**workloads.checkpoint_config(0), "horizon": 0.003}))
    out, ck = tmp_path / "out", tmp_path / "ck.json"
    code = cli.main(["run", str(path), "--out", str(out), "--checkpoint", str(ck)])
    problems, summary = workloads.check_cli(code, out, ck)
    assert problems == []
    assert all(
        isinstance(r["iterates"], int) and isinstance(r["halvings"], int)
        for r in summary["picard"]
    )
