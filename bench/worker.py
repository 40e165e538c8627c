"""One benchmark sample in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE WORK_DIR [--trace]

MODE is ``import`` (time ``import semiflrw.cli`` and exit), ``setup`` (exit
once the inputs are built) or ``run``.  ``src`` must be on PYTHONPATH.  The
worker prints ``@bench <json>`` lines: ``{"built": t}`` as soon as the
inputs are built, with t read from CLOCK_MONOTONIC, which every process on
the machine shares, then the sample's result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import warnings
from pathlib import Path

import workloads
from spans import SpanRecorder, layer_metrics


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def emit(**fields) -> None:
    print("@bench " + json.dumps(fields), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_fit_failures(caught) -> int:
    from semiflrw.wick import TailFitFailed

    return sum(issubclass(w.category, TailFitFailed) for w in caught)


def trace_result(recorder, caught, work_dir: Path, nodes: int, picard) -> dict:
    """Stop tracing, write the spans and return the per-layer metrics.

    picard holds (iterates, halvings) per segment."""
    recorder.uninstall()
    recorder.write(work_dir / "spans.jsonl")
    return layer_metrics(
        recorder.totals(),
        nodes=nodes,
        iterates=sum(iterates for iterates, _ in picard),
        halvings=sum(halvings for _, halvings in picard),
        tail_fit_failed=tail_fit_failures(caught),
    )


class SetupDone(Exception):
    """Stops the CLI once its inputs are built, in setup mode."""


def run_library(workload: str, seed: int, mode: str, work_dir: Path, trace: bool):
    import semiflrw.solver as solver

    call = workloads.library_call(workload, seed)
    emit(built=clock())
    if mode == "setup":
        return
    continue_maximal = solver.continue_maximal
    recorder = None
    if trace:
        recorder = SpanRecorder(f"{workload}/{seed}")
        recorder.install()
        continue_maximal = recorder.wrap(continue_maximal)
    # "always": the default filter reports a repeated TailFitFailed once
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            solution, report = continue_maximal(**call)
        except Exception as err:  # a raising run is a failed sample
            emit(run_s=time.perf_counter() - start, problems=[f"raised {err!r}"])
            return
        run_s = time.perf_counter() - start
    result = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "problems": workloads.check_library(workload, seed, call, solution, report),
    }
    if recorder is not None:
        result["layers"] = trace_result(
            recorder, caught, work_dir, int(solution.taus.size),
            [(r.iterates, r.halvings) for r in solution.reports],
        )
    emit(**result)


def run_cli(workload: str, seed: int, mode: str, work_dir: Path, trace: bool):
    import semiflrw.cli as cli

    out_dir = work_dir / "out"
    checkpoint = work_dir / "checkpoint.json"
    argv = ["run", str(work_dir / "config.json"), "--out", str(out_dir),
            "--checkpoint", str(checkpoint)]
    recorder = None
    if trace:
        recorder = SpanRecorder(f"{workload}/{seed}")
        recorder.install()
    built = []
    build_run = cli.build_run

    def build_run_marked(config):
        out = build_run(config)
        built.append(clock())
        emit(built=built[0])
        if mode == "setup":
            raise SetupDone
        return out

    cli.build_run = build_run_marked
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            exit_code = cli.main(argv)
        except SetupDone:
            return
        except Exception as err:  # a raising run is a failed sample
            if built:
                emit(run_s=clock() - built[0], problems=[f"raised {err!r}"])
            return
        run_s = clock() - built[0]
    result = {"run_s": run_s, "peak_rss_mb": peak_rss_mb()}
    problems, summary = workloads.check_cli(exit_code, out_dir, checkpoint)
    result["problems"] = problems
    if recorder is not None and summary is not None:
        result["layers"] = trace_result(
            recorder, caught, work_dir, summary["series"]["n_nodes"],
            [(r["iterates"], r["halvings"]) for r in summary["picard"]],
        )
    emit(**result)


def main(argv: list[str]) -> None:
    workload, seed, mode, work_dir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    trace = "--trace" in argv[4:]
    if mode == "import":
        start = time.perf_counter()
        import semiflrw.cli  # noqa: F401

        emit(import_s=time.perf_counter() - start)
    elif workload == "cli_checkpoint":
        run_cli(workload, seed, mode, work_dir, trace)
    else:
        run_library(workload, seed, mode, work_dir, trace)


if __name__ == "__main__":
    main(sys.argv[1:])
