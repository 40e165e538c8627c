"""Solver benchmark: end-to-end metrics per workload, or a per-layer trace.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Every sample is a fresh interpreter (``bench/worker.py``), so
set-up time is the cold start a user pays on every run.  One set-up-only
process warms the file caches; then as many full samples as fit in S
seconds run one after another, and the medians are reported.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (inputs built to
call returned), ``setup_s`` (process start to inputs built), ``peak_rss_mb``
and, on its own line, ``fail_frac``.  ``--trace 1`` alternates untraced and
traced samples and reports the per-layer metrics of ``spans.LAYER_UNITS``
plus the import time and the tracing overhead.  The spans of the last
traced sample are written to ``.bench_work/spans-<workload>.jsonl``.
``--workload all`` runs every workload in turn and prefixes each metric
with its workload's name.  Why each workload exists, and why
``massless_wall`` is not among the workloads of ``BENCHMARK.json``, is set
out in ``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Allocator,
threading and interpreter variables are inherited unchanged and recorded
with every result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from spans import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

IMPORT_SAMPLES = 3
# one invocation must end within 180 s, whatever the program's speed
INVOCATION_LIMIT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
TRACE_UNITS = {
    **LAYER_UNITS,
    "semiflrw.import_s": "s",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_s": "s",
}
EXACT_UNITS = {"count", "B", "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def clock() -> float:
    # shared by all processes, so the workers' marks compare with it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Sampler:
    """Spawns workers for one workload and seed, within a time limit."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.work_dir = WORK / workload
        src = str(ROOT / "src")
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")

    def spawn(self, mode: str, trace: bool = False) -> tuple[float, list[dict], str]:
        """Run one worker; return its start time, @bench records and a
        description of how it ended when that was not a clean exit."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        if self.workload == "cli_checkpoint":
            config = workloads.checkpoint_config(self.seed)
            (self.work_dir / "config.json").write_text(json.dumps(config))
        cmd = [sys.executable, str(BENCH / "worker.py"), self.workload,
               str(self.seed), mode, str(self.work_dir)]
        if trace:
            cmd.append("--trace")
        timeout = max(5.0, INVOCATION_LIMIT_S - (clock() - self.started))
        spawned = clock()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            stdout = err.stdout.decode() if isinstance(err.stdout, bytes) else err.stdout
            return spawned, _records(stdout or ""), f"timed out after {timeout:.0f} s"
        ending = ""
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            ending = f"exit code {proc.returncode}: {tail[0]}"
        return spawned, _records(proc.stdout), ending

    def import_time(self) -> float:
        _, records, ending = self.spawn("import")
        if not records:
            raise BenchError(f"import semiflrw.cli failed ({ending})")
        return records[0]["import_s"]

    def setup_time(self) -> float:
        spawned, records, ending = self.spawn("setup")
        if not records:
            raise BenchError(f"{self.workload}: set-up failed ({ending})")
        return records[0]["built"] - spawned

    def run(self, trace: bool = False) -> dict:
        """One full sample: setup_s, run_s, peak_rss_mb, problems[, layers]."""
        spawned, records, ending = self.spawn("run", trace)
        if not records or "built" not in records[0]:
            raise BenchError(f"{self.workload}: set-up failed ({ending})")
        sample = {"setup_s": records[0]["built"] - spawned}
        if len(records) < 2:
            sample["problems"] = [f"worker ended without a result ({ending})"]
            return sample
        sample.update(records[1])
        return sample


def _records(stdout: str) -> list[dict]:
    return [json.loads(line[len("@bench "):]) for line in stdout.splitlines()
            if line.startswith("@bench ")]


def _repeat(step, deadline: float) -> list:
    """Call step() once, then again while another call as long as the
    slowest so far still ends before the deadline.  step returns a list of
    samples; a sample without run_s means a worker died, which ends it."""
    batches, longest = [], 0.0
    while True:
        begun = clock()
        batches.append(step())
        longest = max(longest, clock() - begun)
        if any("run_s" not in s for s in batches[-1]) or clock() + longest > deadline:
            return [sample for batch in batches for sample in batch]


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.4g}-{q3:.4g}"


def measure(workload: str, seed: int, seconds: int, started: float):
    """End-to-end metrics of one workload; returns (metrics, attempted,
    failed, report lines)."""
    sampler = Sampler(workload, seed, started)
    sampler.setup_time()  # warm-up: bytecode and file caches, not counted
    deadline = clock() + seconds
    samples = _repeat(lambda: [sampler.run()], deadline)
    timed = [s for s in samples if "run_s" in s]
    failed = [s for s in samples if s.get("problems")]
    values = {
        "run_s": [s["run_s"] for s in timed],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in timed if "peak_rss_mb" in s],
    }
    metrics, lines = {}, []
    for name, unit in END_TO_END_UNITS.items():
        if not values[name]:
            raise BenchError(f"{workload}: no sample measured {name}")
        metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
        lines.append(f"{workload:15s} {name:12s} {metrics[name]['value']:.4f} {unit:4s}"
                     f" {_spread(values[name])}")
    lines.append(f"{workload:15s} {'fail_frac':12s} {len(failed) / len(samples):.4f}"
                 f"      {len(failed)} of {len(samples)} runs failed")
    lines += [f"{workload:15s} FAILED: {'; '.join(s['problems'])}" for s in failed]
    return metrics, len(samples), len(failed), lines


def measure_trace(workload: str, seed: int, seconds: int, started: float):
    """Per-layer metrics of one workload from alternating untraced and
    traced samples; returns (metrics, attempted, failed, report lines)."""
    sampler = Sampler(workload, seed, started)
    sampler.setup_time()  # warm-up, not counted
    deadline = clock() + seconds
    imports = [sampler.import_time() for _ in range(IMPORT_SAMPLES)]

    def traced_run():
        sample = sampler.run(trace=True)
        sample["traced"] = True
        spans = sampler.work_dir / "spans.jsonl"
        if spans.exists():
            spans.replace(WORK / f"spans-{workload}.jsonl")
        return sample

    pairs = []

    def pair():
        # alternate which side runs first, so drift favours neither
        pairs.append(len(pairs) % 2)
        if pairs[-1]:
            return [traced_run(), sampler.run()]
        return [sampler.run(), traced_run()]

    samples = _repeat(pair, deadline)
    untraced = [s["run_s"] for s in samples if not s.get("traced") and "run_s" in s]
    traced = [s for s in samples if s.get("traced")]
    layered = [s["layers"] for s in traced if "layers" in s]
    if not untraced or not layered:
        raise BenchError(f"{workload}: no untraced and traced pair completed")
    values = {name: [layers[name] for layers in layered] for name in LAYER_UNITS}
    mismatched = [name for name, unit in LAYER_UNITS.items()
                  if unit in EXACT_UNITS and len(set(values[name])) > 1]
    if mismatched:
        for sample in traced:
            sample.setdefault("problems", []).append(
                f"counts differ between traced runs: {mismatched}")
    failed = [s for s in samples if s.get("problems")]
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(s["run_s"] for s in traced if "run_s" in s)
    values["semiflrw.import_s"] = imports
    values["trace.untraced_run_s"] = [untraced_s]
    values["trace.traced_run_s"] = [traced_s]
    values["trace.overhead_s"] = [traced_s - untraced_s]
    metrics, lines = {}, []
    for name, unit in TRACE_UNITS.items():
        value = statistics.median(values[name])
        if unit in ("count", "B"):
            value = int(value)
            shown = f"{value:d}"
        else:
            shown = f"{value:.4f}"
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{workload:15s} {name:28s} {shown:>12s} {unit}")
    lines.append(f"{workload:15s} {'trace overhead':28s} "
                 f"{(traced_s - untraced_s) / untraced_s:12.1%} of untraced run_s"
                 f" over {len(layered)} traced samples")
    lines += [f"{workload:15s} FAILED: {'; '.join(s['problems'])}" for s in failed]
    return metrics, len(samples), len(failed), lines


def environment() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "inherited": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith(("MALLOC_", "OMP_", "OPENBLAS_", "PYTHON"))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "semiflrw" / "__init__.py").is_file():
        print(f"error: no semiflrw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measure_one = measure_trace if args.trace else measure
    print("# env " + json.dumps(environment()), flush=True)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            found, n_attempted, n_failed, lines = measure_one(
                name, args.seed, args.seconds, clock()
            )
            print("\n".join(lines), flush=True)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + key: value for key, value in found.items()})
            attempted += n_attempted
            failed += n_failed
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
