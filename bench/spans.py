"""Outside-in span recorder for the traced benchmark run.

The package imports names directly (``from .modes import evolve_bank``), so
an entry point is wrapped where its caller looks it up, never where it is
defined.  Each call of a wrapped function becomes one span: name, start,
end, parent span and run id.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module whose globals the caller reads, names looked up there)
PATCH_SITES = (
    (
        "semiflrw.solver",
        (
            "solve_segment",
            "picard_solve_with_halving",
            "scale_factor_from_hubble",
            "evolve_bank",
            "wick_square_renormalized",
        ),
    ),
    ("semiflrw.fixedpoint", ("picard_solve",)),
    (
        "semiflrw.cli",
        (
            "parse_config",
            "build_run",
            "continue_maximal",
            "save_checkpoint",
            "write_solution_csv",
            "write_summary",
        ),
    ),
)

# Wrapped writers whose first argument is the path they write; the file
# size is recorded on the span.
SIZED = {"solver.save_checkpoint", "cli.write_solution_csv"}

# Per-layer metrics of the traced run, with units.  Counts and byte totals
# are exact and must repeat from run to run; times are medians.
LAYER_UNITS = {
    "solver.segments": "count",
    "solver.nodes": "count",
    "solver.segment_s": "s",
    "solver.segment_self_s": "s",
    "solver.loop_self_s": "s",
    "solver.rhs_evals": "count",
    "fixedpoint.iterates": "count",
    "fixedpoint.halvings": "count",
    "fixedpoint.rhs_useful_ratio": "ratio",
    "fixedpoint.picard_s": "s",
    "fixedpoint.picard_self_s": "s",
    "core.scale_factor_s": "s",
    "modes.evolve_calls": "count",
    "modes.evolve_s": "s",
    "wick.renorm_calls": "count",
    "wick.renorm_s": "s",
    "wick.tail_fit_failed": "count",
    "solver.checkpoint_writes": "count",
    "solver.checkpoint_s": "s",
    "solver.checkpoint_bytes": "B",
    "cli.build_s": "s",
    "cli.csv_s": "s",
    "cli.csv_bytes": "B",
    "cli.summary_s": "s",
    "trace.spans": "count",
}


def span_name(fn) -> str:
    """``<defining module>.<function>`` without the package prefix."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class SpanRecorder:
    """Spans of one run, recorded by wrapping the patch sites."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # one [name, start, end, parent, bytes] per call, in call order
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn):
        name = span_name(fn)
        sized = name in SIZED
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else None, None])
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index][1:3] = start, end
            if sized:
                spans[index][4] = os.path.getsize(args[0])
            return result

        return traced

    def install(self) -> None:
        """Wrap every patch site whose module is loaded."""
        for module_name, attrs in PATCH_SITES:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr in attrs:
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self.wrap(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and summed bytes."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, size) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[index]
            entry["bytes"] += size or 0
        return out

    def write(self, path) -> None:
        """One JSON line per span."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, size) in enumerate(self.spans):
                record = {
                    "run": self.run_id,
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if size is not None:
                    record["bytes"] = size
                handle.write(json.dumps(record) + "\n")


def layer_metrics(
    totals: dict[str, dict], nodes: int, iterates: int, halvings: int,
    tail_fit_failed: int,
) -> dict:
    """The LAYER_UNITS metrics of one traced run.

    nodes is the final history length; iterates and halvings are summed over
    the run's Picard reports.  Wrapped functions that never ran read 0.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0}

    def get(name):
        return totals.get(name, empty)

    rhs_evals = get("core.scale_factor_from_hubble")["calls"]
    picard = get("fixedpoint.picard_solve_with_halving")
    return {
        "solver.segments": get("solver.solve_segment")["calls"],
        "solver.nodes": nodes,
        "solver.segment_s": get("solver.solve_segment")["total_s"],
        "solver.segment_self_s": get("solver.solve_segment")["self_s"],
        "solver.loop_self_s": get("solver.continue_maximal")["self_s"],
        "solver.rhs_evals": rhs_evals,
        "fixedpoint.iterates": iterates,
        "fixedpoint.halvings": halvings,
        "fixedpoint.rhs_useful_ratio": iterates / rhs_evals if rhs_evals else 0.0,
        "fixedpoint.picard_s": picard["total_s"],
        # picard_solve is fixedpoint too, so only the RHS spans below it count
        # as children
        "fixedpoint.picard_self_s": picard["self_s"]
        + get("fixedpoint.picard_solve")["self_s"],
        "core.scale_factor_s": get("core.scale_factor_from_hubble")["total_s"],
        "modes.evolve_calls": get("modes.evolve_bank")["calls"],
        "modes.evolve_s": get("modes.evolve_bank")["total_s"],
        "wick.renorm_calls": get("wick.wick_square_renormalized")["calls"],
        "wick.renorm_s": get("wick.wick_square_renormalized")["total_s"],
        "wick.tail_fit_failed": tail_fit_failed,
        "solver.checkpoint_writes": get("solver.save_checkpoint")["calls"],
        "solver.checkpoint_s": get("solver.save_checkpoint")["total_s"],
        "solver.checkpoint_bytes": get("solver.save_checkpoint")["bytes"],
        "cli.build_s": get("cli.parse_config")["total_s"]
        + get("cli.build_run")["total_s"],
        "cli.csv_s": get("cli.write_solution_csv")["total_s"],
        "cli.csv_bytes": get("cli.write_solution_csv")["bytes"],
        "cli.summary_s": get("cli.write_summary")["total_s"],
        "trace.spans": sum(entry["calls"] for entry in totals.values()),
    }
