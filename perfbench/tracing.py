"""Span recording around the calls into each layer, and the per-layer metrics.

The tracer replaces the module attributes that callers look up (for example
``edgeplace.pipeline.cost_descent``, which ``pipeline.solve`` calls) with
wrappers that record a span per call: name, start, end, parent span and solve
id. ``PartitionState.apply_move`` is only counted, since it runs ~27k times
per solve. Spans stay in memory until the run writes them out. ``installed``
puts every original back on exit, so a later untraced sweep runs the
program's own functions.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _swaps(args, kwargs, result):
    return {"swaps_accepted": len(kwargs["accepted_log"])}


def _commits(args, kwargs, result):
    return {"commits": len(kwargs["commit_log"])}


def _pair_noop(args, kwargs, result):
    return {"noop": result == args[1]}


def _servers_moved(args, kwargs, result):
    before = args[1].cell_to_location
    changed = before != result.cell_to_location
    return {"servers_moved": len(set(before[changed].tolist()))}


# (module, attribute, span name, post-call counter). The attribute is the one
# the caller resolves at call time, so the wrapper sits on the layer boundary.
ENTRY_POINTS = (
    ("edgeplace.harness", "generate", "generate", None),
    ("edgeplace.harness", "candidate_variant", "generate.candidate_variant", None),
    ("edgeplace.harness", "read_instance", "fileio.read_instance", _read_bytes),
    ("edgeplace.harness", "write_report", "fileio.write_report", _written_bytes),
    ("edgeplace.harness", "write_summary", "fileio.write_summary", _written_bytes),
    ("edgeplace.harness", "solve", "pipeline.solve", None),
    ("edgeplace.pipeline", "kmedian_search", "kmedian", _swaps),
    ("edgeplace.pipeline", "cost_descent", "fm", _commits),
    ("edgeplace.fm", "move_cells", "fm.move_cells", _pair_noop),
    ("edgeplace.pipeline", "relocate", "hungarian", _servers_moved),
    ("edgeplace.hungarian", "build_matrix", "hungarian.build_matrix", None),
    ("edgeplace.hungarian", "solve_matching", "hungarian.solve_matching", None),
    ("edgeplace.pipeline", "objectives", "model.objectives", None),
)


def entry_point_objects() -> dict[str, object]:
    """The objects currently bound at every traced entry point, by span name."""
    out = {}
    for module, attr, name, _ in ENTRY_POINTS:
        out[name] = getattr(importlib.import_module(module), attr)
    state = importlib.import_module("edgeplace.fm").PartitionState
    out["fm.apply_move"] = state.__dict__["apply_move"]
    return out


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "counts")

    def __init__(self, name, parent, solve):
        self.name = name
        self.parent = parent
        self.solve = solve
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.moves = 0
        self._stack: list[int] = []
        self._solves = 0
        self._solve_id = None

    def call(self, name, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        starts_solve = name == "pipeline.solve"
        if starts_solve:
            self._solve_id = self._solves
            self._solves += 1
        span = Span(name, self._stack[-1] if self._stack else -1, self._solve_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if starts_solve:
                self._solve_id = None
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point; restore the originals on exit."""
        restore = []
        try:
            for module, attr, name, counter in ENTRY_POINTS:
                owner = importlib.import_module(module)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, counter))
                restore.append((owner, attr, original))
            state = importlib.import_module("edgeplace.fm").PartitionState
            apply_move = state.__dict__["apply_move"]

            @functools.wraps(apply_move)
            def counted_apply_move(*args, **kwargs):
                self.moves += 1
                return apply_move(*args, **kwargs)

            state.apply_move = counted_apply_move
            restore.append((state, "apply_move", apply_move))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path, t0: float) -> None:
        """Spans as JSON lines, times relative to ``t0``."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                rec = {
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "solve": s.solve,
                }
                if s.counts:
                    rec["counts"] = {k: int(v) for k, v in s.counts.items()}
                f.write(json.dumps(rec) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, summed over the traced sweep, as name -> (value, unit)."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    child_time = defaultdict(float)
    for s in tracer.spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    for i, s in enumerate(tracer.spans):
        d = s.end - s.start
        total[s.name] += d
        self_time[s.name] += d - child_time[i]
        calls[s.name] += 1
        for k, v in (s.counts or {}).items():
            counts[(s.name, k)] += int(v)

    swaps = counts[("kmedian", "swaps_accepted")]
    pair_calls = calls["fm.move_cells"]
    pair_noop = counts[("fm.move_cells", "noop")]
    commits = counts[("fm", "commits")]
    return {
        "generate.s": (total["generate"] + total["generate.candidate_variant"], "s"),
        "fileio.read_instance.s": (total["fileio.read_instance"], "s"),
        "fileio.read_instance.bytes": (counts[("fileio.read_instance", "bytes")], "bytes"),
        "fileio.write_report.s": (total["fileio.write_report"] + total["fileio.write_summary"], "s"),
        "fileio.bytes_written": (
            counts[("fileio.write_report", "bytes")] + counts[("fileio.write_summary", "bytes")],
            "bytes",
        ),
        "kmedian.s": (total["kmedian"], "s"),
        "kmedian.calls": (calls["kmedian"], "count"),
        "kmedian.swaps_accepted": (swaps, "count"),
        "kmedian.s_per_swap": (_ratio(total["kmedian"], swaps), "s/swap"),
        "fm.s": (total["fm"], "s"),
        "fm.move_cells.s": (total["fm.move_cells"], "s"),
        "fm.moves": (tracer.moves, "count"),
        "fm.s_per_move": (_ratio(total["fm"], tracer.moves), "s/move"),
        "fm.pair_calls": (pair_calls, "count"),
        "fm.pair_noop": (pair_noop, "count"),
        "fm.commits": (commits, "count"),
        "fm.pair_rejected": (pair_calls - pair_noop - commits, "count"),
        "fm.useful_ratio": (_ratio(commits, pair_calls), "ratio"),
        "hungarian.s": (total["hungarian"], "s"),
        "hungarian.build_matrix.s": (total["hungarian.build_matrix"], "s"),
        "hungarian.solve_matching.s": (total["hungarian.solve_matching"], "s"),
        "hungarian.servers_moved": (counts[("hungarian", "servers_moved")], "count"),
        "model.objectives.calls": (calls["model.objectives"], "count"),
        "model.objectives.s": (total["model.objectives"], "s"),
        "pipeline.solve.s": (total["pipeline.solve"], "s"),
        "pipeline.self_s": (self_time["pipeline.solve"], "s"),
        "harness.run_sweep.s": (total["harness.run_sweep"], "s"),
        "harness.self_s": (self_time["harness.run_sweep"], "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
