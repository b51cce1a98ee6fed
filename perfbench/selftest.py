#!/usr/bin/env python3
"""Self-test of the benchmark on tiny versions of its workloads.

    python3 perfbench/selftest.py

Checks, printing one PASS/FAIL line each:

* every tiny workload runs end to end, untraced and traced, with no failed
  solve (a traced sweep whose output differs from the untraced one fails),
  reports every metric ``BENCHMARK.json`` names for that mode, and gives the
  same output digest on a second run;
* an injected invalid assignment, an injected ``nan`` objective, and a
  capped solve whose refine spread exceeds its cap are each counted as
  exactly one failed solve;
* an untraced sweep that follows a traced one runs the program's own
  functions: the span wrappers are gone, and the only hook left is the
  result collector on ``harness.solve``, which calls ``pipeline.solve``.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys

import run  # pins the thread count and puts the checkout's src on the path
from edgeplace import harness, pipeline
from edgeplace.generate import GenSpec
from edgeplace.model import Assignment, Objectives
from tracing import entry_point_objects
from workloads import N_INITIALS, WORKLOADS, gravity_grid

# With other_s = 0 and point_s = 1: two sweep points, one when traced.
SECONDS = 2.0

TINY_GEN = {
    "uniform-500": GenSpec(n_cells=40, n_candidates=10, n_servers=4, capacity=0.3, seed=7),
    "sites-250": gravity_grid(5, 1 / 5, 30, 6, 0.2),
}
TINY = {
    name: dataclasses.replace(
        wl, name=f"selftest-{name}", gen=TINY_GEN[name], point_s=1.0, other_s=0.0
    )
    for name, wl in WORKLOADS.items()
}
TINY_CAPPED = gravity_grid(6, 1 / 6, 10, 4, 0.3)
# Solves an untraced tiny run attempts: the sweep, then the capped one.
SOLVES_PER_RUN = 2 * len(harness.ALGORITHMS) + N_INITIALS


def run_tiny(wl, trace: bool, probes: int = 1) -> dict:
    return run.run_benchmark(wl, 0, SECONDS, trace, setup_probes=probes, capped_gen=TINY_CAPPED)


def declared_metrics() -> tuple[set[str], set[str]]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


class Checker:
    def __init__(self):
        self.failures = 0

    def __call__(self, label: str, ok: bool, detail: str = "") -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail and not ok else ""), flush=True)
        self.failures += not ok


def corrupting_solve(kind: str, nth: int = 2):
    """A ``harness.solve`` stand-in that corrupts the ``nth`` result, or with
    ``kind="cap"`` the first capped one."""
    original = harness.solve
    calls = 0

    def solve(instance, config):
        nonlocal calls
        result = original(instance, config)
        calls += 1
        if kind == "cap":
            if math.isinf(config.epsilon):
                return result
            refine = next(p for p in result.trace if p.name == "refine")
            kmedian = next(p for p in result.trace if p.name == "kmedian")
            refine.spread = 2.0 * (1.0 + config.epsilon) * kmedian.spread
            return result
        if calls != nth:
            return result
        if kind == "nan":
            return dataclasses.replace(result, objectives=Objectives(math.nan, result.objectives.spread))
        a = result.assignment
        cmap = a.cell_to_location.copy()
        cmap[0] = next(l for l in range(instance.n_candidates) if l not in a.server_locations)
        return dataclasses.replace(result, assignment=Assignment(a.server_locations, cmap))

    return solve


def snapshots_during(wl, trace: bool) -> list[dict]:
    """Entry-point objects seen from inside every solve of one run."""
    seen = []
    original = pipeline.random_assignment

    def probe(instance, seed):
        seen.append(entry_point_objects())
        return original(instance, seed)

    pipeline.random_assignment = probe
    try:
        run_tiny(wl, trace)
    finally:
        pipeline.random_assignment = original
    return seen


def main() -> int:
    check = Checker()
    end_to_end, per_layer = declared_metrics()

    for name, wl in TINY.items():
        plain = run_tiny(wl, False, probes=2)
        again = run_tiny(wl, False)
        traced = run_tiny(wl, True)
        expected = SOLVES_PER_RUN
        check(f"{name}: untraced run has no failed solve", plain["failed"] == 0 and plain["attempted"] == expected,
              f"{plain['failed']} of {plain['attempted']} (expected {expected}): {plain['failures'][:2]}")
        check(f"{name}: traced run has no failed solve", traced["failed"] == 0, str(traced["failures"][:2]))
        check(f"{name}: untraced metrics match BENCHMARK.json", set(plain["metrics"]) == end_to_end,
              str(set(plain["metrics"]) ^ end_to_end))
        check(f"{name}: traced metrics match BENCHMARK.json", set(traced["metrics"]) == per_layer,
              str(set(traced["metrics"]) ^ per_layer))
        # A traced run fails itself when its traced sweep's digest differs
        # from its untraced one's.
        check(f"{name}: digest repeats across runs", plain["digest"] == again["digest"] is not None)
        check(f"{name}: set-up is sampled before the sweep and after it",
              len(plain["setup_samples_s"]) == 2 * 2)
        reads = traced["metrics"]["fileio.read_instance.bytes"]["value"]
        check(f"{name}: instance read from a file only when the workload says so", (reads > 0) == wl.from_file)

    wl = TINY["uniform-500"]
    expected = SOLVES_PER_RUN
    for kind in ("invalid", "nan", "cap"):
        original = harness.solve
        harness.solve = corrupting_solve(kind)
        try:
            res = run_tiny(wl, False)
        finally:
            harness.solve = original
        check(f"injected {kind} result is counted as one failed solve",
              res["failed"] == 1 and res["attempted"] == expected and res["failed_frac"] == 1 / expected,
              f"{res['failed']} of {res['attempted']}: {res['failures']}")

    originals = entry_point_objects()
    during_traced = snapshots_during(wl, True)
    check("entry points are restored after a traced run", entry_point_objects() == originals)
    during_untraced = snapshots_during(wl, False)
    traced_solves = len(harness.ALGORITHMS)
    wrapped = [s for s in during_traced if s["fm.move_cells"] is not originals["fm.move_cells"]]
    check("the traced sweep runs wrapped entry points", len(wrapped) == traced_solves,
          f"{len(wrapped)} of {traced_solves} solves")
    unwrapped = [
        s
        for s in during_untraced
        if all(s[k] is v for k, v in originals.items() if k != "pipeline.solve")
        and s["pipeline.solve"].__wrapped__ is originals["pipeline.solve"]
    ]
    check("the untraced sweeps run the original functions", len(unwrapped) == len(during_untraced) == expected,
          f"{len(unwrapped)} of {len(during_untraced)} solves")

    print("selftest:", "PASS" if check.failures == 0 else f"{check.failures} FAILED")
    return 0 if check.failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
