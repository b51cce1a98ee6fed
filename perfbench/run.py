#!/usr/bin/env python3
"""The edgeplace benchmark: replication sweeps through ``harness.run_sweep``.

    python3 perfbench/run.py --workload uniform-500 --seed 0 --seconds 52 --trace 0

A closed loop: one caller runs the sweep (location sets x initials x the four
algorithms at one capacity, ``jobs=1``) and each solve starts when the
previous one returns. ``--seed`` picks the inputs; ``--seconds`` sizes the
sweep (see ``workloads.Workload.sweep_spec``). With ``--trace 0`` the run
takes set-up samples before and after the sweep and reports the end-to-end
metrics; with ``--trace 1`` it runs a sweep half that size untraced and then
traced, and reports the per-layer metrics. Either way a capped sweep
(``workloads.capped_spec``) follows, untimed, and every solve of every sweep
is checked for correctness. Human-readable lines come first; the last line
of standard output is the JSON result.
"""
from __future__ import annotations

import os
import sys

# Pinned before numpy loads, so BLAS and OpenMP stay on one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import edgeplace  # noqa: E402  (the checkout's own copy; checked in main)
from edgeplace import harness  # noqa: E402
from edgeplace.fileio import write_instance  # noqa: E402
from edgeplace.generate import generate  # noqa: E402
from edgeplace.pipeline import SolverConfig  # noqa: E402

from checks import check_solve, report_digest  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import CAPPED_GEN, WORKLOADS, Workload, capped_spec  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
# Fresh-interpreter set-up samples taken before the sweep and after it;
# setup_s is their median.
SETUP_PROBES = 3
TIMED_ALGORITHMS = ("KMED_FM_HUNG", "FM_HUNG", "KMED")
QUALITY_ALGORITHM = "KMED_FM_HUNG"
PROBE_TIMEOUT_S = 120


class SolveCollector:
    """Keeps every ``pipeline.solve`` result the sweep produces, for the checks.

    Installed as ``harness.solve``; inside the timed call it only appends to a
    list, so ``RunRow.wall_ms`` still times the program's own ``solve``.
    """

    def __init__(self):
        self.results = []
        self.raised = 0

    def __enter__(self):
        self._original = harness.solve

        def collecting_solve(instance, config):
            try:
                result = self._original(instance, config)
            except Exception:
                self.raised += 1
                raise
            self.results.append((config, result))
            return result

        collecting_solve.__wrapped__ = self._original
        harness.solve = collecting_solve
        return self

    def __exit__(self, *exc):
        harness.solve = self._original


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def setup_samples(source, n: int) -> list[float]:
    """Seconds from starting a fresh interpreter to a built base instance."""
    arg = json.dumps(source if isinstance(source, str) else dataclasses.asdict(source))
    samples = []
    for _ in range(n):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), arg],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def timed_sweep(spec, out_dir: Path | None, tracer: Tracer | None = None):
    """(report, wall seconds, collector) of one ``run_sweep`` call."""
    with SolveCollector() as collector:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = harness.run_sweep(spec, out_dir=out_dir, jobs=1)
            else:
                with tracer.installed():
                    report = tracer.call("harness.run_sweep", harness.run_sweep, spec, out_dir=out_dir, jobs=1)
        except Exception:
            traceback.print_exc()
            report = None
        wall = time.perf_counter() - t0
    return report, wall, collector


def failed_solves(spec, report, collector) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every solve of the sweep.

    Rebuilds each location set's instance as the harness does, one at a time,
    and checks every collected result against it and against its report row.
    """
    results = {(c.seed, c.algorithm): r for c, r in collector.results}
    attempted = len(collector.results) + collector.raised
    failed = collector.raised
    messages = [f"{collector.raised} solve(s) raised"] if collector.raised else []
    if report is None:
        return attempted, failed, messages
    rows = {(r.algo, r.capacity, r.loc_seed, r.init_seed): r for r in report.rows}
    base = harness.base_instance(spec)
    expected = 0
    for loc in range(spec.n_location_sets):
        for cap in spec.capacities:
            variant = dataclasses.replace(harness.candidate_variant(base, spec.master_seed, loc), capacity=cap)
            for init in range(spec.n_initials):
                seed = harness.run_seed(spec.master_seed, loc, init)
                for algo in spec.algorithms:
                    expected += 1
                    result = results.get((seed, algo))
                    if result is None:
                        problems = ["no result was collected"]
                    else:
                        config = SolverConfig(algo, seed=seed, kappa=spec.kappa, epsilon=spec.epsilon)
                        problems = check_solve(variant, config, result)
                        row = rows.get((algo, cap, loc, init))
                        if row is None or (row.cost, row.spread) != result.objectives.as_tuple():
                            problems.append("the report row does not match the solve result")
                    if problems:
                        failed += 1
                        messages.append(f"{algo} seed {seed}: " + "; ".join(problems))
    return max(attempted, expected), failed, messages


def median_solve_s(rows, algo: str) -> tuple[float, int, str]:
    """Median per-solve seconds, the sample count, and the highest tail
    percentile that has at least ten solves beyond it (empty if none)."""
    times = sorted(r.wall_ms / 1000.0 for r in rows if r.algo == algo)
    tail = ""
    for q in (0.99, 0.9):
        if (1.0 - q) * len(times) >= 10:
            tail = f"p{round(q * 100)}={statistics.quantiles(times, n=100)[round(q * 100) - 1]!r} s"
            break
    return statistics.median(times), len(times), tail


class Tally:
    """Solves attempted and failed over every sweep of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, spec, report, collector) -> None:
        attempted, failed, messages = failed_solves(spec, report, collector)
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)


def run_benchmark(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_probes: int = SETUP_PROBES,
    capped_gen=CAPPED_GEN,
) -> dict:
    """Run one workload; return a dict with the metrics and everything recorded."""
    env = environment()
    out = OUT_ROOT / f"{wl.name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    source = wl.gen
    if wl.from_file:
        path = out / "instance.txt"
        write_instance(generate(source), path)
        source = str(path)
    spec = wl.sweep_spec(seed, seconds, source)
    if trace:
        # Untraced, then traced: half the points each, so the run takes about
        # as long as an untraced one.
        spec = dataclasses.replace(spec, n_location_sets=max(1, spec.n_location_sets // 2))

    # Each sweep is checked after the last timed one, so the checks neither
    # interleave with the timings nor count towards peak_rss_mb.
    to_check = []
    setup = [] if trace else setup_samples(source, setup_probes)
    reports, walls = [], []
    tracer = Tracer() if trace else None
    for i in range(2 if trace else 1):
        traced = trace and i == 1
        t0 = time.perf_counter()
        report, wall, collector = timed_sweep(spec, out / f"sweep-{i}", tracer if traced else None)
        to_check.append((spec, report, collector))
        if traced:
            tracer.write(out / "spans.jsonl", t0)
        if report is None:
            break
        reports.append(report)
        walls.append(wall)
    if not trace:
        setup += setup_samples(source, setup_probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    capped = capped_spec(seed, capped_gen)
    capped_report, _, capped_collector = timed_sweep(capped, None)
    to_check.append((capped, capped_report, capped_collector))

    tally = Tally()
    for checked in to_check:
        tally.check(*checked)
    digests = [report_digest(out / f"sweep-{i}" / "runs.csv") for i in range(len(reports))]
    if len(set(digests)) > 1:
        tally.fail(f"the traced sweep's runs.csv differs from the untraced one: {digests}")

    metrics: dict[str, tuple[float, str]] = {}
    notes = []
    if len(reports) == 2 and trace:
        metrics = layer_metrics(tracer, walls[0], walls[1])
    elif reports and not trace:
        report = reports[0]
        metrics["solves_per_s"] = (len(report.rows) / walls[0], "1/s")
        for algo in TIMED_ALGORITHMS:
            p50, n, tail = median_solve_s(report.rows, algo)
            metrics[f"solve_s.{algo}.p50"] = (p50, "s")
            notes.append(f"solve_s.{algo}: n={n}, " + (tail or "no tail percentile (needs 10 solves beyond p90)"))
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        agg = next(a for a in report.aggregates if a.algo == QUALITY_ALGORITHM)
        metrics[f"cost_mean.{QUALITY_ALGORITHM}"] = (agg.cost_mean, "fraction")
        metrics[f"spread_mean.{QUALITY_ALGORITHM}"] = (agg.spread_mean, "distance")
    if wl.from_file:
        os.remove(out / "instance.txt")

    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sweep": {
            "points": spec.n_location_sets * spec.n_initials * len(spec.capacities),
            "master_seed": spec.master_seed,
            "generator_seed": wl.gen.seed,
            "epsilon": repr(spec.epsilon),
            "wall_s": walls,
        },
        "env": env,
        "setup_samples_s": setup,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "failures": tally.messages,
        "digest": digests[0] if digests else None,
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="0 = the acceptance master seed; n offsets it by n")
    ap.add_argument("--seconds", type=float, default=52.0, help="about how long the run takes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not Path(edgeplace.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"edgeplace was imported from {edgeplace.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    res = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} sweep={json.dumps(res['sweep'])}")
    print(f"# env {json.dumps(res['env'])}")
    for name, m in res["metrics"].items():
        print(f"{name:<30} {m['value']!r} {m['unit']}")
    print(f"{'failed_frac':<30} {res['failed_frac']!r} ratio ({res['failed']} of {res['attempted']} solves)")
    for line in res["notes"] + res["failures"]:
        print(f"# {line}")
    print(f"# digest {res['digest']}")
    correct = res["failed"] == 0 and bool(res["metrics"])
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": res["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
