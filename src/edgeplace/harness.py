"""Experiment harness: seeded multi-run sweeps with CSV reports.

A sweep evaluates each algorithm over a grid of capacities, candidate
location sets, and initial assignments:

* the base geometry and workload come from a generator spec or an instance
  file and stay fixed for the whole sweep;
* each location-set seed redraws the candidate locations uniformly over the
  service area (the grid bounds when present, else the cell bounding box);
* each initial seed restarts the solvers from a fresh random assignment,
  shared by all algorithms at that seed.

Each run yields one report row; aggregates carry mean/min/max per
(algorithm, capacity), the min-max band standing in for the spread of the
individual runs. Run-level parallelism never changes the output: rows are
sorted on a fixed key before aggregation and writing.
"""
from __future__ import annotations

import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fileio import AggregateRow, RunRow, read_instance, write_report, write_summary
from .generate import GenSpec, generate, uniform_points
from .model import Instance, cellset_load, check_capacity, check_integer
from .pipeline import ALGORITHMS, SolverConfig, solve

DEFAULT_CAPACITIES = (0.03, 0.04, 0.05, 0.06, 0.07, 0.08)


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: instance source plus the replication protocol."""

    source: GenSpec | str  # generator spec, or path to an instance file
    capacities: tuple[float, ...] = DEFAULT_CAPACITIES
    n_location_sets: int = 10
    n_initials: int = 5
    algorithms: tuple[str, ...] = ALGORITHMS
    master_seed: int = 0
    kappa: float = SolverConfig.kappa
    epsilon: float = SolverConfig.epsilon

    def __post_init__(self):
        if not isinstance(self.source, (GenSpec, str, os.PathLike)):
            raise ValueError(f"source must be a GenSpec or an instance file path, got {self.source!r}")
        for name in ("capacities", "algorithms"):
            values = getattr(self, name)
            if isinstance(values, (str, numbers.Number)):
                raise ValueError(f"{name} must be a sequence, got {values!r}")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {values!r}")
        object.__setattr__(self, "capacities", tuple(map(check_capacity, self.capacities)))  # written as floats
        if not self.capacities or not self.algorithms:
            raise ValueError("a sweep needs at least one capacity and one algorithm")
        for name in ("n_location_sets", "n_initials", "master_seed"):
            check_integer(name, getattr(self, name))
        if self.n_location_sets < 1 or self.n_initials < 1:
            raise ValueError("seed counts must be >= 1")
        for a in self.algorithms:
            SolverConfig(a, seed=0, kappa=self.kappa, epsilon=self.epsilon)
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")


@dataclass
class ExperimentReport:
    rows: list[RunRow]
    aggregates: list[AggregateRow]


def base_instance(spec: SweepSpec) -> Instance:
    """The sweep's base instance. ``ValueError`` for an instance file whose
    fronthaul is not Euclidean: a sweep redraws the candidate locations, and
    a given fronthaul does not cover the redrawn ones."""
    if isinstance(spec.source, GenSpec):
        return generate(spec.source)
    instance = read_instance(spec.source)
    if not instance.has_euclidean_fronthaul():
        raise ValueError(
            "a sweep redraws candidate locations and measures them by Euclidean distance; "
            f"{spec.source} has a non-Euclidean fronthaul section"
        )
    return instance


def _service_bounds(instance: Instance) -> tuple[float, float, float, float]:
    if instance.grid is not None:
        return instance.grid.bounds()
    xy = instance.cell_coords
    return (*xy.min(axis=0).tolist(), *xy.max(axis=0).tolist())


def candidate_variant(instance: Instance, master_seed: int, loc_seed: int) -> Instance:
    """Base instance with candidate locations redrawn for one location-set seed."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 1, loc_seed]))
    cands = uniform_points(rng, instance.n_candidates, _service_bounds(instance))
    return replace(instance, candidate_coords=cands, fronthaul=None)


def run_seed(master_seed: int, loc_seed: int, init_seed: int) -> int:
    """64-bit solver seed for one (location set, initial) pair."""
    words = np.random.SeedSequence([master_seed, 2, loc_seed, init_seed]).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def _nonempty_load_range(instance: Instance, assignment) -> tuple[float, float]:
    loads = [cellset_load(instance.workload, cells) for _, cells in assignment.occupied_servers()]
    return (max(loads), min(loads))


def _run_chunk(args) -> list[RunRow]:
    spec, instance, loc_seed, capacity = args
    variant = replace(candidate_variant(instance, spec.master_seed, loc_seed), capacity=capacity)
    rows = []
    for init_seed in range(spec.n_initials):
        seed = run_seed(spec.master_seed, loc_seed, init_seed)
        for algo in spec.algorithms:
            config = SolverConfig(algo, seed=seed, kappa=spec.kappa, epsilon=spec.epsilon)
            t0 = time.perf_counter()
            result = solve(variant, config)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            max_load, min_load = _nonempty_load_range(variant, result.assignment)
            rows.append(
                RunRow(
                    algo=algo,
                    capacity=capacity,
                    loc_seed=loc_seed,
                    init_seed=init_seed,
                    cost=result.objectives.cost,
                    spread=result.objectives.spread,
                    max_load=max_load,
                    min_load=min_load,
                    wall_ms=wall_ms,
                )
            )
    return rows


def aggregate_rows(rows: list[RunRow]) -> list[AggregateRow]:
    """Mean/min/max per (algorithm, capacity), rows in sorted key order."""
    groups: dict[tuple[str, float], list[RunRow]] = {}
    for r in rows:
        groups.setdefault((r.algo, r.capacity), []).append(r)
    out = []
    for (algo, capacity) in sorted(groups):
        g = groups[(algo, capacity)]
        costs = [r.cost for r in g]
        spreads = [r.spread for r in g]
        ratios = [r.max_load / r.min_load for r in g if r.min_load > 0]
        out.append(
            AggregateRow(
                algo=algo,
                capacity=capacity,
                cost_mean=float(np.mean(costs)),
                cost_min=min(costs),
                cost_max=max(costs),
                spread_mean=float(np.mean(spreads)),
                spread_min=min(spreads),
                spread_max=max(spreads),
                load_ratio_mean=float(np.mean(ratios)) if ratios else None,
            )
        )
    return out


def check_jobs(jobs: int) -> int:
    """A worker count for ``run_sweep``: an integer, at least 1."""
    if check_integer("jobs", jobs) < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_sweep(spec: SweepSpec, out_dir=None, jobs: int = 1) -> ExperimentReport:
    """Run the full protocol; optionally write ``runs.csv`` and ``summary.csv``.

    ``jobs`` worker processes, at most one per (location set, capacity) chunk.
    """
    check_jobs(jobs)
    instance = base_instance(spec)
    chunks = [
        (spec, instance, loc_seed, capacity)
        for loc_seed in range(spec.n_location_sets)
        for capacity in spec.capacities
    ]
    workers = min(jobs, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]
    rows = [row for chunk in results for row in chunk]
    rows.sort(key=lambda r: (r.algo, r.capacity, r.loc_seed, r.init_seed))
    aggregates = aggregate_rows(rows)
    if out_dir is not None:
        out_dir = Path(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        write_report(rows, out_dir / "runs.csv")
        write_summary(aggregates, out_dir / "summary.csv")
    return ExperimentReport(rows=rows, aggregates=aggregates)
