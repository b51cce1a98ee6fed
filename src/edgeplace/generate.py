"""Synthetic instance generators for the two workload regimes.

``gen_uniform`` draws geography-free demand (every pair weight i.i.d.
uniform), ``gen_gravity`` draws geography-correlated demand where pair weight
decays exponentially with distance and scales with per-cell activity.

Both are deterministic functions of the spec, including its seed. The random
stream is a numpy PCG64 generator seeded with ``GenSpec.seed`` and consumed
in this fixed order:

1. cell coordinates (random layout only; grid layouts draw nothing),
2. candidate coordinates (or the co-location subset choice),
3. workload values (uniform: upper-triangle weights; gravity: the per-cell
   activity vector).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GridSpec, Instance, check_capacity, euclidean_fronthaul

LAYOUTS = ("random", "grid")
WORKLOAD_MODELS = ("uniform", "gravity")


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated instance.

    ``corr_length`` is the distance scale of the gravity decay term
    (``math.inf`` disables decay entirely); ``activity_sigma`` is the
    lognormal sigma of per-cell activity. ``candidates_at_cells`` co-locates
    candidate locations with a random subset of base stations instead of
    drawing fresh uniform points.
    """

    n_cells: int
    n_candidates: int
    n_servers: int
    capacity: float
    seed: int
    layout: str = "random"
    grid: GridSpec | None = None
    workload_model: str = "uniform"
    corr_length: float | None = None
    activity_sigma: float = 1.0
    candidates_at_cells: bool = False

    def __post_init__(self):
        check_capacity(self.capacity)
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}")
        if self.workload_model not in WORKLOAD_MODELS:
            raise ValueError(f"workload_model must be one of {WORKLOAD_MODELS}")
        if self.layout == "grid":
            if self.grid is None:
                raise ValueError("grid layout needs a GridSpec")
            if self.grid.n_cells != self.n_cells:
                raise ValueError("grid rows*cols must equal n_cells")
        if self.workload_model == "gravity":
            if self.corr_length is None or not self.corr_length > 0:
                raise ValueError("gravity model needs corr_length > 0 (math.inf allowed)")
            if not self.activity_sigma > 0:
                raise ValueError("activity_sigma must be positive")
        if self.candidates_at_cells and self.n_candidates > self.n_cells:
            raise ValueError("co-located candidates need n_candidates <= n_cells")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def _symmetric_from_upper(n: int, upper_values: np.ndarray) -> np.ndarray:
    w = np.zeros((n, n))
    w[np.triu_indices(n)] = upper_values
    return w + np.triu(w, 1).T


def _cell_coords(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.layout == "grid":
        return spec.grid.cell_centers()
    return rng.random((spec.n_cells, 2))


def _candidate_coords(spec: GenSpec, rng: np.random.Generator, cells: np.ndarray) -> np.ndarray:
    if spec.candidates_at_cells:
        idx = np.sort(rng.choice(spec.n_cells, size=spec.n_candidates, replace=False))
        return cells[idx]
    if spec.layout == "grid":
        x0, y0, x1, y1 = spec.grid.bounds()
    else:
        x0, y0, x1, y1 = 0.0, 0.0, 1.0, 1.0
    pts = rng.random((spec.n_candidates, 2))
    return np.column_stack([x0 + pts[:, 0] * (x1 - x0), y0 + pts[:, 1] * (y1 - y0)])


def gen_uniform(spec: GenSpec) -> Instance:
    """Geography-free instance: uniform coordinates, i.i.d. uniform pair weights."""
    if spec.workload_model != "uniform":
        raise ValueError("gen_uniform needs workload_model == 'uniform'")
    if spec.layout != "random":
        raise ValueError("gen_uniform needs the random-points layout")
    rng = np.random.default_rng(spec.seed)
    cells = _cell_coords(spec, rng)
    cands = _candidate_coords(spec, rng, cells)
    n = spec.n_cells
    values = rng.random(n * (n + 1) // 2)
    w = _symmetric_from_upper(n, values / values.sum())
    return Instance(cells, cands, w, spec.n_servers, spec.capacity)


def gen_gravity(spec: GenSpec) -> Instance:
    """Geography-correlated instance.

    Pair weight is ``activity_i * activity_j * exp(-dist(i,j)/corr_length)``
    before normalization; the diagonal uses distance 0, so intra-cell demand
    scales with squared activity.
    """
    if spec.workload_model != "gravity":
        raise ValueError("gen_gravity needs workload_model == 'gravity'")
    rng = np.random.default_rng(spec.seed)
    cells = _cell_coords(spec, rng)
    cands = _candidate_coords(spec, rng, cells)
    activity = rng.lognormal(mean=0.0, sigma=spec.activity_sigma, size=spec.n_cells)
    dist = euclidean_fronthaul(cells, cells)
    if math.isinf(spec.corr_length):
        decay = np.ones_like(dist)
    else:
        decay = np.exp(-dist / spec.corr_length)
    raw = np.outer(activity, activity) * decay
    upper = raw[np.triu_indices(spec.n_cells)]
    w = _symmetric_from_upper(spec.n_cells, upper / upper.sum())
    return Instance(
        cells,
        cands,
        w,
        spec.n_servers,
        spec.capacity,
        grid=spec.grid if spec.layout == "grid" else None,
    )


def generate(spec: GenSpec) -> Instance:
    """Dispatch on the workload model."""
    if spec.workload_model == "uniform":
        return gen_uniform(spec)
    return gen_gravity(spec)


def workload_distance_correlation(instance: Instance) -> float:
    """Pearson correlation between off-diagonal pair weight and cell distance."""
    dist = euclidean_fronthaul(instance.cell_coords, instance.cell_coords)
    iu = np.triu_indices(instance.n_cells, k=1)
    w = instance.workload[iu]
    d = dist[iu]
    return float(np.corrcoef(w, d)[0, 1])
