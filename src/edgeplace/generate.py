"""Synthetic instance generators for the two workload regimes.

``gen_uniform`` draws geography-free demand (every pair weight i.i.d.
uniform), ``gen_gravity`` draws geography-correlated demand where pair weight
decays exponentially with distance and scales with per-cell activity.

Both are deterministic functions of the spec, including its seed. The random
stream is a numpy PCG64 generator seeded with ``GenSpec.seed`` and consumed
in this fixed order:

1. cell coordinates (random layout only; grid layouts draw nothing),
2. candidate coordinates,
3. workload values (uniform: upper-triangle weights; gravity: the per-cell
   activity vector).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GridSpec, Instance, check_capacity, check_counts, check_grid, check_number, check_seed, euclidean_fronthaul

LAYOUTS = ("random", "grid")
WORKLOAD_MODELS = ("uniform", "gravity")


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated instance.

    ``corr_length`` is the distance scale of the gravity decay term
    (``math.inf`` disables decay entirely); ``activity_sigma`` is the
    lognormal sigma of per-cell activity. ``grid`` is set exactly for the
    grid layout. A uniform workload needs the random layout.
    """

    n_cells: int
    n_candidates: int
    n_servers: int
    capacity: float
    seed: int = 0
    layout: str = "random"
    grid: GridSpec | None = None
    workload_model: str = "uniform"
    corr_length: float | None = None
    activity_sigma: float = 1.0

    def __post_init__(self):
        check_counts(self.n_cells, self.n_candidates, self.n_servers)
        check_capacity(self.capacity)
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}")
        if self.workload_model not in WORKLOAD_MODELS:
            raise ValueError(f"workload_model must be one of {WORKLOAD_MODELS}")
        if (self.layout == "grid") != (self.grid is not None):
            raise ValueError("a grid is given exactly when layout is 'grid'")
        check_grid(self.grid, self.n_cells)
        if self.workload_model == "uniform" and self.layout != "random":
            raise ValueError("a uniform workload needs the random layout")
        if self.workload_model == "gravity":
            if self.corr_length is None or not check_number("corr_length", self.corr_length) > 0:
                raise ValueError("gravity model needs corr_length > 0 (math.inf allowed)")
            if not 0 < check_number("activity_sigma", self.activity_sigma) < math.inf:
                raise ValueError("activity_sigma must be positive and finite")
        check_seed(self.seed)


def _symmetric_from_upper(n: int, upper_values: np.ndarray) -> np.ndarray:
    w = np.zeros((n, n))
    w[np.triu_indices(n)] = upper_values
    return w + np.triu(w, 1).T


def uniform_points(rng: np.random.Generator, n: int, bounds: tuple[float, float, float, float]) -> np.ndarray:
    """``n`` points drawn uniformly in the box ``bounds = (x0, y0, x1, y1)``."""
    x0, y0, x1, y1 = bounds
    u = rng.random((n, 2))
    return np.column_stack([x0 + u[:, 0] * (x1 - x0), y0 + u[:, 1] * (y1 - y0)])


def gen_uniform(spec: GenSpec) -> Instance:
    """Geography-free instance: uniform coordinates, i.i.d. uniform pair weights."""
    if spec.workload_model != "uniform":
        raise ValueError("gen_uniform needs workload_model == 'uniform'")
    return generate(spec)


def gen_gravity(spec: GenSpec) -> Instance:
    """Geography-correlated instance.

    Pair weight is ``activity_i * activity_j * exp(-dist(i,j)/corr_length)``
    before normalization; the diagonal uses distance 0, so intra-cell demand
    scales with squared activity.
    """
    if spec.workload_model != "gravity":
        raise ValueError("gen_gravity needs workload_model == 'gravity'")
    return generate(spec)


def generate(spec: GenSpec) -> Instance:
    """The instance of ``spec``, drawn in the stream order of the module docstring."""
    rng = np.random.default_rng(spec.seed)
    if spec.layout == "grid":
        cells, bounds = spec.grid.cell_centers(), spec.grid.bounds()
    else:
        cells, bounds = rng.random((spec.n_cells, 2)), (0.0, 0.0, 1.0, 1.0)
    cands = uniform_points(rng, spec.n_candidates, bounds)
    n = spec.n_cells
    if spec.workload_model == "uniform":
        upper = rng.random(n * (n + 1) // 2)
    else:
        activity = rng.lognormal(mean=0.0, sigma=spec.activity_sigma, size=n)
        # An infinite corr_length gives exp(-0.0) == 1.0: no decay.
        decay = np.exp(-euclidean_fronthaul(cells, cells) / spec.corr_length)
        upper = (np.outer(activity, activity) * decay)[np.triu_indices(n)]
    w = _symmetric_from_upper(n, upper / upper.sum())
    return Instance(cells, cands, w, spec.n_servers, spec.capacity, grid=spec.grid)


def workload_distance_correlation(instance: Instance) -> float:
    """Pearson correlation between off-diagonal pair weight and cell distance."""
    dist = euclidean_fronthaul(instance.cell_coords, instance.cell_coords)
    iu = np.triu_indices(instance.n_cells, k=1)
    w = instance.workload[iu]
    d = dist[iu]
    return float(np.corrcoef(w, d)[0, 1])
