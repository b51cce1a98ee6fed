"""Problem model: instances, assignments, and exact evaluation of both objectives.

An instance is a set of cells (base stations) with a symmetric pairwise
workload matrix, a set of candidate server locations, a server count, and a
per-server capacity. An assignment picks the server locations and maps every
cell to one of them. The two objectives are:

* ``cost`` -- the fraction of total workload that cannot be served at the
  edge: pair demand between cells on different servers plus per-server
  overload beyond the capacity.
* ``spread`` -- demand-weighted total distance between cells and their
  assigned server location.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Generated / ingested workloads are normalized so the upper-triangle total
# (diagonal included) is 1; instance construction enforces it at this slack.
NORMALIZATION_TOL = 1e-9


class MalformedAssignmentError(ValueError):
    """Assignment is structurally broken: bad index, wrong length, or duplicate location."""


@dataclass(frozen=True)
class Violation:
    """First violated assignment constraint, with the offending index."""

    constraint: str  # "server-count" | "cell-location"
    index: int

    def __str__(self) -> str:
        return f"constraint {self.constraint} violated at index {self.index}"


@dataclass(frozen=True)
class GridSpec:
    """Row-major rectangular grid of square cells; used for grid layouts."""

    rows: int
    cols: int
    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
        if not 0 < self.cell_size < math.inf:
            raise ValueError("cell_size must be positive and finite")
        if not all(math.isfinite(v) for v in self.origin):
            raise ValueError("origin must be finite")

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def cell_centers(self) -> np.ndarray:
        """Centers in row-major order: cell r*cols+c sits at origin + ((c+0.5)s, (r+0.5)s)."""
        ox, oy = self.origin
        r, c = np.divmod(np.arange(self.n_cells), self.cols)
        return np.column_stack([ox + (c + 0.5) * self.cell_size, oy + (r + 0.5) * self.cell_size])

    def bounds(self) -> tuple[float, float, float, float]:
        ox, oy = self.origin
        return (ox, oy, ox + self.cols * self.cell_size, oy + self.rows * self.cell_size)


def euclidean_fronthaul(cell_coords: np.ndarray, candidate_coords: np.ndarray) -> np.ndarray:
    """Euclidean distance from every cell to every candidate location."""
    diff = cell_coords[:, None, :] - candidate_coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def check_counts(n_cells: int, n_candidates: int, n_servers: int) -> None:
    """At least one server, and no more servers than candidate locations or cells."""
    if not 1 <= n_servers <= n_candidates:
        raise ValueError("need 1 <= n_servers <= n_candidates")
    if n_servers > n_cells:
        raise ValueError("need n_servers <= n_cells")


def check_capacity(capacity: float) -> None:
    """Per-server capacity is a fraction of total demand in (0, 1]."""
    if not 0.0 < capacity <= 1.0:
        raise ValueError("capacity must lie in (0, 1]")


def check_seed(seed: int) -> None:
    """A random seed is a 64-bit unsigned integer."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem instance.

    ``workload`` is a symmetric n_cells x n_cells matrix whose diagonal holds
    intra-cell demand; the upper-triangle total (diagonal included) must be 1
    within ``NORMALIZATION_TOL``. ``fronthaul`` defaults to Euclidean distance
    between cells and candidate locations. ``grid`` is optional layout
    metadata used only for rendering and file round-trips.
    """

    cell_coords: np.ndarray
    candidate_coords: np.ndarray
    workload: np.ndarray
    n_servers: int
    capacity: float
    fronthaul: np.ndarray | None = None
    grid: GridSpec | None = None

    def __post_init__(self):
        cells = _frozen_array(self.cell_coords)
        cands = _frozen_array(self.candidate_coords)
        w = _frozen_array(self.workload)
        if cells.ndim != 2 or cells.shape[1] != 2:
            raise ValueError("cell_coords must be an (n_cells, 2) array")
        if cands.ndim != 2 or cands.shape[1] != 2:
            raise ValueError("candidate_coords must be an (n_candidates, 2) array")
        if not (np.isfinite(cells).all() and np.isfinite(cands).all()):
            raise ValueError("coordinates must be finite; got a non-finite value")
        n = cells.shape[0]
        if w.shape != (n, n):
            raise ValueError(f"workload must be ({n}, {n}), got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("workload entries must be finite; got a non-finite value")
        if not np.array_equal(w, w.T):
            raise ValueError("workload matrix must be symmetric")
        if (w < 0).any():
            raise ValueError("workload entries must be non-negative")
        upper_total = float(np.triu(w).sum())
        if abs(upper_total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"workload upper-triangle total must be 1 (within {NORMALIZATION_TOL}), got {upper_total!r}"
            )
        check_counts(n, cands.shape[0], self.n_servers)
        check_capacity(self.capacity)
        d = _frozen_array(euclidean_fronthaul(cells, cands) if self.fronthaul is None else self.fronthaul)
        if d.shape != (n, cands.shape[0]):
            raise ValueError("fronthaul must be (n_cells, n_candidates)")
        if (d < 0).any():
            raise ValueError("fronthaul entries must be non-negative")
        if not np.isfinite(d).all():
            raise ValueError("fronthaul entries must be finite; got a non-finite value")
        if self.grid is not None and self.grid.n_cells != n:
            raise ValueError("grid metadata does not match n_cells")
        object.__setattr__(self, "cell_coords", cells)
        object.__setattr__(self, "candidate_coords", cands)
        object.__setattr__(self, "workload", w)
        object.__setattr__(self, "fronthaul", d)

    @property
    def n_cells(self) -> int:
        return self.workload.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.candidate_coords.shape[0]

    @cached_property
    def cell_totals(self) -> np.ndarray:
        """Per-cell total demand: row sums of the workload matrix (diagonal counted once)."""
        totals = self.workload.sum(axis=1)
        totals.setflags(write=False)
        return totals

    def has_euclidean_fronthaul(self) -> bool:
        return np.array_equal(self.fronthaul, euclidean_fronthaul(self.cell_coords, self.candidate_coords))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.n_servers == other.n_servers
            and self.capacity == other.capacity
            and self.grid == other.grid
            and np.array_equal(self.cell_coords, other.cell_coords)
            and np.array_equal(self.candidate_coords, other.candidate_coords)
            and np.array_equal(self.workload, other.workload)
            and np.array_equal(self.fronthaul, other.fronthaul)
        )


@dataclass(frozen=True, eq=False)
class Assignment:
    """Chosen server locations plus the cell-to-location map.

    ``server_locations`` is kept sorted ascending as a canonical order;
    duplicates are preserved so that validation can flag them.
    """

    server_locations: tuple[int, ...]
    cell_to_location: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "server_locations", tuple(sorted(int(l) for l in self.server_locations)))
        object.__setattr__(self, "cell_to_location", _frozen_array(self.cell_to_location, dtype=np.int64))

    def cells_of(self, location: int) -> np.ndarray:
        """Indices of cells assigned to ``location``, ascending (empty if none)."""
        return np.flatnonzero(self.cell_to_location == location)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.server_locations == other.server_locations and np.array_equal(
            self.cell_to_location, other.cell_to_location
        )


def validate(instance: Instance, assignment: Assignment) -> Violation | None:
    """Check an assignment against the instance.

    Returns ``None`` when both constraints hold, otherwise the first
    ``Violation``. Structural problems (index out of range, wrong length,
    duplicate server location) raise ``MalformedAssignmentError`` instead.
    """
    locs = assignment.server_locations
    cmap = assignment.cell_to_location
    if cmap.shape[0] != instance.n_cells:
        raise MalformedAssignmentError(
            f"cell map has {cmap.shape[0]} entries for {instance.n_cells} cells"
        )
    for l in locs:
        if not 0 <= l < instance.n_candidates:
            raise MalformedAssignmentError(f"server location {l} out of range")
    if cmap.min() < 0 or cmap.max() >= instance.n_candidates:
        bad = int(np.flatnonzero((cmap < 0) | (cmap >= instance.n_candidates))[0])
        raise MalformedAssignmentError(f"cell {bad} mapped to out-of-range location {int(cmap[bad])}")
    if len(set(locs)) != len(locs):
        raise MalformedAssignmentError("duplicate server location")
    if len(locs) != instance.n_servers:
        return Violation("server-count", len(locs))
    outside = np.flatnonzero(~np.isin(cmap, locs))
    return Violation("cell-location", int(outside[0])) if outside.size else None


def check_valid(instance: Instance, assignment: Assignment) -> None:
    """ValueError naming the first constraint that ``assignment`` violates."""
    report = validate(instance, assignment)
    if report is not None:
        raise ValueError(f"invalid assignment: {report}")


def cellset_load(workload: np.ndarray, cells: np.ndarray) -> float:
    """Total demand among a cell set: pairs within the set plus diagonal terms, each once."""
    if len(cells) == 0:
        return 0.0
    sub = workload[cells[:, None], cells]
    return float((sub.sum() + sub.trace()) / 2.0)


def server_load(instance: Instance, assignment: Assignment, location: int) -> float:
    """Demand handled by the server at ``location``; 0 for a location with no cells."""
    return cellset_load(instance.workload, assignment.cells_of(location))


def server_loads(instance: Instance, assignment: Assignment) -> np.ndarray:
    """Loads aligned with ``assignment.server_locations``."""
    return np.array([server_load(instance, assignment, l) for l in assignment.server_locations])


def cost_of_loads(loads, capacity: float) -> float:
    """One minus the capacity-capped demand served at the edge, from per-server loads."""
    return float(1.0 - np.minimum(capacity, loads).sum())


def cost(instance: Instance, assignment: Assignment) -> float:
    """Backhaul cost: one minus the capacity-capped demand served at the edge."""
    return cost_of_loads(server_loads(instance, assignment), instance.capacity)


def cost_pairwise(instance: Instance, assignment: Assignment) -> float:
    """Backhaul cost via its pairwise form: cross-server pair demand plus per-server overload.

    Algebraically identical to :func:`cost` for normalized workloads; kept as
    an independent evaluation route for equivalence testing.
    """
    cmap = assignment.cell_to_location
    same = cmap[:, None] == cmap[None, :]
    cross = float((instance.workload * ~same).sum() / 2.0)
    loads = server_loads(instance, assignment)
    overload = float(np.maximum(loads - instance.capacity, 0.0).sum())
    return cross + overload


def spread(instance: Instance, assignment: Assignment) -> float:
    """Demand-weighted total cell-to-server distance."""
    d = instance.fronthaul[np.arange(instance.n_cells), assignment.cell_to_location]
    return float((d * instance.cell_totals).sum())


@dataclass(frozen=True)
class Objectives:
    cost: float
    spread: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.cost, self.spread)


def objectives(instance: Instance, assignment: Assignment) -> Objectives:
    """Both objectives of a valid assignment."""
    check_valid(instance, assignment)
    return Objectives(cost=cost(instance, assignment), spread=spread(instance, assignment))
