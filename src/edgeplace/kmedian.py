"""Spread-only optimization: nearest-location assignment and swap local search.

With the server locations fixed, assigning every cell to its nearest location
minimizes the spread (the objective separates per cell). The local search
therefore walks over location sets: it repeatedly swaps one open location for
a closed one and accepts the first swap (scanning open then closed locations
in ascending order) whose nearest-assignment spread improves on the current
spread by at least the relative factor ``kappa``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Assignment, Instance, spread


@dataclass(frozen=True)
class SwapParams:
    """``kappa`` is the minimum relative improvement for accepting a swap."""

    kappa: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")


def assign_cells(instance: Instance, locations) -> Assignment:
    """Map every cell to its nearest location; distance ties go to the lower
    candidate index."""
    locs = sorted(int(l) for l in locations)
    if not locs:
        raise ValueError("empty location set")
    if len(set(locs)) != len(locs):
        raise ValueError("duplicate location")
    if len(locs) != instance.n_servers:
        raise ValueError(f"need exactly {instance.n_servers} locations, got {len(locs)}")
    cols = np.asarray(locs)
    nearest = np.argmin(instance.fronthaul[:, cols], axis=1)  # first minimum wins
    return Assignment(tuple(locs), cols[nearest])


def _nearest_spread(instance: Instance, cols: np.ndarray) -> float:
    """Spread of the nearest-location assignment onto ``cols`` (ascending)."""
    d = instance.fronthaul[:, cols].min(axis=1)
    return float((d * instance.cell_totals).sum())


def kmedian_search(
    instance: Instance,
    initial: Assignment,
    params: SwapParams = SwapParams(),
    accepted_log: list | None = None,
) -> Assignment:
    """Swap-based local search over location sets, first-improvement order.

    The acceptance benchmark starts at the spread of ``initial`` as given
    (its cell map may be arbitrary); every accepted swap replaces it with the
    nearest-assignment spread of the new set. Returns the nearest assignment
    onto the final set, so the output spread never exceeds the input spread.
    Appends the spread after each accepted swap to ``accepted_log`` if given.
    Restarts the scan at most ``10 * n_candidates`` times.
    """
    open_locs = sorted(set(initial.server_locations))
    if len(open_locs) != instance.n_servers:
        raise ValueError("initial assignment must open exactly n_servers locations")
    current_spread = spread(instance, initial)
    for _ in range(10 * instance.n_candidates):
        accepted = False
        closed = [l for l in range(instance.n_candidates) if l not in set(open_locs)]
        for out_loc in list(open_locs):
            for in_loc in closed:
                cols = np.array(sorted(set(open_locs) - {out_loc} | {in_loc}))
                candidate = _nearest_spread(instance, cols)
                if candidate < (1.0 - params.kappa) * current_spread:
                    open_locs = cols.tolist()
                    current_spread = candidate
                    accepted = True
                    if accepted_log is not None:
                        accepted_log.append(candidate)
                    break
            if accepted:
                break
        if not accepted:
            break
    return assign_cells(instance, open_locs)
