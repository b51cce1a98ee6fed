"""Spread-only optimization: nearest-location assignment and swap local search.

With the server locations fixed, assigning every cell to its nearest location
minimizes the spread (the objective separates per cell). The local search
therefore walks over location sets: it repeatedly swaps one open location for
a closed one and accepts the first swap (scanning open then closed locations
in ascending order) whose nearest-assignment spread improves on the current
spread by at least the relative factor ``kappa``.

Swaps are scored one closing location at a time, as in Whitaker's fast
interchange: the distance from each cell to the nearest location that stays
open is computed once, and the spread of every swap that closes it is one
row of ``min(d_rest, distance to the opening location) * demand`` summed
across cells, all rows in one array expression.
"""
from __future__ import annotations

import numpy as np

from .model import Assignment, Instance, check_locations, check_number, check_valid, sorted_locations, spread

DEFAULT_KAPPA = 1e-4


def check_kappa(kappa: float) -> None:
    """``kappa``, the minimum relative improvement for accepting a swap, lies in (0, 1)."""
    if not 0.0 < check_number("kappa", kappa) < 1.0:
        raise ValueError("kappa must lie in (0, 1)")


def assign_cells(instance: Instance, locations) -> Assignment:
    """Map every cell to its nearest location; distance ties go to the lower
    candidate index. Raises ``MalformedAssignmentError`` for locations that
    ``validate`` rejects and ``ValueError`` for a set of the wrong size."""
    locs = sorted_locations(locations)
    check_locations(locs, instance.n_candidates)
    if len(locs) != instance.n_servers:
        raise ValueError(f"need exactly {instance.n_servers} locations, got {len(locs)}")
    cols = np.asarray(locs)
    nearest = np.argmin(instance.fronthaul[:, cols], axis=1)  # first minimum wins
    return Assignment(locs, cols[nearest])


def kmedian_search(
    instance: Instance,
    initial: Assignment,
    kappa: float = DEFAULT_KAPPA,
    accepted_log: list | None = None,
) -> Assignment:
    """Swap-based local search over location sets, first-improvement order.

    The acceptance benchmark starts at the spread of ``initial`` as given
    (any valid cell map onto its locations); every accepted swap replaces it
    with the nearest-assignment spread of the new set. Returns the nearest
    assignment onto the final set, so the output spread never exceeds the
    input spread. Appends the spread after each accepted swap to
    ``accepted_log`` if given. Restarts the scan at most
    ``10 * n_candidates`` times. Raises ``ValueError`` for a ``kappa``
    outside (0, 1) or an invalid ``initial``.
    """
    check_kappa(kappa)
    check_valid(instance, initial)
    fronthaul = instance.fronthaul
    by_location = np.ascontiguousarray(fronthaul.T)
    w = instance.cell_totals
    is_open = np.zeros(instance.n_candidates, dtype=bool)
    is_open[list(initial.server_locations)] = True
    current_spread = spread(instance, initial)
    for _ in range(10 * instance.n_candidates):
        open_locs = np.flatnonzero(is_open)
        closed = np.flatnonzero(~is_open)
        for k, out_loc in enumerate(open_locs):
            d_rest = fronthaul[:, np.delete(open_locs, k)].min(axis=1, initial=np.inf)
            # Each row is summed along the contiguous last axis in numpy's
            # pairwise order, the order of the 1D ``(d * w).sum()`` over one
            # location set, so every score equals that set's spread bit for bit.
            scores = (np.minimum(d_rest, by_location[closed]) * w).sum(axis=1)
            passing = np.flatnonzero(scores < (1.0 - kappa) * current_spread)
            if passing.size:
                i = passing[0]
                is_open[out_loc] = False
                is_open[closed[i]] = True
                current_spread = float(scores[i])
                if accepted_log is not None:
                    accepted_log.append(current_spread)
                break
        else:
            break
    return assign_cells(instance, np.flatnonzero(is_open))
