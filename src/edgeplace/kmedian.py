"""Spread-only optimization: nearest-location assignment and swap local search.

With the server locations fixed, assigning every cell to its nearest location
minimizes the spread (the objective separates per cell). The local search
therefore walks over location sets: it repeatedly swaps one open location for
a closed one and accepts the first swap (scanning open then closed locations
in ascending order) whose nearest-assignment spread improves on the current
spread by at least the relative factor ``kappa``.

A scan prices every swap from each cell's nearest and second-nearest open
location, as in Whitaker's fast interchange (INFOR 1983; Resende & Werneck,
Ann. Oper. Res. 2007). It works on ``cost[l, c] = fl(d_cl * w_c)``, the
distance of cell ``c`` to location ``l`` times the cell's demand ``w_c``.
Rounding is monotone and ``w_c >= 0``, so ``fl(w_c * min(a, b))`` equals
``min(fl(w_c * a), fl(w_c * b))``: every term of a location set's spread is
the least ``cost`` entry of its cell over the set. Once per scan, each cell
gets its least and second-least open ``cost`` (``first`` and ``second``) and
the first open location that attains ``first``, and each closed location
``i`` gets ``base[i] = sum_c min(first_c, cost_ic)``. Closing ``k`` moves
only the cells attached to ``k`` from ``first`` to ``second``, so the spread
of swap ``(k, i)`` is ``base[i]`` plus the sum of
``min(second_c, cost_ic) - min(first_c, cost_ic)`` over those cells.

That estimate ``E`` sums in another order than the spread, so it is only a
filter. Let ``u = eps / 2``, ``n`` the number of cells, ``p_c`` the terms of
the swap's spread ``S`` and ``P`` their exact sum. Summing nonnegative terms
in any order errs by at most ``(n - 1) u`` times their sum (Higham, "Accuracy
and Stability of Numerical Algorithms", 2002, section 4.2), so
``|S - P| <= (n - 1) u P``. The terms of ``base`` are at most the ``p_c``,
and the correction terms are nonnegative, each rounded once, and sum to at
most ``P``; with the final addition, ``|E - P| <= 2 (n + 1) u P`` to first
order. Hence ``|E - S| <= 3 (n + 1) u E`` up to terms of order ``(n u)^2``,
and the margin ``tau = 4 (n + 2) eps E`` exceeds that by a factor of more
than two, which also covers the rounding of ``threshold + tau``. A swap whose
estimate is at least ``threshold + tau`` cannot pass and is skipped. Every
other swap is scored exactly, in scan order, as the sum of its terms in cell
order: the pairwise sum that ``model.spread`` takes of the same terms. The
accepted swaps and their logged spreads are therefore those of scoring every
swap exactly, bit for bit.
"""
from __future__ import annotations

import numpy as np

from .model import Assignment, Instance, check_locations, check_number, check_valid, sorted_locations, spread

DEFAULT_KAPPA = 1e-4
_EPS = float(np.finfo(float).eps)


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


class _Scan:
    """The tables of one scan over the location set ``is_open``, in units of
    ``cost = fronthaul.T * cell_totals``: each cell's ``first`` and ``second``
    open cost (``second`` is ``inf`` when one location is open) and the
    position in ``open_locs`` of the location it is attached to, the rows of
    the closed locations and their ``base`` sums."""

    def __init__(self, cost: np.ndarray, is_open: np.ndarray):
        self.open_locs = np.flatnonzero(is_open)
        self.closed = np.flatnonzero(~is_open)
        c_open = cost[self.open_locs]
        cells = np.arange(cost.shape[1])
        self.nearest = c_open.argmin(axis=0)
        self.first = c_open[self.nearest, cells]
        c_open[self.nearest, cells] = np.inf
        self.second = c_open.min(axis=0)
        self.c_closed = cost[self.closed]
        self.base = np.minimum(self.first, self.c_closed).sum(axis=1)

    def estimates(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Estimated spread of every swap that closes ``open_locs[k]``, one
        per closed location, and the margin ``tau`` that bounds its error."""
        moved = (self.nearest == k).nonzero()[0]
        c = self.c_closed[:, moved]
        estimate = self.base + (np.minimum(self.second[moved], c) - np.minimum(self.first[moved], c)).sum(axis=1)
        return estimate, _margin(estimate, self.first.size)

    def first_improving(self, threshold: float):
        """``(out_loc, in_loc, spread)`` of the first swap in scan order whose
        spread is below ``threshold``, or ``None``."""
        for k, out_loc in enumerate(self.open_locs):
            estimate, tau = self.estimates(k)
            survivors = (estimate < threshold + tau).nonzero()[0]
            if survivors.size:
                c_rest = np.where(self.nearest == k, self.second, self.first)
                for i in survivors:
                    score = float(np.minimum(c_rest, self.c_closed[i]).sum())
                    if score < threshold:
                        return int(out_loc), int(self.closed[i]), score
        return None


def _margin(estimate: np.ndarray, n_cells: int) -> np.ndarray:
    """``tau``, the bound on ``|estimate - exact score|`` derived above."""
    return (4.0 * (n_cells + 2) * _EPS) * estimate


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
    cost = np.multiply(instance.fronthaul.T, instance.cell_totals, order="C")
    is_open = np.zeros(instance.n_candidates, dtype=bool)
    is_open[list(initial.server_locations)] = True
    current_spread = spread(instance, initial)
    for _ in range(10 * instance.n_candidates):
        swap = _Scan(cost, is_open).first_improving((1.0 - kappa) * current_spread)
        if swap is None:
            break
        out_loc, in_loc, current_spread = swap
        is_open[out_loc] = False
        is_open[in_loc] = True
        if accepted_log is not None:
            accepted_log.append(current_spread)
    return assign_cells(instance, np.flatnonzero(is_open))
