"""Server relocation: rectangular min-cost matching of servers onto locations.

Phase 3 keeps every cellset intact and only moves the servers: entry (s, l)
of the relocation matrix is the spread that server s's cells would incur if
the server stood at location l. An injective minimum-total matching of
servers to locations therefore minimizes the spread without touching the
cost.

The matching solver is a potential-based augmenting-path method on the
m x n matrix itself (O(m^2 n)). Among equal-total matchings it returns the
lexicographically smallest one in row-major order, found by a greedy pass
over the zero-reduced-cost subgraph of the optimal potentials; this keeps
downstream outputs byte-stable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Assignment, Instance, check_entries, check_valid


@dataclass(frozen=True)
class RelocationMatrix:
    """Rows are the non-empty servers (identified by their current location,
    ascending); columns are all candidate locations."""

    servers: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != len(self.servers):
            raise ValueError("entries must have one row per server")
        if entries.shape[0] > entries.shape[1]:
            raise ValueError("more servers than candidate locations")
        check_entries("relocation matrix", entries)
        entries.setflags(write=False)
        object.__setattr__(self, "servers", tuple(int(s) for s in self.servers))
        object.__setattr__(self, "entries", entries)


def build_matrix(instance: Instance, assignment: Assignment) -> RelocationMatrix:
    """Relocation costs for every non-empty server against every location."""
    w = instance.cell_totals
    occupied = assignment.occupied_servers()
    rows = [(instance.fronthaul[cells] * w[cells, None]).sum(axis=0) for _, cells in occupied]
    return RelocationMatrix(tuple(l for l, _ in occupied), np.array(rows))


def _min_cost(cost: np.ndarray):
    """Optimal assignment of every row of an m x n matrix (m <= n) via
    shortest augmenting paths.

    Returns (col_of_row, row_potentials, col_potentials). Column index ``n``
    is a virtual root used while growing alternating trees. Augmentation only
    lowers the potentials of matched columns, so free columns keep ``v = 0``.
    """
    m, n = cost.shape
    u = np.zeros(m)
    v = np.zeros(n + 1)
    row_of = np.full(n + 1, -1, dtype=int)
    for r in range(m):
        row_of[n] = r
        j0 = n
        min_to = np.full(n, np.inf)
        way = np.full(n, -1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            r0 = row_of[j0]
            free = ~used[:n]
            free_idx = np.flatnonzero(free)
            slack = cost[r0, free_idx] - u[r0] - v[free_idx]
            better = slack < min_to[free_idx]
            min_to[free_idx[better]] = slack[better]
            way[free_idx[better]] = j0
            j1 = int(free_idx[np.argmin(min_to[free_idx])])
            delta = min_to[j1]
            used_idx = np.flatnonzero(used)
            u[row_of[used_idx]] += delta
            v[used_idx] -= delta
            min_to[free] -= delta
            j0 = j1
            if row_of[j0] == -1:
                break
        while j0 != n:
            j_prev = int(way[j0])
            row_of[j0] = row_of[j_prev]
            j0 = j_prev
    col_of = np.empty(m, dtype=int)
    matched = np.flatnonzero(row_of[:n] != -1)
    col_of[row_of[matched]] = matched
    return col_of, u, v[:n]


def _augment(row: int, tight, col_of, row_of, visited) -> bool:
    """Find an alternating path from ``row`` to a free column in the tight graph."""
    for c in np.flatnonzero(tight[row]):
        if visited[c]:
            continue
        visited[c] = True
        owner = int(row_of[c])
        if owner == -1 or _augment(owner, tight, col_of, row_of, visited):
            col_of[row] = c
            row_of[c] = row
            return True
    return False


def _lex_smallest(cost: np.ndarray, col_of: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Rewire an optimal matching to the lexicographically smallest optimal one.

    Every optimal matching lives inside the tight subgraph of the optimal
    potentials, and every matching of that subgraph that covers all rows and
    all columns with ``v < 0`` is optimal. A virtual row ``m`` holds every
    free column and is tight where ``-v <= tol``. Rows are canonicalized in
    order by trying smaller tight columns and re-matching the displaced row.
    The tolerance also admits near-ties, so a rewiring is kept only if it
    does not raise the row-order total.
    """
    m, n = cost.shape
    tol = 1e-9 * (1.0 + float(np.abs(cost).max(initial=0.0)))
    tight = np.vstack([(cost - u[:, None] - v[None, :]) <= tol, -v <= tol])
    col_of = np.append(col_of, -1)
    row_of = np.full(n, m, dtype=int)
    row_of[col_of[:m]] = np.arange(m)
    total = _row_total(cost, col_of[:m])
    fixed = np.zeros(n, dtype=bool)
    for r in range(m):
        c_cur = int(col_of[r])
        for c in np.flatnonzero(tight[r, :c_cur] & ~fixed[:c_cur]):
            saved = col_of.copy(), row_of.copy()
            displaced = int(row_of[c])
            row_of[c] = r
            row_of[c_cur] = -1
            visited = fixed.copy()
            visited[c] = True
            if _augment(displaced, tight, col_of, row_of, visited):
                col_of[r] = c
                rewired = _row_total(cost, col_of[:m])
                if rewired <= total:
                    total = rewired
                    break
            col_of[:], row_of[:] = saved
        fixed[col_of[r]] = True
    return col_of[:m]


def solve_matching(matrix: RelocationMatrix) -> dict[int, int]:
    """Injective minimum-total map from each server to a candidate location.

    Ties between equal-total matchings resolve to the row-major
    lexicographically smallest column choice.
    """
    col_of, u, v = _min_cost(matrix.entries)
    col_of = _lex_smallest(matrix.entries, col_of, u, v)
    return {server: int(col_of[r]) for r, server in enumerate(matrix.servers)}


def _row_total(cost: np.ndarray, col_of) -> float:
    """Total of row ``r``'s entry in column ``col_of[r]``, summed in row order."""
    total = 0.0
    for r, c in enumerate(col_of):
        total += cost[r, c]
    return float(total)


def matching_total(matrix: RelocationMatrix, match: dict[int, int]) -> float:
    """Total relocation cost of a matching, summed in row order."""
    return _row_total(matrix.entries, [match[server] for server in matrix.servers])


def relocate(instance: Instance, assignment: Assignment) -> Assignment:
    """Move every non-empty server to its matched location, carrying its cells.

    Empty server slots are re-seated on the lowest-index unused candidate
    locations so the server count is preserved. The cell partition is intact,
    so the cost is unchanged; the identity relocation is always feasible, so
    the spread never increases. Raises ``ValueError`` for an invalid
    ``assignment``.
    """
    check_valid(instance, assignment)
    matrix = build_matrix(instance, assignment)
    match = solve_matching(matrix)
    target = np.zeros(instance.n_candidates, dtype=np.int64)
    target[list(match)] = list(match.values())
    used = set(match.values())
    n_empty = instance.n_servers - len(matrix.servers)
    refill = [l for l in range(instance.n_candidates) if l not in used][:n_empty]
    return Assignment(tuple(used | set(refill)), target[assignment.cell_to_location])
