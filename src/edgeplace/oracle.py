"""Exhaustive ground truth for tiny instances.

Enumerates every feasible assignment (every location subset of the right
size crossed with every cell map onto that subset) and reports the exact
cost and spread optima with witnesses, plus the Pareto set of achievable
(cost, spread) pairs. Used as the oracle for heuristic tests; refuses
instances whose search space exceeds the budget rather than truncating.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Assignment, Instance, cellset_load, check_integer, cost_of_loads


class OracleBudgetError(RuntimeError):
    """Search space larger than the configured enumeration budget."""


@dataclass(frozen=True)
class OracleResult:
    min_cost: float
    cost_witness: Assignment
    min_spread: float
    spread_witness: Assignment
    pareto: tuple[tuple[float, float], ...]  # non-dominated (cost, spread), cost ascending


def search_space_size(n_candidates: int, n_servers: int, n_cells: int) -> int:
    return math.comb(n_candidates, n_servers) * n_servers**n_cells


def _pareto_insert(front: list[tuple[float, float]], point: tuple[float, float]) -> None:
    """Keep ``front`` the non-dominated set after offering ``point``."""
    c, s = point
    for pc, ps in front:
        if pc <= c and ps <= s:
            return  # dominated or duplicate
    front[:] = [(pc, ps) for pc, ps in front if not (c <= pc and s <= ps)]
    front.append(point)


def check_budget(budget: int) -> int:
    """An enumeration budget is a non-negative integer."""
    if check_integer("budget", budget) < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget


def enumerate_assignments(instance: Instance, budget: int = 10_000_000) -> OracleResult:
    """Exact optima and Pareto set over every feasible assignment. ``ValueError``
    for a bad ``budget``, ``OracleBudgetError`` for a search space larger than it."""
    check_budget(budget)
    size = search_space_size(instance.n_candidates, instance.n_servers, instance.n_cells)
    if size > budget:
        raise OracleBudgetError(
            f"search space has {size} assignments, budget is {budget}"
        )
    w = instance.workload
    capacity = instance.capacity
    totals = instance.cell_totals
    n = instance.n_cells
    k = instance.n_servers

    best_cost = None
    best_cost_witness = None
    best_spread = None
    best_spread_witness = None
    front: list[tuple[float, float]] = []

    for subset in itertools.combinations(range(instance.n_candidates), k):
        d_sub = instance.fronthaul[:, subset]
        for cmap in itertools.product(range(k), repeat=n):
            spread_val = 0.0
            groups = [[] for _ in range(k)]
            for i, g in enumerate(cmap):
                groups[g].append(i)
                spread_val += d_sub[i, g] * totals[i]
            loads = [cellset_load(w, np.array(cells, dtype=int)) for cells in groups]
            cost_val = cost_of_loads(loads, capacity)
            if best_cost is None or cost_val < best_cost:
                best_cost = cost_val
                best_cost_witness = (subset, cmap)
            if best_spread is None or spread_val < best_spread:
                best_spread = spread_val
                best_spread_witness = (subset, cmap)
            _pareto_insert(front, (cost_val, float(spread_val)))

    def to_assignment(witness):
        subset, cmap = witness
        return Assignment(subset, np.array([subset[g] for g in cmap]))

    front.sort()
    return OracleResult(
        min_cost=float(best_cost),
        cost_witness=to_assignment(best_cost_witness),
        min_spread=float(best_spread),
        spread_witness=to_assignment(best_spread_witness),
        pareto=tuple(front),
    )
