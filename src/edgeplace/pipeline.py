"""End-to-end solvers.

Four algorithms share one seeded initial assignment:

* ``RAND``          -- the random initial assignment itself.
* ``KMED``          -- spread-only location swap search.
* ``FM_HUNG``       -- cost refinement from the random initial, then one
                       server relocation pass.
* ``KMED_FM_HUNG``  -- the three-phase method: swap search, then cost
                       refinement capped at ``(1 + epsilon)`` times the
                       phase-one spread, then relocation.

The master seed is split into two named sub-streams (location subset, cell
map), so every algorithm run with the same seed starts from the same initial
assignment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fm import cost_descent
from .hungarian import relocate
from .kmedian import DEFAULT_KAPPA, check_kappa, kmedian_search
from .model import Assignment, Instance, Objectives, check_number, check_seed, objectives

ALGORITHMS = ("RAND", "KMED", "FM_HUNG", "KMED_FM_HUNG")


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str
    seed: int
    kappa: float = DEFAULT_KAPPA
    epsilon: float = math.inf  # allowed relative spread growth during cost refinement

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        check_kappa(self.kappa)
        if not check_number("epsilon", self.epsilon) >= 0:  # rejects NaN too
            raise ValueError("epsilon must be >= 0 (math.inf allowed)")
        check_seed(self.seed)


@dataclass
class PhaseRecord:
    """Objectives after one phase; ``events`` holds the phase's own log
    (accepted-swap spreads, or (cost, spread) per committed refinement)."""

    name: str
    cost: float
    spread: float
    events: list = field(default_factory=list)


@dataclass
class SolveResult:
    assignment: Assignment
    objectives: Objectives
    trace: list[PhaseRecord]


def random_assignment(instance: Instance, seed: int) -> Assignment:
    """Seeded random initial: a uniform location subset plus a uniform cell map.

    Stream order: sub-stream 0 draws the location subset, sub-stream 1 the
    cell map over the (sorted) subset.
    """
    loc_ss, map_ss = np.random.SeedSequence(seed).spawn(2)
    loc_rng = np.random.default_rng(loc_ss)
    map_rng = np.random.default_rng(map_ss)
    locs = np.sort(loc_rng.choice(instance.n_candidates, size=instance.n_servers, replace=False))
    cmap = locs[map_rng.integers(0, instance.n_servers, size=instance.n_cells)]
    return Assignment(tuple(int(l) for l in locs), cmap)


def solve(instance: Instance, config: SolverConfig) -> SolveResult:
    """Run one algorithm and record objectives after every phase."""
    current = random_assignment(instance, config.seed)
    trace = [_record("initial", instance, current)]

    if config.algorithm in ("KMED", "KMED_FM_HUNG"):
        swap_log: list = []
        current = kmedian_search(instance, current, kappa=config.kappa, accepted_log=swap_log)
        trace.append(_record("kmedian", instance, current, swap_log))

    if config.algorithm in ("FM_HUNG", "KMED_FM_HUNG"):
        cap = math.inf if math.isinf(config.epsilon) else (1.0 + config.epsilon) * trace[-1].spread
        commit_log: list = []
        current = cost_descent(instance, current, spread_cap=cap, commit_log=commit_log)
        trace.append(_record("refine", instance, current, commit_log))
        current = relocate(instance, current)
        trace.append(_record("relocate", instance, current))

    # ``_record`` validated the final assignment when it evaluated it.
    return SolveResult(current, Objectives(trace[-1].cost, trace[-1].spread), trace)


def _record(name: str, instance: Instance, assignment: Assignment, events: list | None = None) -> PhaseRecord:
    obj = objectives(instance, assignment)
    return PhaseRecord(name, obj.cost, obj.spread, events if events is not None else [])
