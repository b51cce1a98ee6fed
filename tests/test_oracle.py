import numpy as np
import pytest

from edgeplace.model import Assignment, Instance, cost, objectives, spread, validate
from edgeplace.oracle import (
    OracleBudgetError,
    enumerate_assignments,
    search_space_size,
)

from helpers import random_assignment, random_instance


def test_single_server_single_candidate():
    w = np.array([[0.5, 0.25], [0.25, 0.25]])
    inst = Instance(np.zeros((2, 2)), np.array([[1.0, 1.0]]), w, 1, 0.6)
    result = enumerate_assignments(inst)
    only = Assignment((0,), np.array([0, 0]))
    assert result.min_cost == pytest.approx(cost(inst, only))
    assert result.min_spread == pytest.approx(spread(inst, only))
    assert result.cost_witness == only
    assert len(result.pareto) == 1


def test_partition_style_instance_reaches_zero_cost():
    # diagonal-only demand {3,1,1,2,2,1}/10, two servers, capacity one half:
    # the split {3,2} vs {1,1,2,1} serves everything at the edge
    diag = np.array([3, 1, 1, 2, 2, 1]) / 10.0
    w = np.diag(diag)
    cells = np.zeros((6, 2))
    cands = np.zeros((4, 2))
    ones = np.ones((6, 4))
    inst = Instance(cells, cands, w, 2, 0.5, fronthaul=ones)
    result = enumerate_assignments(inst)
    assert result.min_cost == pytest.approx(0.0)
    # with unit distances the spread is the same for every assignment
    assert result.min_spread == pytest.approx(diag.sum())
    assert len(result.pareto) == 1


def test_budget_guard_is_explicit():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 10, 8, 4)
    assert search_space_size(8, 4, 10) == 70 * 4**10
    with pytest.raises(OracleBudgetError, match="budget"):
        enumerate_assignments(inst, budget=1000)


@pytest.mark.parametrize(
    "budget, match",
    [(-1, "budget must be >= 0, got -1"), (None, "budget must be an integer, got None"),
     ("10", "budget must be an integer, got '10'")],
)
def test_rejects_a_bad_budget(budget, match):
    inst = Instance(np.zeros((2, 2)), np.zeros((1, 2)), np.array([[0.5, 0.25], [0.25, 0.25]]), 1, 0.6)
    with pytest.raises(ValueError, match=match):
        enumerate_assignments(inst, budget=budget)


def test_oracle_bounds_random_assignments():
    rng = np.random.default_rng(1)
    for _ in range(5):
        inst = random_instance(rng, 5, 4, 2, capacity=float(rng.uniform(0.2, 0.8)))
        result = enumerate_assignments(inst)
        assert validate(inst, result.cost_witness) is None
        assert validate(inst, result.spread_witness) is None
        for _ in range(100):
            a = random_assignment(rng, inst)
            assert cost(inst, a) >= result.min_cost - 1e-12
            assert spread(inst, a) >= result.min_spread - 1e-12


def test_pareto_front_is_mutually_non_dominated():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 5, 4, 2)
    result = enumerate_assignments(inst)
    pts = result.pareto
    assert list(pts) == sorted(pts)
    for i, (c1, s1) in enumerate(pts):
        for j, (c2, s2) in enumerate(pts):
            if i == j:
                continue
            assert not (c1 <= c2 and s1 <= s2 and (c1 < c2 or s1 < s2))


def test_no_feasible_point_dominates_the_front():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, 5, 4, 2)
    result = enumerate_assignments(inst)
    for _ in range(200):
        a = random_assignment(rng, inst)
        obj = objectives(inst, a)
        # a feasible point can never dominate a front point
        for pc, ps in result.pareto:
            assert not (obj.cost <= pc and obj.spread <= ps and (obj.cost < pc - 1e-12 or obj.spread < ps - 1e-12))


def test_witness_objectives_match_reported_optima():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, 5, 4, 2)
    result = enumerate_assignments(inst)
    assert cost(inst, result.cost_witness) == pytest.approx(result.min_cost, abs=1e-12)
    assert spread(inst, result.spread_witness) == pytest.approx(result.min_spread, abs=1e-12)
