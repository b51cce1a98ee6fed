import math

import numpy as np
import pytest

from edgeplace.fm import cost_descent
from edgeplace.generate import GenSpec, gen_uniform
from edgeplace.hungarian import relocate
from edgeplace.kmedian import kmedian_search
from edgeplace.model import Assignment, cost, spread, validate
from edgeplace.pipeline import ALGORITHMS, SolverConfig, random_assignment, solve

from helpers import random_instance


@pytest.fixture(scope="module")
def small_instance():
    rng = np.random.default_rng(99)
    return random_instance(rng, 18, 8, 3, capacity=0.15)


@pytest.mark.parametrize("phase", [kmedian_search, cost_descent, relocate], ids=lambda f: f.__name__)
def test_phase_rejects_cell_outside_server_set(phase):
    # cells 6 and 7 sit on location 3, which holds no server
    inst = random_instance(np.random.default_rng(31), 8, 5, 2)
    bad = Assignment((0, 1), np.array([0, 1, 0, 1, 0, 1, 3, 3]))
    with pytest.raises(ValueError, match="cell-location violated at index 6"):
        phase(inst, bad)


class TestSolverConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            SolverConfig("GREEDY", seed=0)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            SolverConfig("RAND", seed=0, kappa=2.0)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_rejects_bad_kappa_for_every_algorithm(self, algo):
        with pytest.raises(ValueError, match="kappa"):
            SolverConfig(algo, seed=0, kappa=0.0)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig("FM_HUNG", seed=0, epsilon=math.nan)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"kappa": "x"}, "kappa must be a number, got 'x'"),
            ({"epsilon": "inf"}, "epsilon must be a number, got 'inf'"),
            ({"epsilon": None}, "epsilon must be a number, got None"),
            ({"epsilon": True}, "epsilon must be a number, got True"),
        ],
    )
    def test_rejects_a_non_number(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig("RAND", seed=0, **overrides)

    def test_epsilon_inf_allowed(self):
        assert math.isinf(SolverConfig("RAND", seed=0).epsilon)

    def test_rejects_non_integer_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            SolverConfig("RAND", seed=1.5)

    def test_rejects_a_bool_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer, got True"):
            SolverConfig("RAND", seed=True)


class TestRandomAssignment:
    def test_deterministic(self, small_instance):
        a = random_assignment(small_instance, 7)
        b = random_assignment(small_instance, 7)
        assert a == b

    def test_valid(self, small_instance):
        for seed in range(10):
            assert validate(small_instance, random_assignment(small_instance, seed)) is None


class TestSolve:
    def test_single_server_degenerate(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 6, 3, 1, capacity=0.4)
        result = solve(inst, SolverConfig("KMED_FM_HUNG", seed=0))
        # a single server carries all demand; only the capacity cap bites
        assert result.objectives.cost == pytest.approx(1.0 - min(0.4, 1.0), abs=1e-9)

    def test_deterministic_trace(self, small_instance):
        cfg = SolverConfig("KMED_FM_HUNG", seed=11, epsilon=0.1)
        r1 = solve(small_instance, cfg)
        r2 = solve(small_instance, cfg)
        assert r1.assignment == r2.assignment
        assert [(p.name, p.cost, p.spread, p.events) for p in r1.trace] == [
            (p.name, p.cost, p.spread, p.events) for p in r2.trace
        ]

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_output_valid_and_trace_consistent(self, small_instance, algo):
        result = solve(small_instance, SolverConfig(algo, seed=3))
        assert validate(small_instance, result.assignment) is None
        last = result.trace[-1]
        assert last.cost == pytest.approx(cost(small_instance, result.assignment), abs=1e-12)
        assert last.spread == pytest.approx(spread(small_instance, result.assignment), abs=1e-12)

    def test_rand_is_initial_only(self, small_instance):
        result = solve(small_instance, SolverConfig("RAND", seed=5))
        assert [p.name for p in result.trace] == ["initial"]
        assert result.assignment == random_assignment(small_instance, 5)

    def test_phase_names_per_algorithm(self, small_instance):
        names = lambda algo: [p.name for p in solve(small_instance, SolverConfig(algo, seed=2)).trace]
        assert names("KMED") == ["initial", "kmedian"]
        assert names("FM_HUNG") == ["initial", "refine", "relocate"]
        assert names("KMED_FM_HUNG") == ["initial", "kmedian", "refine", "relocate"]

    @pytest.mark.parametrize("epsilon", [math.inf, 0.1])
    def test_phase_boundary_contracts(self, small_instance, epsilon):
        inst = small_instance
        for seed in range(8):
            result = solve(inst, SolverConfig("KMED_FM_HUNG", seed=seed, epsilon=epsilon))
            by_name = {p.name: p for p in result.trace}
            initial, kmed = by_name["initial"], by_name["kmedian"]
            refine, reloc = by_name["refine"], by_name["relocate"]
            assert kmed.spread <= initial.spread + 1e-12
            if math.isfinite(epsilon):
                assert refine.spread <= (1.0 + epsilon) * kmed.spread + 1e-12
            assert refine.cost <= kmed.cost + 1e-12
            assert reloc.cost == pytest.approx(refine.cost, abs=1e-12)
            assert reloc.spread <= refine.spread + 1e-12
            # per-event logs: swap spreads strictly decreasing, commit costs too
            swaps = kmed.events
            for before, after in zip([initial.spread] + swaps, swaps):
                assert after < before
            commit_costs = [c for c, _ in refine.events]
            for before, after in zip([kmed.cost] + commit_costs, commit_costs):
                assert after < before

    def test_same_seed_shares_initial_assignment(self, small_instance):
        traces = {
            algo: solve(small_instance, SolverConfig(algo, seed=21)).trace[0]
            for algo in ALGORITHMS
        }
        first = next(iter(traces.values()))
        for rec in traces.values():
            assert rec.cost == first.cost
            assert rec.spread == first.spread

    def test_kmed_beats_rand_on_spread_statistically(self):
        spec = GenSpec(n_cells=40, n_candidates=12, n_servers=4, capacity=0.2, seed=5)
        inst = gen_uniform(spec)
        kmed = []
        rand = []
        for seed in range(12):
            kmed.append(solve(inst, SolverConfig("KMED", seed=seed)).objectives.spread)
            rand.append(solve(inst, SolverConfig("RAND", seed=seed)).objectives.spread)
        assert np.mean(kmed) < np.mean(rand)
