import math

import numpy as np
import pytest

from edgeplace.generate import (
    GenSpec,
    gen_gravity,
    gen_uniform,
    generate,
    workload_distance_correlation,
)
from edgeplace.model import GridSpec, validate


def uniform_spec(seed=1, **overrides):
    base = dict(n_cells=30, n_candidates=8, n_servers=3, capacity=0.2, seed=seed)
    base.update(overrides)
    return GenSpec(**base)


def gravity_spec(seed=1, corr_length=0.1, **overrides):
    base = dict(
        n_cells=100,
        n_candidates=10,
        n_servers=3,
        capacity=0.2,
        seed=seed,
        layout="grid",
        grid=GridSpec(10, 10, 0.1),
        workload_model="gravity",
        corr_length=corr_length,
    )
    base.update(overrides)
    return GenSpec(**base)


class TestGenSpec:
    def test_grid_layout_needs_matching_grid(self):
        with pytest.raises(ValueError, match="rows"):
            GenSpec(
                n_cells=9,
                n_candidates=3,
                n_servers=2,
                capacity=0.5,
                seed=0,
                layout="grid",
                grid=GridSpec(2, 2, 1.0),
            )

    def test_gravity_needs_positive_corr_length(self):
        with pytest.raises(ValueError, match="corr_length"):
            GenSpec(
                n_cells=4,
                n_candidates=2,
                n_servers=1,
                capacity=0.5,
                seed=0,
                workload_model="gravity",
            )

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            uniform_spec(layout="hexagons")

    def test_unknown_workload_model_rejected(self):
        with pytest.raises(ValueError, match="workload_model must be one of"):
            uniform_spec(workload_model="poisson")

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
            uniform_spec(seed=2.5)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_gravity_needs_positive_activity_sigma(self, sigma):
        with pytest.raises(ValueError, match="activity_sigma must be positive"):
            gravity_spec(activity_sigma=sigma)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"capacity": "0.1"}, "capacity must be a number, got '0.1'"),
            ({"corr_length": "0.1"}, "corr_length must be a number, got '0.1'"),
            ({"activity_sigma": "1"}, "activity_sigma must be a number, got '1'"),
        ],
    )
    def test_rejects_a_non_number(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            gravity_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"corr_length": "x", "activity_sigma": None}, "^corr_length applies only to the gravity model, got 'x'$"),
            ({"corr_length": 0.1}, "^corr_length applies only to the gravity model, got 0.1$"),
            ({"activity_sigma": 0.5}, "^activity_sigma applies only to the gravity model, got 0.5$"),
        ],
        ids=["both", "corr_length", "activity_sigma"],
    )
    def test_uniform_rejects_a_gravity_parameter(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            uniform_spec(**overrides)


class TestGenUniform:
    def test_deterministic_given_seed(self):
        a = gen_uniform(uniform_spec(seed=42))
        b = gen_uniform(uniform_spec(seed=42))
        assert a == b

    def test_different_seed_differs(self):
        a = gen_uniform(uniform_spec(seed=1))
        b = gen_uniform(uniform_spec(seed=2))
        assert a != b

    def test_output_is_valid_instance(self):
        inst = gen_uniform(uniform_spec())
        assert abs(np.triu(inst.workload).sum() - 1.0) < 1e-9
        assert np.array_equal(inst.workload, inst.workload.T)
        assert (inst.workload >= 0).all()

    def test_rejects_gravity_model(self):
        with pytest.raises(ValueError):
            gen_uniform(gravity_spec())

    def test_stream_order_and_raw_weight_mean(self):
        # Re-draw the documented stream: coordinates first, then the raw
        # upper-triangle weights. The raw weights are uniform(0,1), so their
        # mean must sit within 3 standard errors of 0.5, and the generator's
        # normalized matrix must equal raw / raw.sum() bit for bit.
        spec = uniform_spec(seed=9, n_cells=500, n_candidates=50, n_servers=10)
        inst = gen_uniform(spec)
        rng = np.random.default_rng(spec.seed)
        rng.random((spec.n_cells, 2))
        rng.random((spec.n_candidates, 2))
        k = spec.n_cells * (spec.n_cells + 1) // 2
        raw = rng.random(k)
        se = math.sqrt(1.0 / 12.0 / k)
        assert abs(raw.mean() - 0.5) < 3 * se
        expected = raw / raw.sum()
        assert np.array_equal(inst.workload[np.triu_indices(spec.n_cells)], expected)


class TestGenGravity:
    def test_deterministic_given_seed(self):
        a = gen_gravity(gravity_spec(seed=3))
        b = gen_gravity(gravity_spec(seed=3))
        assert a == b

    def test_output_is_valid_instance(self):
        inst = gen_gravity(gravity_spec())
        assert abs(np.triu(inst.workload).sum() - 1.0) < 1e-9
        assert (inst.workload >= 0).all()

    def test_grid_centers_used_for_cells(self):
        spec = gravity_spec()
        inst = gen_gravity(spec)
        assert np.array_equal(inst.cell_coords, spec.grid.cell_centers())
        assert inst.grid == spec.grid

    def test_short_correlation_length_is_geography_correlated(self):
        spec = gravity_spec(
            seed=5, n_cells=625, grid=GridSpec(25, 25, 0.04), corr_length=0.1
        )
        inst = gen_gravity(spec)
        assert workload_distance_correlation(inst) < -0.2

    def test_infinite_correlation_length_degenerates(self):
        spec = gravity_spec(seed=5, corr_length=math.inf)
        inst = gen_gravity(spec)
        assert abs(workload_distance_correlation(inst)) < 0.05
        # No decay at all: the workload is the normalized outer product of
        # the activity draw, which follows the candidate draw.
        rng = np.random.default_rng(spec.seed)
        rng.random((spec.n_candidates, 2))
        activity = rng.lognormal(mean=0.0, sigma=spec.activity_sigma, size=spec.n_cells)
        upper = np.outer(activity, activity)[np.triu_indices(spec.n_cells)]
        assert np.array_equal(inst.workload[np.triu_indices(spec.n_cells)], upper / upper.sum())

    def test_rejects_uniform_model(self):
        with pytest.raises(ValueError, match="gravity"):
            gen_gravity(uniform_spec())

    def test_random_layout_allowed(self):
        spec = gravity_spec(layout="random", grid=None, n_cells=50)
        inst = gen_gravity(spec)
        assert validate(inst, _trivial_assignment(inst)) is None
        assert inst.grid is None


def _trivial_assignment(inst):
    from edgeplace.model import Assignment

    locs = tuple(range(inst.n_servers))
    return Assignment(locs, np.zeros(inst.n_cells, dtype=int))


def test_generate_dispatches_by_model():
    assert generate(uniform_spec(seed=8)) == gen_uniform(uniform_spec(seed=8))
    assert generate(gravity_spec(seed=8)) == gen_gravity(gravity_spec(seed=8))
