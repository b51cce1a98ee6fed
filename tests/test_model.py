import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.model import (
    Assignment,
    GridSpec,
    Instance,
    MalformedAssignmentError,
    Violation,
    cost,
    cost_pairwise,
    euclidean_fronthaul,
    objectives,
    server_load,
    spread,
    validate,
)

from helpers import (
    all_assignments,
    loop_cost,
    loop_server_load,
    loop_spread,
    random_assignment,
    random_instance,
)


def two_cell_instance(capacity=1.0, n_candidates=2, fronthaul=None):
    # w_11 = w_22 = 0.25, w_12 = 0.5
    w = np.array([[0.25, 0.5], [0.5, 0.25]])
    cells = np.array([[0.0, 0.0], [1.0, 0.0]])
    cands = np.linspace([0.0, 1.0], [1.0, 1.0], n_candidates)
    return Instance(cells, cands, w, 2, capacity, fronthaul=fronthaul)


class TestInstanceConstruction:
    def test_rejects_asymmetric_workload(self):
        w = np.array([[0.5, 0.4], [0.1, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            Instance(np.zeros((2, 2)), np.zeros((2, 2)), w, 1, 0.5)

    def test_rejects_unnormalized_workload(self):
        w = np.array([[0.5, 0.2], [0.2, 0.5]])  # upper total 1.2
        with pytest.raises(ValueError, match="total"):
            Instance(np.zeros((2, 2)), np.zeros((2, 2)), w, 1, 0.5)

    def test_rejects_negative_workload(self):
        w = np.array([[1.5, -0.25], [-0.25, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            Instance(np.zeros((2, 2)), np.zeros((2, 2)), w, 1, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        w = np.array([[0.5, 0.25], [0.25, 0.25]])
        cells = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            Instance(cells, np.zeros((1, 2)), w, 1, 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            Instance(np.zeros((2, 2)), cells, w, 1, 0.5)

    def test_rejects_non_finite_workload(self):
        w = np.array([[0.5, math.nan], [math.nan, 0.5]])
        with pytest.raises(ValueError, match="non-finite"):
            Instance(np.zeros((2, 2)), np.zeros((1, 2)), w, 1, 0.5)

    def test_rejects_non_finite_fronthaul(self):
        w = np.array([[0.5, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError, match="non-finite"):
            Instance(np.zeros((2, 2)), np.zeros((1, 2)), w, 1, 0.5, fronthaul=[[0.0], [math.inf]])
        # Coordinates so large that their Euclidean distance overflows.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            Instance(np.array([[0.0, 0.0], [1e300, 1e300]]), np.array([[-1e300, 0.0]]), w, 1, 0.5)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("cell_coords", np.zeros((2, 3)), r"cell_coords must be an \(n_cells, 2\) array"),
            ("candidate_coords", np.zeros(2), r"candidate_coords must be an \(n_candidates, 2\) array"),
            ("workload", np.ones((1, 1)), r"workload must be \(2, 2\), got \(1, 1\)"),
            ("fronthaul", np.zeros((2, 2)), r"fronthaul must be \(n_cells, n_candidates\)"),
            ("fronthaul", [[0.0], [-1.0]], "fronthaul entries must be non-negative"),
            # Finiteness is checked before the sign, as for the workload.
            ("fronthaul", [[0.0], [-math.inf]], "fronthaul entries must be finite"),
            ("grid", GridSpec(1, 3, 1.0), r"grid rows\*cols must equal n_cells"),
            ("n_servers", 1.5, "n_servers must be an integer, got 1.5"),
            ("n_servers", True, "n_servers must be an integer, got True"),
            ("capacity", "0.5", "capacity must be a number, got '0.5'"),
        ],
    )
    def test_rejects_malformed_field(self, field, value, message):
        fields = dict(
            cell_coords=np.zeros((2, 2)),
            candidate_coords=np.zeros((1, 2)),
            workload=np.array([[0.5, 0.25], [0.25, 0.25]]),
            n_servers=1,
            capacity=0.5,
        )
        with pytest.raises(ValueError, match=message):
            Instance(**{**fields, field: value})

    def test_equality_reads_every_field(self):
        inst = two_cell_instance()
        changed = {
            "cell_coords": [[0.0, 0.0], [2.0, 0.0]],
            "candidate_coords": [[0.0, 1.0], [1.0, 2.0]],
            "workload": [[0.5, 0.0], [0.0, 0.5]],
            "n_servers": 1,
            "capacity": 0.5,
            "fronthaul": np.ones((2, 2)),
            "grid": GridSpec(1, 2, 1.0),
        }
        assert set(changed) == {f.name for f in dataclasses.fields(Instance)}
        assert dataclasses.replace(inst) == inst
        for name, value in changed.items():
            assert dataclasses.replace(inst, **{name: value}) != inst, name

    def test_rejects_too_many_servers(self):
        w = np.array([[0.5, 0.25], [0.25, 0.0]])
        with pytest.raises(ValueError):
            Instance(np.zeros((2, 2)), np.zeros((3, 2)), w, 4, 0.5)

    def test_default_fronthaul_is_euclidean(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 4, 3, 2)
        assert np.allclose(
            inst.fronthaul, euclidean_fronthaul(inst.cell_coords, inst.candidate_coords)
        )
        assert inst.has_euclidean_fronthaul()

    def test_workload_is_immutable(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 4, 3, 2)
        with pytest.raises(ValueError):
            inst.workload[0, 0] = 1.0

    def test_cell_totals_count_diagonal_once(self):
        inst = two_cell_instance()
        assert np.allclose(inst.cell_totals, [0.75, 0.75])


class TestValidate:
    def test_smallest_feasible_case_ok(self):
        inst = two_cell_instance()
        a = Assignment((0, 1), np.array([0, 1]))
        assert validate(inst, a) is None

    def test_cell_mapped_outside_server_set(self):
        inst = two_cell_instance(n_candidates=3)
        a = Assignment((0, 1), np.array([0, 2]))
        report = validate(inst, a)
        assert report is not None
        assert report.constraint == "cell-location"
        assert report.index == 1
        # with two cells outside the server set, the first one is reported
        assert validate(inst, Assignment((0, 1), np.array([2, 2]))) == Violation("cell-location", 0)

    def test_duplicate_server_location_is_malformed(self):
        inst = two_cell_instance()
        a = Assignment((0, 0), np.array([0, 0]))
        with pytest.raises(MalformedAssignmentError):
            validate(inst, a)

    def test_out_of_range_location_is_malformed(self):
        inst = two_cell_instance()
        a = Assignment((0, 5), np.array([0, 0]))
        with pytest.raises(MalformedAssignmentError):
            validate(inst, a)

    def test_wrong_server_count_is_violation(self):
        inst = two_cell_instance()
        a = Assignment((0,), np.array([0, 0]))
        report = validate(inst, a)
        assert report is not None
        assert report.constraint == "server-count"

    @pytest.mark.parametrize(
        "locs, cmap, message",
        [
            ((0, 1.9), [0, 1, 1], "server location must be an integer, got 1.9"),
            ((0, 1), [0.7, 1.2, 1.99], "cell map must hold integers, got dtype float64"),
        ],
    )
    def test_non_integer_index_is_malformed(self, locs, cmap, message):
        with pytest.raises(MalformedAssignmentError, match=message):
            Assignment(locs, np.array(cmap))

    def test_numpy_integer_indices_are_accepted(self):
        a = Assignment((np.int64(1), np.uint8(0)), np.array([1, 0], dtype=np.int32))
        assert a == Assignment((0, 1), np.array([1, 0]))
        assert a != Assignment((0, 1), np.array([0, 1]))
        assert a != Assignment((0, 2), np.array([1, 0]))

    def test_wrong_map_length_is_malformed(self):
        inst = two_cell_instance()
        with pytest.raises(MalformedAssignmentError):
            validate(inst, Assignment((0, 1), np.array([0, 1, 0])))


class TestServerLoad:
    def test_whole_workload_on_one_server(self):
        inst = two_cell_instance()
        a = Assignment((0, 1), np.array([0, 0]))
        assert server_load(inst, a, 0) == pytest.approx(1.0)
        assert server_load(inst, a, 1) == 0.0

    def test_split_excludes_cross_pair(self):
        inst = two_cell_instance()
        a = Assignment((0, 1), np.array([0, 1]))
        assert server_load(inst, a, 0) == pytest.approx(0.25)
        assert server_load(inst, a, 1) == pytest.approx(0.25)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            inst = random_instance(rng, 6, 4, 2)
            a = random_assignment(rng, inst)
            for l in a.server_locations:
                assert server_load(inst, a, l) == pytest.approx(
                    loop_server_load(inst, a, l), abs=1e-12
                )


class TestCost:
    def test_single_server_full_capacity(self):
        w = np.array([[0.25, 0.5], [0.5, 0.25]])
        inst = Instance(np.zeros((2, 2)), np.zeros((1, 2)), w, 1, 1.0)
        a = Assignment((0,), np.array([0, 0]))
        assert cost(inst, a) == pytest.approx(0.0)

    def test_split_sends_cross_pair_backhaul(self):
        inst = two_cell_instance(capacity=1.0)
        a = Assignment((0, 1), np.array([0, 1]))
        assert cost(inst, a) == pytest.approx(0.5)

    def test_overload_when_together_under_small_capacity(self):
        inst = two_cell_instance(capacity=0.5)
        together = Assignment((0, 1), np.array([0, 0]))
        split = Assignment((0, 1), np.array([0, 1]))
        assert cost(inst, together) == pytest.approx(0.5)
        assert cost(inst, split) == pytest.approx(0.5)

    def test_matches_pair_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(rng, 6, 4, 2, capacity=float(rng.uniform(0.1, 0.9)))
            a = random_assignment(rng, inst)
            assert cost_pairwise(inst, a) == pytest.approx(loop_cost(inst, a), abs=1e-12)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            k = min(int(rng.integers(1, 4)), n)
            inst = random_instance(rng, n, 5, k, capacity=float(rng.uniform(0.05, 1.0)))
            a = random_assignment(rng, inst)
            assert abs(cost(inst, a) - cost_pairwise(inst, a)) < 1e-12

    def test_capacity_lower_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            inst = random_instance(rng, 8, 5, 3, capacity=float(rng.uniform(0.05, 0.5)))
            a = random_assignment(rng, inst)
            c = cost(inst, a)
            assert -1e-12 <= c <= 1.0 + 1e-12
            assert c >= 1.0 - inst.n_servers * inst.capacity - 1e-12

    def test_cost_depends_only_on_grouping(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng, 6, 6, 3)
        a = Assignment((0, 1, 2), np.array([0, 0, 1, 1, 2, 2]))
        # relabel locations 0,1,2 -> 5,3,4 preserving the grouping
        b = Assignment((3, 4, 5), np.array([5, 5, 3, 3, 4, 4]))
        assert cost(inst, a) == pytest.approx(cost(inst, b), abs=1e-15)


class TestSpread:
    def test_colocated_servers_give_zero(self):
        w = np.array([[0.25, 0.5], [0.5, 0.25]])
        cells = np.array([[0.2, 0.3], [0.8, 0.9]])
        inst = Instance(cells, cells.copy(), w, 2, 1.0)
        a = Assignment((0, 1), np.array([0, 1]))
        assert spread(inst, a) == 0.0

    def test_uniform_distance_makes_spread_constant(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, 5, 4, 2)
        ones = np.ones((5, 4))
        flat = Instance(
            inst.cell_coords, inst.candidate_coords, inst.workload, 2, 0.5, fronthaul=ones
        )
        expected = float(flat.cell_totals.sum())
        for _ in range(10):
            a = random_assignment(rng, flat)
            assert spread(flat, a) == pytest.approx(expected)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            inst = random_instance(rng, 6, 4, 2)
            a = random_assignment(rng, inst)
            assert spread(inst, a) == pytest.approx(loop_spread(inst, a), abs=1e-12)


class TestObjectives:
    def test_forced_zero_pair(self):
        w = np.array([[1.0]])
        cells = np.array([[0.5, 0.5]])
        inst = Instance(cells, cells.copy(), w, 1, 1.0)
        a = Assignment((0,), np.array([0]))
        obj = objectives(inst, a)
        assert obj.cost == pytest.approx(0.0)
        assert obj.spread == 0.0

    def test_two_cell_split_with_unit_distances(self):
        ones = np.ones((2, 2))
        inst = two_cell_instance(capacity=1.0, fronthaul=ones)
        a = Assignment((0, 1), np.array([0, 1]))
        obj = objectives(inst, a)
        assert obj.cost == pytest.approx(0.5)
        assert obj.spread == pytest.approx(1.5)  # cell totals 0.75 each

    def test_matches_component_calls(self):
        rng = np.random.default_rng(31)
        inst = random_instance(rng, 7, 5, 3)
        a = random_assignment(rng, inst)
        obj = objectives(inst, a)
        assert obj.cost == cost(inst, a)
        assert obj.spread == spread(inst, a)

    def test_rejects_invalid_assignment(self):
        inst = two_cell_instance(n_candidates=3)
        with pytest.raises(ValueError, match="cell-location"):
            objectives(inst, Assignment((0, 1), np.array([0, 2])))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_formula_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    k = min(int(rng.integers(1, 4)), n)
    inst = random_instance(rng, n, 4, k, capacity=float(rng.uniform(0.05, 1.0)))
    a = random_assignment(rng, inst)
    assert abs(cost(inst, a) - cost_pairwise(inst, a)) < 1e-12


def test_merging_two_servers_tightens_cut_and_overload():
    # Merging two cellsets never increases the cross term and never decreases
    # total overload; checked exhaustively on small instances.
    rng = np.random.default_rng(37)
    for _ in range(10):
        inst = random_instance(rng, 6, 4, 2, capacity=float(rng.uniform(0.1, 0.6)))
        for a in all_assignments(inst):
            l0, l1 = a.server_locations
            merged = Assignment(a.server_locations, np.full(6, l0))
            def cross(x):
                cmap = x.cell_to_location
                same = cmap[:, None] == cmap[None, :]
                return float((inst.workload * ~same).sum() / 2.0)
            def overload(x):
                return sum(
                    max(0.0, server_load(inst, x, l) - inst.capacity) for l in x.server_locations
                )
            assert cross(merged) <= cross(a) + 1e-12
            assert overload(merged) >= overload(a) - 1e-12
        break  # one instance's full enumeration is already 6*2^6 checks


def test_grid_spec_centers_and_bounds():
    g = GridSpec(2, 3, 0.5, origin=(1.0, 2.0))
    centers = g.cell_centers()
    assert centers.shape == (6, 2)
    assert np.allclose(centers[0], [1.25, 2.25])
    assert np.allclose(centers[5], [2.25, 2.75])  # row 1, col 2
    assert g.bounds() == (1.0, 2.0, 2.5, 3.0)


@pytest.mark.parametrize(
    "args",
    [
        (2, 2, 0.1, (math.nan, 0.0)),
        (2, 2, 0.1, (0.0, -math.inf)),
        (2, 2, math.inf),
        (2, 2, math.nan),
        (2, 2, 0.0),
        (0, 2, 0.1),
        (2.5, 2, 1.0),
        (2, 2.0, 1.0),
        (True, 1, 0.1),
        (2, 2, "0.1"),
        (2, 2, 0.1, ("0", "0")),
        (2, 2, 0.1, (0, 0, 0)),
    ],
)
def test_grid_spec_rejects_bad_values(args):
    with pytest.raises(ValueError):
        GridSpec(*args)
