import itertools

import numpy as np
import pytest

from edgeplace.kmedian import DEFAULT_KAPPA, assign_cells, check_kappa, kmedian_search
from edgeplace.model import Assignment, Instance, MalformedAssignmentError, spread, validate

from helpers import random_assignment, random_instance, swap_locations


class TestSwapParams:
    def test_kappa_bounds(self):
        with pytest.raises(ValueError):
            check_kappa(0.0)
        with pytest.raises(ValueError):
            check_kappa(1.0)


class TestAssignCells:
    def test_single_location_takes_all(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 6, 4, 1)
        a = assign_cells(inst, [2])
        assert a.server_locations == (2,)
        assert (a.cell_to_location == 2).all()

    def test_tie_broken_by_lower_index(self):
        w = np.array([[0.5, 0.0], [0.0, 0.5]])
        cells = np.array([[0.5, 0.5], [0.9, 0.5]])
        cands = np.array([[0.0, 0.5], [0.25, 0.5], [1.0, 0.5], [0.75, 0.5]])
        # cell 0 is equidistant (0.25) from candidates 1 and 3
        inst = Instance(cells, cands, w, 2, 1.0)
        a = assign_cells(inst, [1, 3])
        assert a.cell_to_location[0] == 1

    def test_every_cell_gets_its_minimum(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 20, 8, 4)
        locs = [1, 3, 5, 7]
        a = assign_cells(inst, locs)
        for i in range(inst.n_cells):
            chosen = inst.fronthaul[i, a.cell_to_location[i]]
            for l in locs:
                assert chosen <= inst.fronthaul[i, l]

    def test_is_per_cell_optimal_for_fixed_set(self):
        # nearest assignment minimizes spread over every possible map
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 5, 4, 2)
        locs = (0, 2)
        best = min(
            spread(inst, Assignment(locs, np.array(cmap)))
            for cmap in itertools.product(locs, repeat=5)
        )
        assert spread(inst, assign_cells(inst, locs)) == pytest.approx(best)

    def test_errors(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, 5, 4, 2)
        with pytest.raises(ValueError, match="need exactly 2 locations, got 0"):
            assign_cells(inst, [])
        with pytest.raises(ValueError, match="duplicate"):
            assign_cells(inst, [1, 1])
        with pytest.raises(ValueError, match="exactly"):
            assign_cells(inst, [1, 2, 3])

    @pytest.mark.parametrize("locs", [[-1, 0], [0, 5], [0, 7]])
    def test_rejects_location_out_of_range(self, locs):
        # -1 used to wrap to the last candidate; 7 raised a bare IndexError.
        inst = random_instance(np.random.default_rng(7), 5, 5, 2)
        with pytest.raises(ValueError, match="out of range"):
            assign_cells(inst, locs)

    @pytest.mark.parametrize("locs", [[1, 1], [-1, 0], [0, 5]])
    def test_rejects_what_validate_rejects_with_its_message(self, locs):
        inst = random_instance(np.random.default_rng(7), 5, 5, 2)
        with pytest.raises(MalformedAssignmentError) as expected:
            validate(inst, Assignment(tuple(locs), np.zeros(5, dtype=int)))
        with pytest.raises(MalformedAssignmentError) as got:
            assign_cells(inst, locs)
        assert str(got.value) == str(expected.value)

    def test_rejects_non_integer_location(self):
        inst = random_instance(np.random.default_rng(7), 5, 5, 2)
        with pytest.raises(MalformedAssignmentError, match="server location must be an integer, got 1.9"):
            assign_cells(inst, [0, 1.9])


class TestSwapLocations:
    def test_swap_and_swap_back_restores_spread(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 8, 5, 2)
        a = assign_cells(inst, [0, 1])
        b = swap_locations(inst, a, 1, 4)
        c = swap_locations(inst, b, 4, 1)
        assert spread(inst, c) == spread(inst, a)
        assert c == a

    def test_identical_coordinates_leave_spread_unchanged(self):
        rng = np.random.default_rng(11)
        cells = rng.random((6, 2))
        cands = rng.random((4, 2))
        cands[3] = cands[0]
        raw = rng.random((6, 6))
        w = np.triu(raw)
        w = w + np.triu(w, 1).T
        w /= np.triu(w).sum()
        inst = Instance(cells, cands, w, 2, 0.5)
        a = assign_cells(inst, [0, 1])
        b = swap_locations(inst, a, 0, 3)
        assert spread(inst, b) == pytest.approx(spread(inst, a))

    def test_matches_fresh_assign_cells(self):
        rng = np.random.default_rng(13)
        inst = random_instance(rng, 5, 5, 2)
        a = assign_cells(inst, [0, 1])
        b = swap_locations(inst, a, 0, 3)
        assert b == assign_cells(inst, [1, 3])

    def test_precondition_errors(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng, 5, 4, 2)
        a = assign_cells(inst, [0, 1])
        with pytest.raises(ValueError):
            swap_locations(inst, a, 2, 3)  # 2 not open
        with pytest.raises(ValueError):
            swap_locations(inst, a, 0, 1)  # 1 already open


class TestKmedianSearch:
    @pytest.mark.parametrize(
        "locs, cmap, message",
        [
            ((-1, 0), [0, 0, 0, 0, 0], "out of range"),  # used to wrap to candidate 4
            ((0, 7), [0, 0, 0, 0, 0], "out of range"),  # used to raise IndexError
            ((0, 1), [0, 1, 2, 0, 1], "cell-location"),  # cell 2 on a closed location
            ((0, 1), [0, -1, 0, 0, 1], "out-of-range"),  # cell 1 on location -1
            ((0, 1, 2), [0, 1, 2, 0, 1], "server-count"),
        ],
    )
    def test_rejects_malformed_initial(self, locs, cmap, message):
        inst = random_instance(np.random.default_rng(29), 5, 5, 2)
        with pytest.raises(ValueError, match=message):
            kmedian_search(inst, Assignment(locs, np.array(cmap)))

    def test_all_candidates_open_returns_nearest_assignment(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, 6, 3, 3)
        initial = Assignment((0, 1, 2), np.zeros(6, dtype=int))
        out = kmedian_search(inst, initial)
        assert out == assign_cells(inst, [0, 1, 2])

    def test_output_spread_bounded_by_exhaustive_optimum_and_swap_stable(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            inst = random_instance(rng, 6, 4, 2)
            initial = random_assignment(rng, inst)
            out = kmedian_search(inst, initial)
            best = min(
                spread(inst, assign_cells(inst, subset))
                for subset in itertools.combinations(range(4), 2)
            )
            s_out = spread(inst, out)
            assert s_out >= best - 1e-12
            # swap-stability: no single swap improves by the kappa factor
            open_set = set(out.server_locations)
            for out_loc in sorted(open_set):
                for in_loc in sorted(set(range(4)) - open_set):
                    s_new = spread(inst, swap_locations(inst, out, out_loc, in_loc))
                    assert not s_new < (1.0 - DEFAULT_KAPPA) * s_out

    def test_output_spread_never_exceeds_input(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            inst = random_instance(rng, 10, 6, 3)
            initial = random_assignment(rng, inst)
            out = kmedian_search(inst, initial)
            assert spread(inst, out) <= spread(inst, initial) + 1e-12

    def test_accepted_log_decreases_by_kappa_factor(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, 15, 8, 3)
        initial = random_assignment(rng, inst)
        log = []
        kappa = 1e-4
        out = kmedian_search(inst, initial, kappa=kappa, accepted_log=log)
        trajectory = [spread(inst, initial)] + log
        for before, after in zip(trajectory, trajectory[1:]):
            assert after < (1.0 - kappa) * before
        assert spread(inst, out) == pytest.approx(trajectory[-1])
        # geometric-decrease bound on the number of accepted swaps
        import math

        if log:
            bound = math.log(trajectory[0] / trajectory[-1]) / -math.log(1.0 - kappa)
            assert len(log) <= bound + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        inst = random_instance(rng, 12, 6, 3)
        initial = random_assignment(rng, inst)
        a = kmedian_search(inst, initial)
        b = kmedian_search(inst, initial)
        assert a == b

    def test_output_valid(self):
        rng = np.random.default_rng(27)
        inst = random_instance(rng, 12, 6, 3)
        initial = random_assignment(rng, inst)
        out = kmedian_search(inst, initial)
        assert validate(inst, out) is None
