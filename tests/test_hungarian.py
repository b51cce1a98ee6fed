import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.hungarian import (
    RelocationMatrix,
    build_matrix,
    matching_total,
    relocate,
    solve_matching,
)
from edgeplace.model import Assignment, cost, spread, validate

from helpers import brute_force_matching, random_assignment, random_instance


class TestRelocationMatrix:
    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="more servers"):
            RelocationMatrix((0, 1, 2), np.zeros((3, 2)))

    def test_rejects_rows_not_matching_servers(self):
        with pytest.raises(ValueError, match="one row per server"):
            RelocationMatrix((0, 1), np.zeros((1, 3)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="relocation matrix entries must be non-negative"):
            RelocationMatrix((0,), np.array([[-1.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, value):
        with pytest.raises(ValueError, match="relocation matrix entries must be finite"):
            RelocationMatrix((0,), np.array([[value, 0.0]]))


class TestBuildMatrix:
    def test_single_server_row_is_weighted_distance_vector(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 6, 4, 1)
        a = Assignment((2,), np.full(6, 2))
        m = build_matrix(inst, a)
        assert m.servers == (2,)
        expected = (inst.fronthaul * inst.cell_totals[:, None]).sum(axis=0)
        assert np.allclose(m.entries[0], expected)

    def test_single_cell_server_row(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 5, 4, 2)
        a = Assignment((0, 1), np.array([0, 1, 1, 1, 1]))
        m = build_matrix(inst, a)
        assert np.allclose(m.entries[0], inst.fronthaul[0] * inst.cell_totals[0])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 8, 5, 3)
        a = random_assignment(rng, inst)
        m = build_matrix(inst, a)
        for r, s in enumerate(m.servers):
            for l in range(inst.n_candidates):
                expected = sum(
                    inst.fronthaul[i, l] * inst.cell_totals[i] for i in a.cells_of(s)
                )
                assert m.entries[r, l] == pytest.approx(expected, abs=1e-12)

    def test_empty_servers_excluded(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, 5, 5, 3)
        a = Assignment((0, 1, 2), np.array([0, 0, 1, 1, 0]))  # server 2 empty
        m = build_matrix(inst, a)
        assert m.servers == (0, 1)


class TestSolveMatching:
    def test_zero_diagonal_forces_identity(self):
        entries = np.full((4, 4), 9.0)
        np.fill_diagonal(entries, 0.0)
        m = RelocationMatrix((0, 1, 2, 3), entries)
        match = solve_matching(m)
        assert match == {0: 0, 1: 1, 2: 2, 3: 3}
        assert matching_total(m, match) == 0.0

    def test_single_row_takes_argmin_column(self):
        m = RelocationMatrix((5,), np.array([[3.0, 1.0, 2.0, 1.0]]))
        match = solve_matching(m)
        assert match == {5: 1}  # tie with column 3 resolves low

    def test_matches_brute_force_on_random_rectangles(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            entries = rng.random((5, 7))
            m = RelocationMatrix((0, 1, 2, 3, 4), entries)
            match = solve_matching(m)
            total = matching_total(m, match)
            best_total, _ = brute_force_matching(entries)
            assert total == best_total

    def test_lexicographic_tie_breaking(self):
        # every matching of this matrix has total 2; the lexicographically
        # smallest column tuple must win
        entries = np.array(
            [
                [1.0, 1.0, 1.0],
                [1.0, 1.0, 1.0],
            ]
        )
        match = solve_matching(RelocationMatrix((7, 9), entries))
        assert match == {7: 0, 9: 1}

    @pytest.mark.parametrize("entries", [[[1.0 + 1e-12, 1.0]], [[0.5 + 1e-11, 0.5], [0.3, 0.3 + 1e-11]]])
    def test_near_tie_keeps_the_smaller_total(self, entries):
        # columns within the tightness tolerance are not ties: the
        # lexicographically smaller matching costs more and must lose
        entries = np.array(entries)
        m = RelocationMatrix(tuple(range(len(entries))), entries)
        best_total, best_cols = brute_force_matching(entries)
        match = solve_matching(m)
        assert matching_total(m, match) == best_total
        assert tuple(match.values()) == best_cols

    def test_lexicographic_on_structured_ties(self):
        # entries from {0, 1} or {0, 1, 2} give many equal-total matchings;
        # the brute-force lexicographic winner must be returned exactly, on
        # every shape up to 7 columns: square, rectangular and 0 x n (-> {})
        rng = np.random.default_rng(6)
        for n in range(1, 8):
            for m_rows in range(n + 1):
                for high in (2, 3):
                    for _ in range(8):
                        entries = rng.integers(0, high, size=(m_rows, n)).astype(float)
                        m = RelocationMatrix(tuple(range(m_rows)), entries)
                        match = solve_matching(m)
                        best_total, best_cols = brute_force_matching(entries)
                        assert matching_total(m, match) == best_total
                        assert tuple(match.values()) == best_cols

    @pytest.mark.parametrize("m_rows", [16, 25])
    def test_total_matches_scipy_on_server_shapes(self, m_rows):
        # servers x 250 candidates, the sites-250 shape brute force cannot reach
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(m_rows)
        for high in (None, 2, 3):  # uniform floats, then integer ties
            for _ in range(4):
                if high is None:
                    entries = rng.random((m_rows, 250))
                else:
                    entries = rng.integers(0, high, size=(m_rows, 250)).astype(float)
                m = RelocationMatrix(tuple(range(m_rows)), entries)
                match = solve_matching(m)
                assert len(set(match.values())) == m_rows
                rows, cols = optimize.linear_sum_assignment(entries)
                expected = float(entries[rows, cols].sum())
                total = matching_total(m, match)
                if high is None:
                    assert total == pytest.approx(expected, rel=1e-12, abs=0)
                else:
                    assert total == expected

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            RelocationMatrix((0, 1), np.zeros((2, 1)))

    def test_runtime_scaling_stays_polynomial(self):
        rng = np.random.default_rng(7)
        times = []
        for n in (50, 100, 200):
            entries = rng.random((n, n))
            m = RelocationMatrix(tuple(range(n)), entries)
            t0 = time.perf_counter()
            solve_matching(m)
            times.append(time.perf_counter() - t0)
        # growth from n to 2n must stay clearly sub-quartic (2^4 = 16)
        assert times[1] <= times[0] * 16
        assert times[2] <= times[1] * 16


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_matching_optimality_property(seed):
    rng = np.random.default_rng(seed)
    m_rows = int(rng.integers(1, 5))
    n_cols = int(rng.integers(m_rows, 7))
    entries = rng.random((m_rows, n_cols))
    m = RelocationMatrix(tuple(range(m_rows)), entries)
    total = matching_total(m, solve_matching(m))
    best_total, _ = brute_force_matching(entries)
    assert total == pytest.approx(best_total, abs=1e-12)


class TestRelocate:
    def test_spread_never_increases_and_cost_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = random_instance(rng, 10, 6, 3)
            a = random_assignment(rng, inst)
            out = relocate(inst, a)
            assert validate(inst, out) is None
            assert spread(inst, out) <= spread(inst, a) + 1e-12
            assert cost(inst, out) == pytest.approx(cost(inst, a), abs=1e-12)

    def test_spread_equals_matching_total(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 8, 5, 2)
        a = random_assignment(rng, inst)
        m = build_matrix(inst, a)
        out = relocate(inst, a)
        assert spread(inst, out) == pytest.approx(
            matching_total(m, solve_matching(m)), abs=1e-12
        )

    def test_idempotent_on_optimum(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng, 8, 5, 2)
        a = random_assignment(rng, inst)
        once = relocate(inst, a)
        twice = relocate(inst, once)
        assert spread(inst, twice) == pytest.approx(spread(inst, once), abs=1e-12)

    def test_single_server_moves_to_weighted_argmin(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, 6, 5, 1)
        a = Assignment((4,), np.full(6, 4))
        out = relocate(inst, a)
        totals = (inst.fronthaul * inst.cell_totals[:, None]).sum(axis=0)
        assert out.server_locations == (int(np.argmin(totals)),)

    def test_empty_server_reseated_on_lowest_unused(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng, 4, 6, 3)
        a = Assignment((3, 4, 5), np.array([3, 3, 4, 4]))  # server 5 empty
        out = relocate(inst, a)
        assert len(out.server_locations) == 3
        assert validate(inst, out) is None
        # the two cell-bearing servers relocated optimally; the empty slot
        # took the smallest candidate index not already used
        used = {int(out.cell_to_location[0]), int(out.cell_to_location[2])}
        expected_refill = min(l for l in range(6) if l not in used)
        assert set(out.server_locations) == used | {expected_refill}
