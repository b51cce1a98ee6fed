import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.fm import PartitionState, cost_descent, delta_cost, move_cells, vertex_gain
from edgeplace.model import Assignment, Instance, cost, spread

from helpers import loop_delta_cost, random_assignment, random_instance


TWO_CELL_W = np.array([[0.25, 0.5], [0.5, 0.25]])


def random_state(rng, max_cells=12):
    """Random symmetric weights plus a random two-way split (no normalization needed)."""
    n = int(rng.integers(2, max_cells + 1))
    raw = rng.random((n, n))
    w = np.triu(raw)
    w = w + np.triu(w, 1).T
    split = rng.random(n) < 0.5
    cells_a = np.flatnonzero(~split)
    cells_b = np.flatnonzero(split)
    capacity = float(rng.uniform(0.1, max(0.1, w.sum())))  # two cells can weigh less than 0.1
    return w, cells_a, cells_b, capacity


class TestDeltaCost:
    def test_hand_example_loose_capacity(self):
        assert delta_cost(TWO_CELL_W, [0], [1], 1.0) == pytest.approx(0.5)

    def test_hand_example_tight_capacity(self):
        assert delta_cost(TWO_CELL_W, [0], [1], 0.2) == pytest.approx(0.6)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            delta_cost(TWO_CELL_W, [0, 1], [1], 0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            w, a, b, cap = random_state(rng, max_cells=8)
            assert delta_cost(w, a, b, cap) == pytest.approx(
                loop_delta_cost(w, a, b, cap), abs=1e-12
            )

    def test_tracks_full_cost_difference(self):
        # Changing only two servers' cellsets changes the full-assignment cost
        # by exactly the change in their joint contribution.
        rng = np.random.default_rng(43)
        inst = random_instance(rng, 8, 4, 3, capacity=0.2)
        base = Assignment((0, 1, 2), np.array([0, 0, 1, 1, 2, 2, 2, 1]))
        moved = Assignment((0, 1, 2), np.array([0, 1, 1, 0, 2, 2, 2, 1]))
        d_base = delta_cost(inst.workload, base.cells_of(0), base.cells_of(1), inst.capacity)
        d_moved = delta_cost(inst.workload, moved.cells_of(0), moved.cells_of(1), inst.capacity)
        assert cost(inst, moved) - cost(inst, base) == pytest.approx(d_moved - d_base, abs=1e-12)


class TestVertexGain:
    def test_hand_example_loose_capacity(self):
        state = PartitionState.from_sets(TWO_CELL_W, [0], [1])
        gain, eligible = vertex_gain(state, 1.0, 0)
        assert gain == pytest.approx(0.5)
        assert eligible

    def test_hand_example_tight_capacity(self):
        state = PartitionState.from_sets(TWO_CELL_W, [0], [1])
        gain, eligible = vertex_gain(state, 0.5, 0)
        assert gain == pytest.approx(0.0)
        assert not eligible  # joint load 1.0 > max(0.5, 0.25, 0.25)

    def test_locked_cell_rejected(self):
        state = PartitionState.from_sets(TWO_CELL_W, [0], [1])
        state.locked[0] = True
        with pytest.raises(ValueError, match="locked"):
            vertex_gain(state, 1.0, 0)

    def test_absent_cell_rejected(self):
        state = PartitionState.from_sets(TWO_CELL_W, [0], [1])
        with pytest.raises(ValueError, match="not in"):
            vertex_gain(state, 1.0, 5)

    def test_gain_identity_random_states(self):
        # Central correctness property: the gain equals the from-scratch
        # decrease in delta_cost caused by the move.
        rng = np.random.default_rng(47)
        for _ in range(100):
            w, a, b, cap = random_state(rng, max_cells=8)
            state = PartitionState.from_sets(w, a, b)
            before = delta_cost(w, a, b, cap)
            for cell in np.concatenate([a, b]):
                gain, _ = vertex_gain(state, cap, int(cell))
                if cell in a:
                    after = delta_cost(w, a[a != cell], np.append(b, cell), cap)
                else:
                    after = delta_cost(w, np.append(a, cell), b[b != cell], cap)
                assert gain == pytest.approx(before - after, abs=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_gain_identity_property(seed):
    rng = np.random.default_rng(seed)
    w, a, b, cap = random_state(rng, max_cells=10)
    state = PartitionState.from_sets(w, a, b)
    before = delta_cost(w, a, b, cap)
    cells = np.concatenate([a, b])
    cell = int(cells[rng.integers(0, cells.size)])
    gain, _ = vertex_gain(state, cap, cell)
    if cell in a:
        after = delta_cost(w, a[a != cell], np.append(b, cell), cap)
    else:
        after = delta_cost(w, np.append(a, cell), b[b != cell], cap)
    assert gain == pytest.approx(before - after, abs=1e-12)


def exhaustive_best_bipartition(w, cells, capacity):
    """Minimum delta_cost over every two-way split of ``cells``."""
    cells = list(cells)
    best = None
    for mask in range(2 ** len(cells)):
        a = [c for k, c in enumerate(cells) if not (mask >> k) & 1]
        b = [c for k, c in enumerate(cells) if (mask >> k) & 1]
        d = delta_cost(w, a, b, capacity)
        if best is None or d < best:
            best = d
    return best


class TestMoveCells:
    def make_instance(self, n_cells, workload, capacity, n_candidates=4, n_servers=2):
        rng = np.random.default_rng(0)
        return Instance(
            rng.random((n_cells, 2)), rng.random((n_candidates, 2)), workload,
            n_servers, capacity,
        )

    def test_zero_workload_between_pair_is_identity(self):
        n = 6
        w = np.zeros((n, n))
        w[4, 5] = w[5, 4] = 0.5
        w[4, 4] = 0.5
        inst = self.make_instance(n, w, 0.9, n_candidates=4, n_servers=3)
        a = Assignment((0, 1, 2), np.array([0, 0, 1, 1, 2, 2]))
        out = move_cells(inst, a, 0, 1)
        assert out == a

    def test_two_cell_merge(self):
        inst = self.make_instance(2, TWO_CELL_W, 1.0, n_candidates=2, n_servers=2)
        a = Assignment((0, 1), np.array([0, 1]))
        out = move_cells(inst, a, 0, 1)
        merged = set(out.cell_to_location.tolist())
        assert len(merged) == 1
        d = delta_cost(inst.workload, out.cells_of(0), out.cells_of(1), 1.0)
        assert d == pytest.approx(0.0)

    def test_never_worse_and_never_beats_exhaustive(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            inst = random_instance(rng, 8, 4, 2, capacity=float(rng.uniform(0.2, 0.8)))
            a = random_assignment(rng, inst)
            l0, l1 = a.server_locations
            out = move_cells(inst, a, l0, l1)
            d_in = delta_cost(inst.workload, a.cells_of(l0), a.cells_of(l1), inst.capacity)
            d_out = delta_cost(inst.workload, out.cells_of(l0), out.cells_of(l1), inst.capacity)
            pair_cells = np.concatenate([a.cells_of(l0), a.cells_of(l1)])
            d_best = exhaustive_best_bipartition(inst.workload, pair_cells, inst.capacity)
            assert d_out <= d_in + 1e-12
            assert d_out >= d_best - 1e-12

    def test_terminal_partition_has_no_positive_eligible_gain(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            inst = random_instance(rng, 8, 4, 2, capacity=float(rng.uniform(0.2, 0.8)))
            a = random_assignment(rng, inst)
            l0, l1 = a.server_locations
            out = move_cells(inst, a, l0, l1)
            state = PartitionState.from_assignment(inst, out, l0, l1)
            gains, eligible = state.gains(inst.capacity)
            if eligible.any():
                assert gains[eligible].max() <= 1e-12

    def test_eligibility_safety_bound(self):
        # After the operation neither side's load exceeds
        # max(capacity, initial load_a, initial load_b).
        rng = np.random.default_rng(61)
        for _ in range(15):
            inst = random_instance(rng, 9, 4, 2, capacity=float(rng.uniform(0.1, 0.5)))
            a = random_assignment(rng, inst)
            l0, l1 = a.server_locations
            from edgeplace.model import server_load

            bound = max(inst.capacity, server_load(inst, a, l0), server_load(inst, a, l1))
            out = move_cells(inst, a, l0, l1)
            assert server_load(inst, out, l0) <= bound + 1e-12
            assert server_load(inst, out, l1) <= bound + 1e-12

    def test_locality(self):
        rng = np.random.default_rng(67)
        inst = random_instance(rng, 10, 5, 3, capacity=0.25)
        a = random_assignment(rng, inst)
        l0, l1, l2 = a.server_locations
        out = move_cells(inst, a, l0, l1)
        untouched = a.cells_of(l2)
        assert np.array_equal(out.cell_to_location[untouched], a.cell_to_location[untouched])
        assert out.server_locations == a.server_locations

    def test_rejects_bad_pair(self):
        inst = self.make_instance(2, TWO_CELL_W, 1.0, n_candidates=3, n_servers=2)
        a = Assignment((0, 1), np.array([0, 1]))
        with pytest.raises(ValueError):
            move_cells(inst, a, 0, 2)
        with pytest.raises(ValueError):
            move_cells(inst, a, 0, 0)

    def test_idempotent(self):
        # A terminal partition must be a fixed point. This covers the
        # drift-guard path: a pass whose best prefix is a zero-gain mirror
        # flip must roll back to the true pass-start sides, not the flip.
        rng = np.random.default_rng(53)
        for _ in range(15):
            inst = random_instance(rng, 8, 4, 2, capacity=float(rng.uniform(0.2, 0.8)))
            a = random_assignment(rng, inst)
            l0, l1 = a.server_locations
            once = move_cells(inst, a, l0, l1)
            twice = move_cells(inst, once, l0, l1)
            assert twice == once


class TestPassSemantics:
    def test_no_gain_pass_is_bit_identical(self):
        # all-zero pair workload: every gain is 0, the pass rolls back fully
        n = 4
        w = np.zeros((n, n))
        w[2, 3] = w[3, 2] = 1.0
        inst = Instance(
            np.zeros((n, 2)), np.zeros((3, 2)), w, 3, 0.9,
        )
        a = Assignment((0, 1, 2), np.array([0, 1, 2, 2]))
        out = move_cells(inst, a, 0, 1)
        assert np.array_equal(out.cell_to_location, a.cell_to_location)

    def test_move_log_and_prefix_gain_bookkeeping(self):
        rng = np.random.default_rng(71)
        w, a, b, cap = random_state(rng, max_cells=8)
        state = PartitionState.from_sets(w, a, b)
        gains_seen = []
        from edgeplace.fm import _select

        for _ in range(state.cells.size):
            pick = _select(state, cap)
            if pick is None:
                break
            pos, gain = pick
            gains_seen.append(gain)
            state.apply_move(pos, gain)
            state.locked[pos] = True
        # locked cells appear at most once in the move log
        positions = [p for p, _ in state.move_log]
        assert len(positions) == len(set(positions))
        # prefix totals match the per-move gains
        assert state.gain_log == pytest.approx(list(np.cumsum(gains_seen)))
        # incremental loads match a from-scratch recomputation
        la, lb = state.load_a, state.load_b
        state.recompute_sums()
        assert state.load_a == pytest.approx(la, abs=1e-12)
        assert state.load_b == pytest.approx(lb, abs=1e-12)


class TestCostDescent:
    def test_single_server_identity(self):
        rng = np.random.default_rng(73)
        inst = random_instance(rng, 5, 3, 1, capacity=0.9)
        a = Assignment((1,), np.full(5, 1))
        assert cost_descent(inst, a) == a

    def test_cost_monotone_and_strictly_improving_commits(self):
        rng = np.random.default_rng(79)
        inst = random_instance(rng, 12, 6, 3, capacity=0.3)
        a = random_assignment(rng, inst)
        log = []
        out = cost_descent(inst, a, commit_log=log)
        costs = [cost(inst, a)] + [c for c, _ in log]
        assert all(b < a_ for a_, b in zip(costs, costs[1:]))
        assert cost(inst, out) == pytest.approx(costs[-1], abs=1e-12)

    def test_spread_cap_respected(self):
        rng = np.random.default_rng(83)
        inst = random_instance(rng, 12, 6, 3, capacity=0.3)
        a = random_assignment(rng, inst)
        cap = spread(inst, a) * 1.05
        log = []
        out = cost_descent(inst, a, spread_cap=cap, commit_log=log)
        assert spread(inst, out) <= cap + 1e-12
        for _, s in log:
            assert s <= cap + 1e-12

    def test_nan_spread_cap_rejected(self):
        # No spread exceeds a NaN cap, so it would run uncapped: from this
        # start the spread rose from 1.008 to 1.078.
        inst = random_instance(np.random.default_rng(3), 30, 8, 3, capacity=0.2)
        a = random_assignment(np.random.default_rng(1), inst)
        with pytest.raises(ValueError, match="spread_cap"):
            cost_descent(inst, a, spread_cap=float("nan"))

    def test_reaches_at_least_exhaustive_bound(self):
        # Final cost can never beat the exhaustive optimum over all cell maps
        # onto the same two locations.
        rng = np.random.default_rng(89)
        for _ in range(5):
            inst = random_instance(rng, 6, 4, 2, capacity=float(rng.uniform(0.2, 0.6)))
            a = random_assignment(rng, inst)
            out = cost_descent(inst, a)
            locs = a.server_locations
            best = min(
                cost(inst, Assignment(locs, np.array(cmap)))
                for cmap in itertools.product(locs, repeat=6)
            )
            assert cost(inst, out) >= best - 1e-12
