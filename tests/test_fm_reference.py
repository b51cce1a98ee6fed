"""Bit-exact agreement of the FM kernels and ``cost_descent`` with the
pre-optimisation code kept in ``helpers``.

Every comparison is ``==`` on floats, never approximate: refinement breaks
gain ties on exact equality, so one ulp of drift could change assignments.
Instances have a tight capacity (non-zero overflow terms), and quantised
sparse workloads (tied gains); descents run with finite spread caps too.
"""
import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace import fm
from edgeplace.fm import PartitionState, _select, cost_descent
from edgeplace.model import Instance, spread

from helpers import (
    random_assignment,
    reference_apply_move,
    reference_cost_descent,
    reference_delta_cost,
    reference_fm_kernels,
    reference_gains,
    reference_move_cells,
    reference_select,
)


def tight_instance(rng, n_cells, n_candidates, n_servers, quantised):
    """Normalised instance whose capacity is below the mean server load."""
    raw = rng.integers(0, 4, (n_cells, n_cells)).astype(float) if quantised else rng.random((n_cells, n_cells))
    raw[rng.random((n_cells, n_cells)) < 0.3] = 0.0
    raw[0, 0] = 1.0  # never all zero
    w = np.triu(raw)
    w = w + np.triu(w, 1).T
    w /= np.triu(w).sum()
    capacity = float(rng.uniform(0.3, 1.2)) / n_servers
    return Instance(rng.random((n_cells, 2)), rng.random((n_candidates, 2)), w, n_servers, capacity)


def state_pair(rng):
    """Two identical states over a random split of a random cell subset."""
    inst = tight_instance(rng, int(rng.integers(2, 30)), 4, 2, quantised=bool(rng.random() < 0.5))
    cells = np.flatnonzero(rng.random(inst.n_cells) < 0.8)
    split = rng.random(cells.size) < 0.5
    a, b = cells[~split], cells[split]
    return (
        PartitionState.from_sets(inst.workload, a, b),
        PartitionState.from_sets(inst.workload, a, b),
        inst.capacity,
    )


def assert_same_state(new, ref):
    assert np.array_equal(new.side, ref.side)
    assert np.array_equal(new.own_off, ref.own_off)
    assert np.array_equal(new.other, ref.other)
    assert (new.load_a, new.load_b) == (ref.load_a, ref.load_b)
    assert new.move_log == ref.move_log
    assert new.gain_log == ref.gain_log


def test_select_driven_passes_match_reference():
    rng = np.random.default_rng(7)
    overflowed = tied = 0
    for _ in range(150):
        new, ref, capacity = state_pair(rng)
        for _ in range(new.cells.size + 1):
            gain_new, eligible_new = new.gains(capacity)
            gain_ref, eligible_ref = reference_gains(ref, capacity)
            assert np.array_equal(gain_new, gain_ref)
            assert np.array_equal(eligible_new, eligible_ref)
            overflowed += max(new.load_a, new.load_b) > capacity
            mask = eligible_ref & ~ref.locked
            tied += mask.any() and np.count_nonzero(gain_ref[mask] == gain_ref[mask].max()) > 1
            pick = _select(new, capacity)
            assert pick == reference_select(ref, capacity)
            if pick is None:
                break
            new.apply_move(*pick)
            new.locked[pick[0]] = True
            reference_apply_move(ref, *pick)
            ref.locked[pick[0]] = True
            assert_same_state(new, ref)
    # The comparisons must have covered both the overflow terms and tie-breaking.
    assert overflowed > 50 and tied > 20


def test_arbitrary_move_sequences_match_reference():
    rng = np.random.default_rng(11)
    for _ in range(150):
        new, ref, capacity = state_pair(rng)
        if not new.cells.size:
            continue
        for pos in rng.integers(0, new.cells.size, size=3 * new.cells.size):
            gain = float(rng.normal())
            new.apply_move(int(pos), gain)
            reference_apply_move(ref, int(pos), gain)
            assert_same_state(new, ref)


def descent_case(seed):
    """Random tight instance, random start, and a spread cap (often finite)."""
    rng = np.random.default_rng(seed)
    inst = tight_instance(
        rng, int(rng.integers(6, 40)), 8, int(rng.integers(2, 6)), quantised=bool(rng.random() < 0.5)
    )
    start = random_assignment(rng, inst)
    epsilon = (0.0, 0.01, 0.05, math.inf)[int(rng.integers(0, 4))]
    cap = math.inf if math.isinf(epsilon) else (1.0 + epsilon) * spread(inst, start)
    return inst, start, cap


def assert_descent_matches_reference(inst, start, cap):
    log_new, log_ref = [], []
    got = cost_descent(inst, start, spread_cap=cap, commit_log=log_new)
    with reference_fm_kernels():
        want = reference_cost_descent(inst, start, spread_cap=cap, commit_log=log_ref)
    assert got == want
    assert log_new == log_ref


@pytest.mark.parametrize("seed", range(40))
def test_cost_descent_matches_reference(seed):
    assert_descent_matches_reference(*descent_case(seed))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_cost_descent_matches_reference_property(seed):
    assert_descent_matches_reference(*descent_case(seed))


def test_memo_skips_unchanged_pairs(monkeypatch):
    # Over the seeded cases the memo must save move_cells calls; the
    # reference loop makes one call per pair per sweep.
    calls = []
    move_cells = fm.move_cells

    def counted(*args):
        calls.append(args[2:])
        return move_cells(*args)

    monkeypatch.setattr(fm, "move_cells", counted)
    saved = 0
    for seed in range(40):
        inst, start, cap = descent_case(seed)
        cost_descent(inst, start, spread_cap=cap)
        memo_calls = len(calls)
        reference_cost_descent(inst, start, spread_cap=cap)
        saved += (len(calls) - memo_calls) - memo_calls
        calls.clear()
    assert saved > 0


def test_move_cells_matches_reference_pass_loop(monkeypatch):
    # Every pair call of the seeded descents, memo misses only, against the
    # pass loop that recomputed each from-scratch delta and tracked the best
    # prefix per move.
    move_cells = fm.move_cells
    totals = collections.Counter()

    def checked(*args):
        got = move_cells(*args)
        stats = collections.Counter()
        assert got == reference_move_cells(*args, stats=stats)
        totals.update(stats)
        totals["multi_pass"] += stats["kept_passes"] >= 2
        return got

    monkeypatch.setattr(fm, "move_cells", checked)
    for seed in range(40):
        inst, start, cap = descent_case(seed)
        cost_descent(inst, start, spread_cap=cap)
    # The cases must reach the drift guard, calls that keep several passes,
    # and pairs with no cells at all.
    assert totals["guard_rejected"] >= 100
    assert totals["multi_pass"] >= 40
    assert totals["empty"] >= 2


def test_delta_cost_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(300):
        inst = tight_instance(rng, int(rng.integers(2, 25)), 4, 2, quantised=bool(rng.random() < 0.5))
        cells = rng.permutation(inst.n_cells)[: int(rng.integers(0, inst.n_cells + 1))]
        split = rng.random(cells.size) < rng.random()
        a, b = cells[~split], cells[split]
        got = fm.delta_cost(inst.workload, a, b, inst.capacity)
        assert got == reference_delta_cost(inst.workload, a, b, inst.capacity)
