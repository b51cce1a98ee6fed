"""Both pass kernels' tie-break toward the lowest cell id, for any order of
``cells``; the cell ids that a pair state accepts; and the no-op result of
``move_cells``.

``_select`` (numpy) and ``_select_floats`` (Python floats) break an
equal-gain tie toward the lowest cell id, whether the cellsets come in
ascending order, in several runs, or in random order. Each case runs a whole
pass on each kernel and checks every pick against ``helpers.reference_select``.
"""
import numpy as np
import pytest

from edgeplace import fm
from edgeplace.fm import PartitionState, _FloatState, _select, _select_floats, delta_cost
from edgeplace.model import Assignment, Instance

from helpers import reference_apply_move, reference_select

LOOSE = 10.0  # no load reaches it: every gain is the cut gain
# The state class and selection of each pass kernel, numpy then float.
KERNEL_STATES = ((PartitionState, _select), (_FloatState, _select_floats))


def weights(n, edges, diag=0.01):
    """Symmetric ``n`` x ``n`` workload with ``diag`` on the diagonal and
    ``edges`` {(i, j): weight} off it."""
    w = np.diag(np.full(n, diag))
    for (i, j), x in edges.items():
        w[i, j] = w[j, i] = x
    return w


def picked_cells(w, cells_a, cells_b, capacity=LOOSE):
    """Cell ids picked by one pass of each kernel's selection, each pick
    checked against ``reference_select`` on a numpy state that the reference
    kernels move; the picks, which both kernels share."""
    runs = []
    for state_cls, select in KERNEL_STATES:
        state = state_cls.from_sets(w, cells_a, cells_b)
        ref = PartitionState.from_sets(w, cells_a, cells_b)
        picks = []
        for _ in range(state.cells.size + 1):
            pick = select(state, capacity)
            assert pick == reference_select(ref, capacity)
            if pick is None:
                break
            picks.append(int(state.cells[pick[0]]))
            state.apply_move(*pick)
            state.locked[pick[0]] = True
            reference_apply_move(ref, *pick)
            ref.locked[pick[0]] = True
        runs.append(picks)
    assert runs[0] == runs[1]
    return runs[0]


def test_tie_across_runs_goes_to_the_lower_id_in_cells_b():
    # No off-diagonal weight: every gain is 0. The first run's first maximum
    # is cell 1, the second run's is cell 0, and cell 0 wins.
    assert picked_cells(weights(4, {}), [1, 3], [0, 2]) == [0, 1, 2, 3]


def test_tie_inside_one_run_goes_to_its_first_position():
    # Cells 2 and 4 each gain 1 (an edge to cell 1 across); cell 1's edge to
    # cell 3 keeps side b's gains negative.
    w = weights(5, {(2, 1): 1.0, (4, 1): 1.0, (1, 3): 5.0})
    assert picked_cells(w, [0, 2, 4], [1, 3])[0] == 2


def test_one_ascending_run():
    assert picked_cells(weights(4, {}), [0, 1], [2, 3]) == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "cells_a, cells_b",
    [
        ([4, 0, 2], [3, 1]),  # three ascending runs
        ([1, 0], [3, 2]),
        ([2, 0], [1, 3]),  # two ascending runs that do not split at cells_b
    ],
)
def test_unsorted_cellsets_keep_the_lowest_id(cells_a, cells_b):
    assert picked_cells(weights(5, {}), cells_a, cells_b) == sorted(cells_a + cells_b)


def test_unsorted_cellsets_match_reference_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(3, 24))
        raw = rng.integers(0, 3, (n, n)).astype(float)  # quantised: many ties
        w = np.triu(raw)
        w = w + np.triu(w, 1).T
        w /= np.triu(w).sum() or 1.0
        cells = rng.permutation(n)
        split = int(rng.integers(0, n + 1))
        picked_cells(w, cells[:split], cells[split:], capacity=float(rng.uniform(0.2, 0.8)))


def test_select_after_moves_without_locks_matches_reference():
    # A moved position that stays unlocked is a candidate again, so the
    # stacked rows must follow it to its new side.
    for state_cls, select in KERNEL_STATES:
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 20))
            raw = rng.random((n, n))
            w = np.triu(raw)
            w = w + np.triu(w, 1).T
            w /= np.triu(w).sum()
            side_b = rng.random(n) < 0.5
            cells_a, cells_b = np.flatnonzero(~side_b), np.flatnonzero(side_b)
            state = state_cls.from_sets(w, cells_a, cells_b)
            ref = PartitionState.from_sets(w, cells_a, cells_b)
            capacity = float(rng.uniform(0.2, 0.8))
            for pos in rng.integers(0, n, size=2 * n):
                assert select(state, capacity) == reference_select(ref, capacity)
                state.apply_move(int(pos), 0.0)
                reference_apply_move(ref, int(pos), 0.0)


TWO_CELLS = np.array([[0.25, 0.5], [0.5, 0.25]])


@pytest.mark.parametrize(
    "cells_a, cells_b, message",
    [
        ([-1], [1], "cell ids must lie in"),  # -1 would index cell 1 from the end
        ([0], [2], "cell ids must lie in"),
        ([0, 0], [1], "overlap"),  # a cell twice on one side
        ([0.7], [1.2], "cell ids must be integers"),  # not truncated to cells 0 and 1
        ([True], [False], "cell ids must be integers"),
    ],
)
def test_bad_cell_ids_are_rejected(cells_a, cells_b, message):
    with pytest.raises(ValueError, match=message):
        delta_cost(TWO_CELLS, cells_a, cells_b, 1.0)


@pytest.mark.parametrize(
    "cells_a, cells_b, expected",
    [([], [0, 1], 0.0), ([0], [], 0.0), ([], [], 0.0), (np.array([1]), [0], 0.5)],
)
def test_empty_cellsets_and_arrays_are_valid(cells_a, cells_b, expected):
    assert delta_cost(TWO_CELLS, cells_a, cells_b, 1.0) == expected


@pytest.mark.parametrize("small_pair", [-1, 10**6])
def test_a_no_op_pair_call_returns_its_input(small_pair, monkeypatch):
    # Nothing to gain (no weight between the two servers' cells): no pass is
    # kept, and the input assignment comes back as the same object, on
    # either pass kernel.
    monkeypatch.setattr(fm, "SMALL_PAIR", small_pair)
    w = np.zeros((4, 4))
    w[2, 3] = w[3, 2] = 1.0
    inst = Instance(np.zeros((4, 2)), np.zeros((3, 2)), w, 3, 0.9)
    start = Assignment((0, 1, 2), np.array([0, 1, 2, 2]))
    assert fm.move_cells(inst, start, 0, 1) is start
