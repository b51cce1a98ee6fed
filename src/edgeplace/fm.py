"""Cost refinement by cell migration between server pairs.

The local operation ``move_cells(l0, l1)`` reshuffles the cells of two
servers to reduce their joint cost contribution

    delta_cost = cut weight between the two cellsets
               + overload of each cellset beyond the capacity.

It runs in passes. Within a pass every cell may move once: we repeatedly pick
the unlocked cell whose move gives the largest gain (exact decrease in
``delta_cost``), provided the move keeps the larger of the two loads from
growing beyond ``max(capacity, load_a, load_b)``. Negative-gain moves are
allowed; at the end of the pass only the best positive-total prefix of the
move sequence is kept (replayed from the pass-start partition), or the whole
pass is rolled back and the operation stops.

``cost_descent`` applies ``move_cells`` across all server pairs in ascending
order, committing a result only when it lowers the global cost and keeps the
spread under a caller-supplied cap, until a full sweep commits nothing.

``move_cells(l0, l1)`` is a pure function of the workload, the capacity and
the two cellsets, so ``cost_descent`` memoises its result per pair, and a
commit drops the entries of every pair that contains one of its two
locations: a pair whose entry survives has both cellsets unchanged since its
last call, and replays the stored result (no-op, or the new cellsets) without
calling ``move_cells`` again. The global cost and spread comparisons read
every server, so they are re-checked on every replay.

A pass runs on one of two kernels that do the same IEEE operations in the
same order, so both give the same result to the last bit. Pairs of at most
``SMALL_PAIR`` cells run on Python floats (``_FloatState``: lists for the
per-position vectors and the weight rows, ``_select_floats``). On a pair of a
few cells a numpy move costs about 20 calls on as many elements, so per-call
overhead outweighs the arithmetic. Larger pairs run on numpy vectors
(``PartitionState``, ``_select``), whose cost per move grows more slowly with
the pair. ``SMALL_PAIR`` is the measured crossover: replaying the recorded
``move_cells`` inputs of ``FM_HUNG`` solves on the benchmark's ``uniform-500``
and ``sites-250`` instances and on the acceptance gravity-625 instance (2-core
x86 VM, CPython 3.11, numpy 2.4), ``move_cells`` on the float pass took
0.5-0.9x the time of the numpy pass on pairs of 1 to 64 cells, 1.0-1.1x on 65
to 72 cells and 1.1-2.5x above. Set-up stays in numpy for both (``from_sets``,
the BLAS mat-vec in ``recompute_sums``, ``delta``).

Both kernels move each cell through ``PartitionState.apply_move``, which
leaves only the update of the other positions' sums to ``_update_rows``; the
benchmark's tracer counts moves by wrapping ``apply_move``, and counts pair
calls by wrapping this module's ``move_cells``, which ``cost_descent`` looks
up at call time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Assignment, Instance, cellset_load, check_valid, spread

# Upper bound on ``cost_descent``'s pair sweeps; the descent ends earlier, at
# the first sweep that commits nothing.
MAX_SWEEPS = 100

# Pairs of at most this many cells run the pass on Python floats, larger ones
# on numpy vectors (see the module docstring).
SMALL_PAIR = 64


def delta_cost(workload: np.ndarray, cells_a, cells_b, capacity: float) -> float:
    """Joint cost contribution of two disjoint cellsets."""
    return PartitionState.from_sets(workload, cells_a, cells_b).delta(capacity)


@dataclass
class PartitionState:
    """Working state of one two-server migration.

    Positions index into ``cells`` (global cell ids, side-a cells first).
    ``own_off`` holds each cell's off-diagonal weight to its current side,
    ``other`` its weight to the opposite side; both are maintained
    incrementally as cells move. ``move_log`` records (position, from_side_b)
    per move and ``gain_log`` the running gain total after each move.
    """

    cells: np.ndarray
    side: np.ndarray  # bool per position; False = side a, True = side b
    weights: np.ndarray  # symmetric submatrix over ``cells``
    diag: np.ndarray
    own_off: np.ndarray
    other: np.ndarray
    load_a: float
    load_b: float
    locked: np.ndarray
    move_log: list[tuple[int, bool]] = field(default_factory=list)
    gain_log: list[float] = field(default_factory=list)

    @classmethod
    def from_sets(cls, workload: np.ndarray, cells_a, cells_b) -> "PartitionState":
        cells_a = np.asarray(cells_a, dtype=int)
        cells_b = np.asarray(cells_b, dtype=int)
        if not set(cells_a.tolist()).isdisjoint(cells_b.tolist()):
            raise ValueError("cellsets overlap")
        cells = np.concatenate([cells_a, cells_b])
        side = np.zeros(cells.size, dtype=bool)
        side[cells_a.size:] = True
        sub = workload[cells[:, None], cells]
        state = cls(
            cells=cells,
            side=side,
            weights=sub,
            diag=sub.diagonal().copy(),
            own_off=np.zeros(cells.size),
            other=np.zeros(cells.size),
            load_a=0.0,
            load_b=0.0,
            locked=np.zeros(cells.size, dtype=bool),
        )
        state.recompute_sums()
        return state

    @classmethod
    def from_assignment(
        cls, instance: Instance, assignment: Assignment, loc_a: int, loc_b: int
    ) -> "PartitionState":
        return cls.from_sets(
            instance.workload, assignment.cells_of(loc_a), assignment.cells_of(loc_b)
        )

    def recompute_sums(self) -> None:
        """Refresh per-cell side sums and the two loads from the side vector."""
        side = np.asarray(self.side, dtype=bool)
        in_b = side.astype(float)
        in_a = 1.0 - in_b
        to_a = self.weights @ in_a
        to_b = self.weights @ in_b
        own_total = np.where(side, to_b, to_a)  # includes the cell's own diagonal
        self.own_off = own_total - self.diag
        self.other = np.where(side, to_a, to_b)
        self.load_a = cellset_load(self.weights, np.flatnonzero(~side))
        self.load_b = cellset_load(self.weights, np.flatnonzero(side))

    def delta(self, capacity: float) -> float:
        """``delta_cost`` of the current sides: the cut weight from scratch plus
        each side's overflow at the loads ``recompute_sums`` last set."""
        side = np.asarray(self.side, dtype=bool)
        a, b = np.flatnonzero(~side), np.flatnonzero(side)
        cross = float(self.weights[a[:, None], b].sum())
        return cross + max(0.0, self.load_a - capacity) + max(0.0, self.load_b - capacity)

    def cellset(self, side_b: bool) -> np.ndarray:
        return self.cells[np.asarray(self.side, dtype=bool) == side_b]

    def gains(self, capacity: float) -> tuple[np.ndarray, np.ndarray]:
        """(gain, eligible) arrays over all positions, locked ones included."""
        own_load = np.where(self.side, self.load_b, self.load_a)
        other_load = np.where(self.side, self.load_a, self.load_b)
        new_own = own_load - self.diag - self.own_off
        new_other = other_load + self.diag + self.other
        # Overflow of the current loads is the same for every position.
        base = max(self.load_a - capacity, 0.0) + max(self.load_b - capacity, 0.0)
        gain = (self.other - self.own_off) + (
            (base - np.maximum(new_own - capacity, 0.0)) - np.maximum(new_other - capacity, 0.0)
        )
        eligible = np.maximum(new_own, new_other) <= max(capacity, self.load_a, self.load_b)
        return gain, eligible

    def apply_move(self, pos: int, gain: float) -> None:
        """Move the cell at ``pos`` across, update sums and loads, log the move."""
        old_side = bool(self.side[pos])
        own_off, other = self.own_off[pos], self.other[pos]
        new_own = (self.load_b if old_side else self.load_a) - self.diag[pos] - own_off
        new_other = (self.load_a if old_side else self.load_b) + self.diag[pos] + other
        self._update_rows(pos, old_side)
        self.own_off[pos], self.other[pos] = other, own_off
        self.side[pos] = not old_side
        if old_side:
            self.load_b, self.load_a = new_own, new_other
        else:
            self.load_a, self.load_b = new_own, new_other
        self.move_log.append((pos, old_side))
        prev = self.gain_log[-1] if self.gain_log else 0.0
        self.gain_log.append(prev + gain)

    def _update_rows(self, pos: int, old_side: bool) -> None:
        """Update ``own_off`` and ``other`` at every position for the move of
        the cell at ``pos`` off side ``old_side``."""
        # The moved cell's weight leaves the own sums of its old side and
        # joins those of its new side; ``weights`` is symmetric, so its row is
        # its column. Negation is exact, so one signed update reproduces the
        # separate subtract/add updates bit for bit.
        signed = self.weights[pos] * np.where(self.side == old_side, -1.0, 1.0)
        self.own_off += signed
        self.other -= signed


class _FloatState(PartitionState):
    """``PartitionState`` whose per-position vectors (``side``, ``diag``,
    ``own_off``, ``other``, ``locked``) and weight rows are Python lists, for
    the pass on Python floats. ``from_sets``, ``recompute_sums`` and ``delta``
    still compute in numpy; ``gains`` does not apply."""

    def __init__(self, **fields) -> None:
        super().__init__(**fields)
        self.side = self.side.tolist()
        self.diag = self.diag.tolist()
        self.locked = self.locked.tolist()
        self.rows = self.weights.tolist()

    def recompute_sums(self) -> None:
        super().recompute_sums()
        self.own_off = self.own_off.tolist()
        self.other = self.other.tolist()

    def _update_rows(self, pos: int, old_side: bool) -> None:
        # The numpy update term by term: its signed term is ``-w`` where the
        # side is ``old_side``, and ``x + -w`` is ``x - w`` in IEEE arithmetic.
        row, side = self.rows[pos], self.side
        self.own_off = [x - w if s == old_side else x + w for x, w, s in zip(self.own_off, row, side)]
        self.other = [x + w if s == old_side else x - w for x, w, s in zip(self.other, row, side)]


def vertex_gain(state: PartitionState, capacity: float, cell: int) -> tuple[float, bool]:
    """Exact delta_cost decrease if ``cell`` switched sides, and whether the
    move keeps the pair's maximum load from growing past
    ``max(capacity, load_a, load_b)``."""
    found = np.flatnonzero(state.cells == cell)
    if found.size != 1:
        raise ValueError(f"cell {cell} not in this partition")
    pos = int(found[0])
    if state.locked[pos]:
        raise ValueError(f"cell {cell} is locked")
    gains, eligible = state.gains(capacity)
    return float(gains[pos]), bool(eligible[pos])


def _select(state: PartitionState, capacity: float):
    """Highest-gain eligible unlocked position; ties go to the lowest cell id."""
    gains, eligible = state.gains(capacity)
    eligible &= ~state.locked
    masked = np.where(eligible, gains, -np.inf)
    best = masked.max()
    if best == -np.inf:
        return None
    tied = (masked == best).nonzero()[0]
    pos = int(tied[0]) if tied.size == 1 else int(tied[np.argmin(state.cells[tied])])
    return pos, float(gains[pos])


def _select_floats(state: _FloatState, capacity: float):
    """``_select`` on a ``_FloatState``: ``gains``' IEEE operations in the same
    order, position by position. ``0.0 if 0.0 > x else x`` is Python's
    ``max(x, 0.0)``, which returns ``np.maximum``'s result, -0.0 included,
    wherever no NaN arises; so does testing both new loads against the
    limit in place of their maximum."""
    load_a, load_b = state.load_a, state.load_b
    base = max(load_a - capacity, 0.0) + max(load_b - capacity, 0.0)
    limit = max(capacity, load_a, load_b)
    cells = state.cells
    best, best_gain = None, -math.inf
    for pos, (locked, side_b, diag, own_off, other) in enumerate(
        zip(state.locked, state.side, state.diag, state.own_off, state.other)
    ):
        if locked:
            continue
        if side_b:
            new_own, new_other = load_b - diag - own_off, load_a + diag + other
        else:
            new_own, new_other = load_a - diag - own_off, load_b + diag + other
        if new_own > limit or new_other > limit:
            continue
        over_own, over_other = new_own - capacity, new_other - capacity
        gain = (other - own_off) + (
            (base - (0.0 if 0.0 > over_own else over_own)) - (0.0 if 0.0 > over_other else over_other)
        )
        if gain > best_gain or (gain == best_gain and cells[pos] < cells[best]):
            best, best_gain = pos, gain
    return None if best is None else (best, best_gain)


def move_cells(instance: Instance, assignment: Assignment, l0: int, l1: int) -> Assignment:
    """Migrate cells between the servers at ``l0`` and ``l1`` to reduce their
    joint cost contribution. Cells of other servers are untouched."""
    locs = set(assignment.server_locations)
    if l0 not in locs or l1 not in locs:
        raise ValueError("both locations must be in the server set")
    if l0 == l1:
        raise ValueError("locations must differ")
    cells_a, cells_b = assignment.cells_of(l0), assignment.cells_of(l1)
    small = cells_a.size + cells_b.size <= SMALL_PAIR
    state = (_FloatState if small else PartitionState).from_sets(instance.workload, cells_a, cells_b)
    select = _select_floats if small else _select
    capacity = instance.capacity
    start_delta = state.delta(capacity)
    while True:
        start_side = state.side.copy()
        state.locked[:] = [False] * state.cells.size  # an array or a list
        state.move_log.clear()
        state.gain_log.clear()
        for _ in range(state.cells.size):
            pick = select(state, capacity)
            if pick is None:
                break
            state.apply_move(*pick)
            state.locked[pick[0]] = True
        # Keep the shortest prefix with the largest running gain, if positive.
        best_total = max(state.gain_log, default=0.0)
        if not best_total > 0.0:
            state.side = start_side
            break
        state.side = start_side.copy()
        for pos, _ in state.move_log[: state.gain_log.index(best_total) + 1]:
            state.side[pos] = not state.side[pos]
        state.recompute_sums()
        # The summed per-move gains can drift by ~1e-16; a zero-gain
        # prefix (e.g. a full mirror flip) must not count as progress
        # or the pass loop ping-pongs forever. Keep the prefix only if
        # the from-scratch value strictly improved.
        end_delta = state.delta(capacity)
        if not end_delta < start_delta:
            state.side = start_side
            break
        start_delta = end_delta
    new_map = assignment.cell_to_location.copy()
    new_map[state.cellset(False)] = l0
    new_map[state.cellset(True)] = l1
    return Assignment(assignment.server_locations, new_map)


def cost_descent(
    instance: Instance,
    assignment: Assignment,
    spread_cap: float = math.inf,
    commit_log: list | None = None,
) -> Assignment:
    """Sweep server pairs with ``move_cells`` until no commit improves cost,
    for at most ``MAX_SWEEPS`` sweeps.

    A speculative result is committed only if it strictly lowers the global
    cost and its spread stays within ``spread_cap``. Appends
    ``(cost, spread)`` to ``commit_log`` after each commit when given.
    Raises ``ValueError`` for an invalid ``assignment`` or a NaN
    ``spread_cap``, which no spread exceeds.
    """
    check_valid(instance, assignment)
    if math.isnan(spread_cap):
        raise ValueError("spread_cap must not be NaN")
    locs = sorted(set(assignment.server_locations))
    capacity = instance.capacity
    w = instance.workload
    current = assignment
    loads = {l: cellset_load(w, current.cells_of(l)) for l in locs}
    # Pair (l0, l1) -> result of move_cells on the current cellsets: None for
    # a no-op, else the pair's new cellsets and their loads.
    memo: dict[tuple[int, int], tuple | None] = {}

    def total_cost(changed: dict) -> float:
        # One load at a time, in location order: model.cost_of_loads's pairwise
        # numpy sum can differ in the last bit and flip the strict comparison
        # below (it changes KMED_FM_HUNG results on the README's gravity sweep).
        served = 0.0
        for l in locs:
            served += min(capacity, changed[l] if l in changed else loads[l])
        return 1.0 - served

    current_cost = total_cost({})
    for _ in range(MAX_SWEEPS):
        committed = False
        for i, l0 in enumerate(locs):
            for l1 in locs[i + 1:]:
                if (l0, l1) in memo:
                    result = memo[(l0, l1)]
                else:
                    candidate = move_cells(instance, current, l0, l1)
                    result = None
                    if candidate != current:
                        cells0, cells1 = candidate.cells_of(l0), candidate.cells_of(l1)
                        result = (cells0, cells1, cellset_load(w, cells0), cellset_load(w, cells1))
                    memo[(l0, l1)] = result
                if result is None:
                    continue
                cells0, cells1, load0, load1 = result
                candidate_cost = total_cost({l0: load0, l1: load1})
                if candidate_cost >= current_cost:
                    continue
                new_map = current.cell_to_location.copy()
                new_map[cells0] = l0
                new_map[cells1] = l1
                candidate = Assignment(current.server_locations, new_map)
                candidate_spread = spread(instance, candidate)
                if candidate_spread > spread_cap:
                    continue
                current = candidate
                current_cost = candidate_cost
                loads[l0], loads[l1] = load0, load1
                memo = {pair: r for pair, r in memo.items() if l0 not in pair and l1 not in pair}
                committed = True
                if commit_log is not None:
                    commit_log.append((candidate_cost, candidate_spread))
        if not committed:
            break
    return current
