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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Assignment, Instance, cellset_load, check_valid, spread

# Upper bound on ``cost_descent``'s pair sweeps; the descent ends earlier, at
# the first sweep that commits nothing.
MAX_SWEEPS = 100


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
        if np.intersect1d(cells_a, cells_b).size:
            raise ValueError("cellsets overlap")
        cells = np.concatenate([cells_a, cells_b])
        side = np.zeros(cells.size, dtype=bool)
        side[cells_a.size:] = True
        sub = workload[np.ix_(cells, cells)]
        state = cls(
            cells=cells,
            side=side,
            weights=sub,
            diag=np.diag(sub).copy(),
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
        in_b = self.side.astype(float)
        in_a = 1.0 - in_b
        to_a = self.weights @ in_a
        to_b = self.weights @ in_b
        own_total = np.where(self.side, to_b, to_a)  # includes the cell's own diagonal
        self.own_off = own_total - self.diag
        self.other = np.where(self.side, to_a, to_b)
        self.load_a = cellset_load(self.weights, np.flatnonzero(~self.side))
        self.load_b = cellset_load(self.weights, np.flatnonzero(self.side))

    def delta(self, capacity: float) -> float:
        """``delta_cost`` of the current sides: the cut weight from scratch plus
        each side's overflow at the loads ``recompute_sums`` last set."""
        a, b = np.flatnonzero(~self.side), np.flatnonzero(self.side)
        cross = float(self.weights[np.ix_(a, b)].sum())
        return cross + max(0.0, self.load_a - capacity) + max(0.0, self.load_b - capacity)

    def cellset(self, side_b: bool) -> np.ndarray:
        return self.cells[self.side == side_b]

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
        # The moved cell's weight leaves the own sums of its old side and
        # joins those of its new side; ``weights`` is symmetric, so its row is
        # its column. Negation is exact, so one signed update reproduces the
        # separate subtract/add updates bit for bit.
        signed = self.weights[pos] * np.where(self.side == old_side, -1.0, 1.0)
        self.own_off += signed
        self.other -= signed
        self.own_off[pos], self.other[pos] = other, own_off
        self.side[pos] = not old_side
        if old_side:
            self.load_b, self.load_a = new_own, new_other
        else:
            self.load_a, self.load_b = new_own, new_other
        self.move_log.append((pos, old_side))
        prev = self.gain_log[-1] if self.gain_log else 0.0
        self.gain_log.append(prev + gain)


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


def move_cells(instance: Instance, assignment: Assignment, l0: int, l1: int) -> Assignment:
    """Migrate cells between the servers at ``l0`` and ``l1`` to reduce their
    joint cost contribution. Cells of other servers are untouched."""
    locs = set(assignment.server_locations)
    if l0 not in locs or l1 not in locs:
        raise ValueError("both locations must be in the server set")
    if l0 == l1:
        raise ValueError("locations must differ")
    state = PartitionState.from_assignment(instance, assignment, l0, l1)
    capacity = instance.capacity
    start_delta = state.delta(capacity)
    while True:
        start_side = state.side.copy()
        state.locked[:] = False
        state.move_log.clear()
        state.gain_log.clear()
        for _ in range(state.cells.size):
            pick = _select(state, capacity)
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
    Raises ``ValueError`` for an invalid ``assignment``.
    """
    check_valid(instance, assignment)
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
