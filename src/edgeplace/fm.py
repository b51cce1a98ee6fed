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
few cells a numpy move costs about 18 calls on as many elements, so per-call
overhead outweighs the arithmetic. Larger pairs run on numpy vectors
(``PartitionState``, ``_select``), whose cost per move grows more slowly with
the pair. ``SMALL_PAIR`` is the measured crossover: replaying the recorded
``move_cells`` inputs of ``FM_HUNG`` and ``KMED_FM_HUNG`` solves on the
benchmark's ``uniform-500`` and ``sites-250`` instances and on the acceptance
gravity-625 instance (2-core x86 VM, CPython 3.11, numpy 2.4), ``move_cells``
on the float pass took 0.6-0.95x the time of the numpy pass on pairs of up
to 40 cells, 1.03-1.04x on 41 to 48 cells and mostly 1.1-3.6x above. Set-up
stays in numpy for both (``from_sets``, the BLAS mat-vec in
``recompute_sums``, ``delta``).

The numpy pass reads stacked rows that ``recompute_sums`` builds: row 0 for
each position's own side and row 1 for the other side. ``own_off`` and
``other`` are the two rows of one array, and the pass also keeps each
position's index into ``(load_a, load_b)`` per row, ``(-diag; diag)``, and
the +-1 signs of the row update for a move off either side. ``gains`` and
``_select`` share one formula: ``_moved_loads`` computes both new loads of
every position at once and ``_gain`` their gains. ``_select`` marks an
ineligible position by an infinite overflow, so its gain is -inf, and takes
the first ``argmax`` of the gains gathered in ascending cell id: ties go to
the lowest cell id, whatever order ``cells`` is in.

Both kernels move each cell through ``PartitionState.apply_move``, which
leaves only the update of the other positions' sums to ``_update_rows``; the
benchmark's tracer counts moves by wrapping ``apply_move``, and counts pair
calls by wrapping this module's ``move_cells``, which ``cost_descent`` looks
up at call time. A pair call that keeps no pass returns its input
assignment, so ``cost_descent`` recognises a no-op by identity.
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
SMALL_PAIR = 40


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
    locked: np.ndarray
    own_off: np.ndarray = field(init=False)
    other: np.ndarray = field(init=False)
    load_a: float = field(init=False)
    load_b: float = field(init=False)
    move_log: list[tuple[int, bool]] = field(default_factory=list)
    gain_log: list[float] = field(default_factory=list)

    @classmethod
    def from_sets(cls, workload: np.ndarray, cells_a, cells_b) -> "PartitionState":
        """``ValueError`` unless the two cellsets hold distinct integer cell ids of ``workload``."""
        cells_a, cells_b = (np.asarray(c) if len(c) else np.zeros(0, np.intp) for c in (cells_a, cells_b))
        cells = np.concatenate([cells_a, cells_b])
        if cells.dtype.kind not in "iu":
            raise ValueError(f"cell ids must be integers, got dtype {cells.dtype}")
        ids = sorted(cells.tolist())
        if ids and not 0 <= ids[0] <= ids[-1] < len(workload):
            raise ValueError(f"cell ids must lie in [0, {len(workload)})")
        if len(set(ids)) != len(ids):
            raise ValueError("cellsets overlap: a cell id appears twice")
        side = np.zeros(cells.size, dtype=bool)
        side[cells_a.size:] = True
        sub = workload[cells[:, None], cells]
        state = cls(
            cells=cells,
            side=side,
            weights=sub,
            diag=sub.diagonal().copy(),
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
        # Rows: each cell's total to its own side (its diagonal included),
        # then to the other side.
        sums = np.where(side, (to_b, to_a), (to_a, to_b))
        sums[0] -= self.diag
        self.load_a = cellset_load(self.weights, np.flatnonzero(~side))
        self.load_b = cellset_load(self.weights, np.flatnonzero(side))
        self._store_sums(sums, side)

    def _store_sums(self, sums: np.ndarray, side: np.ndarray) -> None:
        """Keep ``own_off`` and ``other`` as the rows of ``sums``, and build
        the other stacked (own; other) rows of the numpy pass: ``load_index``
        picks each position's own and other load from ``(load_a, load_b)``,
        ``diag_pm`` is (-diag; diag), and row ``k`` of ``signs`` holds the
        signs of the row update for a move off side ``k`` (a = 0, b = 1):
        -1 on that side, +1 on the other. ``order`` lists the positions in
        ascending cell id, for ``_select``'s tie rule."""
        self.own_off, self.other = sums
        self.load_index = np.array((side, ~side), dtype=np.intp)
        self.diag_pm = np.multiply.outer((-1.0, 1.0), self.diag)
        self.signs = np.multiply.outer((1.0, -1.0), np.where(side, 1.0, -1.0))
        self.order = np.argsort(self.cells)

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
        loads = _moved_loads(self)
        gain = _gain(self, np.maximum(loads - capacity, 0.0), capacity)
        eligible = (loads <= max(capacity, self.load_a, self.load_b)).all(axis=0)
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
        the cell at ``pos`` off side ``old_side``, and flip the stacked rows
        at ``pos``."""
        # The moved cell's weight leaves the own sums of its old side and
        # joins those of its new side; ``weights`` is symmetric, so its row is
        # its column. Negation is exact, so one signed update reproduces the
        # separate subtract/add updates bit for bit.
        old = int(old_side)
        signed = self.weights[pos] * self.signs[old]
        self.own_off += signed
        self.other -= signed
        # ``pos`` is now on side ``1 - old``.
        self.signs[old, pos], self.signs[1 - old, pos] = 1.0, -1.0
        self.load_index[0, pos], self.load_index[1, pos] = 1 - old, old


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

    def _store_sums(self, sums: np.ndarray, side: np.ndarray) -> None:
        self.own_off, self.other = sums.tolist()

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


def _moved_loads(state: PartitionState) -> np.ndarray:
    """Both new loads of every position if its cell moved: row 0 its own
    side's, row 1 the other side's (``x + -d`` is ``x - d``)."""
    loads = np.array((state.load_a, state.load_b)).take(state.load_index)
    loads += state.diag_pm
    loads[0] -= state.own_off
    loads[1] += state.other
    return loads


def _gain(state: PartitionState, over: np.ndarray, capacity: float) -> np.ndarray:
    """Each position's gain from the overflows ``over`` of its two new loads, written into ``over[0]``."""
    base = max(state.load_a - capacity, 0.0) + max(state.load_b - capacity, 0.0)
    gain = np.subtract(base, over[0], out=over[0])
    gain -= over[1]
    return np.add(state.other - state.own_off, gain, out=gain)


def _select(state: PartitionState, capacity: float):
    """Highest-gain eligible unlocked position, ties to the lowest cell id. An
    ineligible position overflows by +inf, so its gain is -inf (no other term
    is infinite, so no inf - inf arises); a locked position's is set to -inf."""
    loads = _moved_loads(state)
    over = loads - capacity
    np.maximum(over, 0.0, out=over)
    np.putmask(over, loads > max(capacity, state.load_a, state.load_b), math.inf)
    gain = _gain(state, over, capacity)
    np.putmask(gain, state.locked, -math.inf)
    pos = int(state.order[gain[state.order].argmax()])
    best = float(gain[pos])
    return None if best == -math.inf else (pos, best)


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
    joint cost contribution. Cells of other servers are untouched. Returns
    ``assignment`` itself when no pass is kept; a kept pass strictly lowers
    the pair's ``delta_cost``, so any other result differs from it."""
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
    kept = False
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
        kept = True
    if not kept:
        return assignment
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
    locs = assignment.server_locations  # ascending and distinct
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
                    if candidate is not current:
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
