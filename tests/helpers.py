"""Independent brute-force reference implementations used as test oracles.

Everything here is written as plainly as possible (explicit Python loops, no
shared code with the package beyond the data types) so that agreement with
the library is meaningful. The exceptions are ``swap_locations``, a test
helper built on the library's ``assign_cells``, and the blocks of
pre-optimisation FM, KMED and instance-writer code at the end, kept as
bit-exact references for the optimised code.
"""
from __future__ import annotations

import collections
import contextlib
import itertools
import math
from pathlib import Path

import numpy as np

from edgeplace import fm
from edgeplace.kmedian import DEFAULT_KAPPA, assign_cells
from edgeplace.model import Assignment, Instance, cellset_load, spread


def random_instance(rng, n_cells, n_candidates, n_servers, capacity=0.5, grid=None):
    """Valid random instance with uniform coordinates and normalized workload."""
    cells = rng.random((n_cells, 2))
    cands = rng.random((n_candidates, 2))
    raw = rng.random((n_cells, n_cells))
    w = np.triu(raw)
    w = w + np.triu(w, 1).T
    w /= np.triu(w).sum()
    return Instance(cells, cands, w, n_servers, capacity, grid=grid)


def random_assignment(rng, instance):
    """Uniform random location subset and cell map (test-local, no stream contract)."""
    locs = sorted(int(l) for l in rng.choice(instance.n_candidates, size=instance.n_servers, replace=False))
    cmap = rng.choice(locs, size=instance.n_cells)
    return Assignment(tuple(locs), cmap)


def loop_server_load(instance, assignment, location):
    """Triple-loop reference for one server's load."""
    total = 0.0
    w = instance.workload
    for i in range(instance.n_cells):
        if assignment.cell_to_location[i] != location:
            continue
        for j in range(i, instance.n_cells):
            if assignment.cell_to_location[j] == location:
                total += w[i, j]
    return total


def loop_cost(instance, assignment):
    """Pair-by-pair reference for the backhaul cost."""
    w = instance.workload
    cmap = assignment.cell_to_location
    cross = 0.0
    for i in range(instance.n_cells):
        for j in range(i, instance.n_cells):
            if cmap[i] != cmap[j]:
                cross += w[i, j]
    overload = 0.0
    for l in assignment.server_locations:
        overload += max(0.0, loop_server_load(instance, assignment, l) - instance.capacity)
    return cross + overload


def loop_spread(instance, assignment):
    """Double-loop reference for the spread objective."""
    total = 0.0
    for i in range(instance.n_cells):
        w_i = sum(instance.workload[i, j] for j in range(instance.n_cells))
        total += instance.fronthaul[i, assignment.cell_to_location[i]] * w_i
    return total


def loop_delta_cost(workload, cells_a, cells_b, capacity):
    """Reference for the two-server cost contribution: cut weight plus overloads."""
    cross = 0.0
    for i in cells_a:
        for j in cells_b:
            cross += workload[i, j]
    load_a = sum(workload[i, j] for i in cells_a for j in cells_a if i <= j)
    load_b = sum(workload[i, j] for i in cells_b for j in cells_b if i <= j)
    return cross + max(0.0, load_a - capacity) + max(0.0, load_b - capacity)


def swap_locations(instance, current, out_loc, in_loc):
    """Close ``out_loc``, open ``in_loc``, and reassign every cell to its
    nearest location in the new set (the single swap ``kmedian_search``
    evaluates). The input assignment is not modified."""
    locs = set(current.server_locations)
    if out_loc not in locs:
        raise ValueError(f"{out_loc} is not an open location")
    if in_loc in locs:
        raise ValueError(f"{in_loc} is already open")
    locs.remove(out_loc)
    locs.add(in_loc)
    return assign_cells(instance, locs)


def all_assignments(instance):
    """Yield every feasible assignment of a tiny instance."""
    for subset in itertools.combinations(range(instance.n_candidates), instance.n_servers):
        for cmap in itertools.product(subset, repeat=instance.n_cells):
            yield Assignment(subset, np.array(cmap))


def brute_force_matching(entries):
    """Minimum-total injective row->column map by trying every permutation.

    Returns (best_total, best_columns) with ties broken toward the
    lexicographically smallest column tuple.
    """
    m, n = entries.shape
    best_total = None
    best_cols = None
    for cols in itertools.permutations(range(n), m):
        total = 0.0
        for r in range(m):
            total += entries[r, cols[r]]
        if best_total is None or total < best_total:
            best_total = total
            best_cols = cols
    return best_total, best_cols


# ---------------------------------------------------------------------------
# Pre-optimisation FM kernels and descent loop, kept verbatim as bit-exact
# references for the lean kernels and the pair-result memo in edgeplace.fm.


def reference_gains(state, capacity):
    """(gain, eligible) as computed before the scalar-overflow rewrite."""
    own_load = np.where(state.side, state.load_b, state.load_a)
    other_load = np.where(state.side, state.load_a, state.load_b)
    new_own = own_load - state.diag - state.own_off
    new_other = other_load + state.diag + state.other
    cut_gain = state.other - state.own_off
    overflow = lambda x: np.maximum(x - capacity, 0.0)
    capacity_gain = (
        overflow(own_load) + overflow(other_load) - overflow(new_own) - overflow(new_other)
    )
    eligible = np.maximum(new_own, new_other) <= max(capacity, state.load_a, state.load_b)
    return cut_gain + capacity_gain, eligible


def reference_apply_move(state, pos, gain):
    """Move with four masked column updates, as before the signed update."""
    old_side = bool(state.side[pos])
    new_own = (state.load_b if old_side else state.load_a) - state.diag[pos] - state.own_off[pos]
    new_other = (state.load_a if old_side else state.load_b) + state.diag[pos] + state.other[pos]
    col = state.weights[:, pos].copy()
    col[pos] = 0.0
    old_side_mask = state.side == old_side
    old_side_mask[pos] = False
    dest_side_mask = ~old_side_mask
    dest_side_mask[pos] = False
    state.own_off[old_side_mask] -= col[old_side_mask]
    state.other[old_side_mask] += col[old_side_mask]
    state.own_off[dest_side_mask] += col[dest_side_mask]
    state.other[dest_side_mask] -= col[dest_side_mask]
    state.own_off[pos], state.other[pos] = state.other[pos], state.own_off[pos]
    state.side[pos] = not old_side
    if old_side:
        state.load_b, state.load_a = new_own, new_other
    else:
        state.load_a, state.load_b = new_own, new_other
    state.move_log.append((pos, old_side))
    prev = state.gain_log[-1] if state.gain_log else 0.0
    state.gain_log.append(prev + gain)


def reference_select(state, capacity):
    """Highest-gain eligible unlocked position via index arrays; ties to the lowest cell id."""
    gains, eligible = reference_gains(state, capacity)
    mask = eligible & ~state.locked
    if not mask.any():
        return None
    idx = np.flatnonzero(mask)
    g = gains[idx]
    tied = idx[g == g.max()]
    pos = int(tied[np.argmin(state.cells[tied])])
    return pos, float(gains[pos])


@contextlib.contextmanager
def reference_fm_kernels():
    """Run ``edgeplace.fm`` with the reference kernels patched in, every pair
    on the numpy pass (the float pass would hand them list-backed states)."""
    saved = (fm.PartitionState.gains, fm.PartitionState.apply_move, fm._select, fm.SMALL_PAIR)
    fm.PartitionState.gains = reference_gains
    fm.PartitionState.apply_move = reference_apply_move
    fm._select = reference_select
    fm.SMALL_PAIR = -1
    try:
        yield
    finally:
        fm.PartitionState.gains, fm.PartitionState.apply_move, fm._select, fm.SMALL_PAIR = saved


def reference_cost_descent(instance, assignment, spread_cap=math.inf, max_sweeps=100, commit_log=None):
    """Pair sweep that calls ``move_cells`` for every pair and recomputes
    every server load per candidate, as before the load cache and memo.
    Call it inside ``reference_fm_kernels()`` for the full reference path."""
    locs = sorted(set(assignment.server_locations))
    if len(locs) < 2:
        return assignment
    capacity = instance.capacity
    w = instance.workload

    def total_cost(a):
        served = 0.0
        for l in locs:
            served += min(capacity, cellset_load(w, a.cells_of(l)))
        return 1.0 - served

    current = assignment
    current_cost = total_cost(current)
    for _ in range(max_sweeps):
        committed = False
        for i, l0 in enumerate(locs):
            for l1 in locs[i + 1:]:
                candidate = fm.move_cells(instance, current, l0, l1)
                if candidate == current:
                    continue
                candidate_cost = total_cost(candidate)
                if candidate_cost >= current_cost:
                    continue
                candidate_spread = spread(instance, candidate)
                if candidate_spread > spread_cap:
                    continue
                current = candidate
                current_cost = candidate_cost
                committed = True
                if commit_log is not None:
                    commit_log.append((candidate_cost, candidate_spread))
        if not committed:
            break
    return current


# ---------------------------------------------------------------------------
# Pass loop of ``move_cells`` and the public ``delta_cost`` before each
# quantity was computed once, kept verbatim as bit-exact references. The only
# addition is ``stats``, which counts the paths the pass loop takes.


def reference_delta_cost(workload, cells_a, cells_b, capacity):
    """Joint cost contribution of two disjoint cellsets."""
    cells_a = np.asarray(cells_a, dtype=int)
    cells_b = np.asarray(cells_b, dtype=int)
    if np.intersect1d(cells_a, cells_b).size:
        raise ValueError("cellsets overlap")
    cross = float(workload[np.ix_(cells_a, cells_b)].sum()) if cells_a.size and cells_b.size else 0.0
    load_a = cellset_load(workload, cells_a)
    load_b = cellset_load(workload, cells_b)
    return cross + max(0.0, load_a - capacity) + max(0.0, load_b - capacity)


def reference_move_cells(instance, assignment, l0, l1, stats=None):
    """``move_cells`` with a from-scratch ``delta_cost`` at every pass start
    and per-move best-prefix tracking. ``stats`` (a ``Counter``) counts empty
    pairs, passes kept, and prefixes the drift guard rejected."""
    locs = set(assignment.server_locations)
    if l0 not in locs or l1 not in locs:
        raise ValueError("both locations must be in the server set")
    if l0 == l1:
        raise ValueError("locations must differ")
    state = fm.PartitionState.from_assignment(instance, assignment, l0, l1)
    capacity = instance.capacity
    stats = collections.Counter() if stats is None else stats
    stats["empty"] += not state.cells.size

    def current_delta() -> float:
        return reference_delta_cost(
            state.weights,
            np.flatnonzero(~state.side),
            np.flatnonzero(state.side),
            capacity,
        )

    if state.cells.size:
        while True:
            start_side = state.side.copy()
            start_delta = current_delta()
            state.locked[:] = False
            state.move_log.clear()
            state.gain_log.clear()
            best_total = 0.0
            best_len = 0
            for _ in range(state.cells.size):
                pick = fm._select(state, capacity)
                if pick is None:
                    break
                pos, gain = pick
                state.apply_move(pos, gain)
                state.locked[pos] = True
                total = state.gain_log[-1]
                if total > best_total:
                    best_total = total
                    best_len = len(state.move_log)
            state.side = start_side.copy()
            if best_total > 0.0:
                for pos, _ in state.move_log[:best_len]:
                    state.side[pos] = not state.side[pos]
                state.recompute_sums()
                # The summed per-move gains can drift by ~1e-16; a zero-gain
                # prefix (e.g. a full mirror flip) must not count as progress
                # or the pass loop ping-pongs forever. Keep the prefix only if
                # the from-scratch value strictly improved.
                if not current_delta() < start_delta:
                    stats["guard_rejected"] += 1
                    state.side = start_side
                    state.recompute_sums()
                    break
                stats["kept_passes"] += 1
            else:
                state.recompute_sums()
                break
    new_map = assignment.cell_to_location.copy()
    new_map[state.cellset(False)] = l0
    new_map[state.cellset(True)] = l1
    return Assignment(assignment.server_locations, new_map)


# ---------------------------------------------------------------------------
# Pre-batching KMED swap search, kept verbatim as the bit-exact reference for
# the one-array-op-per-closing-location scan in edgeplace.kmedian.


def _nearest_spread(instance: Instance, cols: np.ndarray) -> float:
    """Spread of the nearest-location assignment onto ``cols`` (ascending)."""
    d = instance.fronthaul[:, cols].min(axis=1)
    return float((d * instance.cell_totals).sum())


def reference_kmedian_search(
    instance: Instance,
    initial: Assignment,
    kappa: float = DEFAULT_KAPPA,
    accepted_log: list | None = None,
) -> Assignment:
    """Swap search that scores one (out, in) pair per ``_nearest_spread`` call."""
    open_locs = sorted(set(initial.server_locations))
    if len(open_locs) != instance.n_servers:
        raise ValueError("initial assignment must open exactly n_servers locations")
    current_spread = spread(instance, initial)
    for _ in range(10 * instance.n_candidates):
        accepted = False
        closed = [l for l in range(instance.n_candidates) if l not in set(open_locs)]
        for out_loc in list(open_locs):
            for in_loc in closed:
                cols = np.array(sorted(set(open_locs) - {out_loc} | {in_loc}))
                candidate = _nearest_spread(instance, cols)
                if candidate < (1.0 - kappa) * current_spread:
                    open_locs = cols.tolist()
                    current_spread = candidate
                    accepted = True
                    if accepted_log is not None:
                        accepted_log.append(candidate)
                    break
            if accepted:
                break
        if not accepted:
            break
    return assign_cells(instance, open_locs)


# ---------------------------------------------------------------------------
# Per-entry instance writer, kept verbatim as the byte-exact reference for the
# one-row-formatter writer in edgeplace.fileio.


def _fmt(x) -> str:
    return repr(float(x))


def reference_write_instance(instance: Instance, path) -> None:
    lines = [
        "edgeplace-instance 1",
        f"cells {instance.n_cells}",
        f"candidates {instance.n_candidates}",
        f"servers {instance.n_servers}",
        f"capacity {_fmt(instance.capacity)}",
    ]
    if instance.grid is not None:
        g = instance.grid
        lines.append(
            f"grid {g.rows} {g.cols} {_fmt(g.cell_size)} {_fmt(g.origin[0])} {_fmt(g.origin[1])}"
        )
    lines.append("cell_coords")
    for x, y in instance.cell_coords:
        lines.append(f"{_fmt(x)} {_fmt(y)}")
    lines.append("candidate_coords")
    for x, y in instance.candidate_coords:
        lines.append(f"{_fmt(x)} {_fmt(y)}")
    lines.append("workload")
    w = instance.workload
    for i, j in zip(*np.triu_indices(instance.n_cells)):
        if w[i, j] != 0.0:
            lines.append(f"{i} {j} {_fmt(w[i, j])}")
    if not instance.has_euclidean_fronthaul():
        lines.append("fronthaul")
        for row in instance.fronthaul:
            lines.append(" ".join(_fmt(x) for x in row))
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
