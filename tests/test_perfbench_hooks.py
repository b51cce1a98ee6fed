"""The benchmark's tracer (``perfbench/tracing.py``) wraps solver entry points
by module attribute and reads the phase logs from keyword arguments. These
tests fail when a refactor renames an entry point or stops passing a log by
keyword, before the benchmark itself breaks."""
import importlib.util
from pathlib import Path

import numpy as np

from edgeplace import fm
from edgeplace.pipeline import SolverConfig, solve

from helpers import random_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    tracing = load_tracing()
    objects = tracing.entry_point_objects()
    names = {name for _, _, name, _ in tracing.ENTRY_POINTS} | {"fm.apply_move"}
    assert set(objects) == names
    assert all(callable(obj) for obj in objects.values())


def test_traced_solve_counts_swaps_and_commits():
    tracing = load_tracing()
    originals = tracing.entry_point_objects()
    inst = random_instance(np.random.default_rng(3), 30, 8, 3, capacity=0.2)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = solve(inst, SolverConfig("KMED_FM_HUNG", seed=1))
    assert tracing.entry_point_objects() == originals

    phases = {rec.name: rec for rec in result.trace}
    spans = {s.name: s for s in tracer.spans}
    assert spans["kmedian"].counts == {"swaps_accepted": len(phases["kmedian"].events)}
    assert spans["fm"].counts == {"commits": len(phases["refine"].events)}
    assert phases["kmedian"].events and phases["refine"].events
    assert tracer.moves > 0


def test_traced_pair_calls_nest_under_fm():
    # cost_descent must call move_cells through the module attribute, or the
    # benchmark's fm.pair_calls silently reads 0.
    tracing = load_tracing()
    inst = random_instance(np.random.default_rng(3), 30, 8, 3, capacity=0.2)
    tracer = tracing.Tracer()
    with tracer.installed():
        solve(inst, SolverConfig("KMED_FM_HUNG", seed=1))
    pair_spans = [s for s in tracer.spans if s.name == "fm.move_cells"]
    assert pair_spans
    assert all(tracer.spans[s.parent].name == "fm" for s in pair_spans)


def test_tracer_counts_the_moves_of_both_pass_kernels(monkeypatch):
    # Both pass kernels must move cells through PartitionState.apply_move,
    # which the tracer counts: the same solve with every pair forced onto the
    # numpy pass, then onto the float pass, traces the same work.
    tracing = load_tracing()
    inst = random_instance(np.random.default_rng(3), 30, 8, 3, capacity=0.2)
    runs = []
    for small_pair in (-1, inst.n_cells):
        monkeypatch.setattr(fm, "SMALL_PAIR", small_pair)
        tracer = tracing.Tracer()
        with tracer.installed():
            result = solve(inst, SolverConfig("KMED_FM_HUNG", seed=1))
        pairs = [s for s in tracer.spans if s.name == "fm.move_cells"]
        runs.append((tracer.moves, len(pairs), sum(s.counts["noop"] for s in pairs), result))
    numpy_run, float_run = runs
    assert numpy_run[0] > 0
    assert float_run[:3] == numpy_run[:3]
    assert float_run[3] == numpy_run[3]
