"""Bit-exact agreement of ``kmedian_search`` with the pre-batching swap
search kept in ``helpers``.

Every comparison is ``==``, never approximate: a swap is accepted on a strict
float comparison, so one ulp of drift in a score could accept a different
swap. Cases cover duplicated and quantised candidate coordinates (distance
ties), cells with zero demand, one server, one closed location, no closed
location, and kappa near both ends of (0, 1).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.kmedian import kmedian_search
from edgeplace.model import Instance

from helpers import random_assignment, reference_kmedian_search

KAPPAS = (1e-12, 1e-4, 0.05, 0.5, 1.0 - 1e-9)


def search_case(seed):
    """Random instance, valid random start and kappa, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n_candidates = int(rng.integers(2, 16))
    n_cells = int(rng.integers(n_candidates, 40))
    n_servers = int(rng.choice([1, n_candidates - 1, n_candidates, rng.integers(1, n_candidates + 1)]))
    cands = rng.random((n_candidates, 2))
    cells = rng.random((n_cells, 2))
    if rng.random() < 0.5:  # quantised coordinates: many exactly equal distances
        cands = rng.integers(0, 4, cands.shape) / 4.0
        cells = rng.integers(0, 4, cells.shape) / 4.0
    dup = rng.random(n_candidates) < 0.3  # duplicated candidates: tied columns
    cands[dup] = cands[rng.integers(0, n_candidates, int(dup.sum()))]
    quantised = rng.random() < 0.5
    raw = rng.integers(0, 4, (n_cells, n_cells)).astype(float) if quantised else rng.random((n_cells, n_cells))
    idle = 1 + np.flatnonzero(rng.random(n_cells - 1) < 0.2)  # cells without demand
    raw[idle, :] = 0.0
    raw[:, idle] = 0.0
    raw[0, 0] = 1.0  # never all zero
    w = np.triu(raw)
    w = w + np.triu(w, 1).T
    w /= np.triu(w).sum()
    inst = Instance(cells, cands, w, n_servers, 0.5)
    kappa = KAPPAS[int(rng.integers(0, len(KAPPAS)))]
    return inst, random_assignment(rng, inst), kappa


def assert_matches_reference(inst, start, kappa):
    log_new, log_ref = [], []
    got = kmedian_search(inst, start, kappa=kappa, accepted_log=log_new)
    want = reference_kmedian_search(inst, start, kappa=kappa, accepted_log=log_ref)
    assert got == want
    assert log_new == log_ref


@pytest.mark.parametrize("seed", range(60))
def test_kmedian_search_matches_reference(seed):
    assert_matches_reference(*search_case(seed))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_kmedian_search_matches_reference_property(seed):
    assert_matches_reference(*search_case(seed))


def test_seeded_cases_cover_the_edges():
    # The seeded comparisons must reach every edge case named above, and
    # accept enough swaps that a reordering of the scan would show.
    seen = {"one": 0, "one_closed": 0, "none_closed": 0, "idle": 0, "tied": 0, "kappa_ends": 0}
    accepted = 0
    for seed in range(60):
        inst, start, kappa = search_case(seed)
        seen["one"] += inst.n_servers == 1
        seen["one_closed"] += inst.n_servers == inst.n_candidates - 1
        seen["none_closed"] += inst.n_servers == inst.n_candidates
        seen["idle"] += bool((inst.cell_totals == 0).any())
        seen["tied"] += len({tuple(c) for c in inst.candidate_coords}) < inst.n_candidates
        seen["kappa_ends"] += kappa in (KAPPAS[0], KAPPAS[-1])
        log = []
        kmedian_search(inst, start, kappa=kappa, accepted_log=log)
        accepted += len(log)
    assert min(seen.values()) >= 3, seen
    assert accepted > 40

