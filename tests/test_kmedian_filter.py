"""The filter in ``kmedian_search``'s scan: its margin bounds the error of
every swap estimate, its exact path alone reproduces the reference search,
and the search stays bit-exact at the benchmark's scale.

The seeded cases are those of ``test_kmedian_reference``: tied and quantised
candidates, cells without demand, one server, no closed location and kappa at
both ends of (0, 1). They stop at 16 candidates and 40 cells, so the
benchmark-scale instances stress the margin's dependence on the cell count.
"""
from functools import cache

import numpy as np
import pytest

from edgeplace import kmedian
from edgeplace.generate import GenSpec, generate
from edgeplace.model import GridSpec

from helpers import random_assignment
from test_kmedian_reference import assert_matches_reference, search_case


@cache
def benchmark_case(name):
    """A ``uniform-500``-shaped instance (500 cells, 50 candidates, 10
    servers) or a 400-cell gravity grid with 80 candidates, and a start."""
    if name == "uniform-500":
        spec = GenSpec(n_cells=500, n_candidates=50, n_servers=10, capacity=0.08, seed=11)
    else:
        spec = GenSpec(
            n_cells=400, n_candidates=80, n_servers=8, capacity=0.05, seed=12, layout="grid",
            grid=GridSpec(20, 20, 0.05), workload_model="gravity", corr_length=0.1, activity_sigma=0.5,
        )
    inst = generate(spec)
    return inst, random_assignment(np.random.default_rng(spec.seed), inst), kmedian.DEFAULT_KAPPA


CASES = [pytest.param(seed, id=f"seed{seed}") for seed in range(60)]
LARGE = [pytest.param(name, id=name) for name in ("uniform-500", "gravity-400")]


def case(key):
    return search_case(key) if isinstance(key, int) else benchmark_case(key)


@pytest.mark.parametrize("key", CASES + LARGE)
def test_margin_bounds_every_estimate(monkeypatch, key):
    # Every call the scan makes is checked against the spread of each swap,
    # summed as ``model.spread`` sums it.
    inst, start, kappa = case(key)
    original = kmedian._Scan.estimates
    checked = []

    def estimates(scan, k):
        estimate, tau = original(scan, k)
        d_rest = inst.fronthaul[:, np.delete(scan.open_locs, k)].min(axis=1, initial=np.inf)
        exact = [(np.minimum(d_rest, inst.fronthaul[:, i]) * inst.cell_totals).sum() for i in scan.closed]
        assert (np.abs(estimate - exact) <= tau).all()
        checked.append(estimate.size)
        return estimate, tau

    monkeypatch.setattr(kmedian._Scan, "estimates", estimates)
    kmedian.kmedian_search(inst, start, kappa=kappa)
    assert checked


@pytest.mark.parametrize("seed", range(60))
def test_exact_path_alone_matches_reference(monkeypatch, seed):
    # With an infinite margin nothing is skipped: every swap is scored exactly.
    monkeypatch.setattr(kmedian, "_margin", lambda estimate, n_cells: np.full_like(estimate, np.inf))
    assert_matches_reference(*search_case(seed))


@pytest.mark.parametrize("name", ["uniform-500", "gravity-400"])
def test_matches_reference_at_benchmark_scale(name):
    assert_matches_reference(*benchmark_case(name))
