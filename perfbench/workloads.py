"""The benchmark's workloads and how a seed and a run length size them.

Each workload is one replication sweep (location sets x initials x the four
algorithms) at a single capacity. ``--seed n`` offsets the sweep's master
seed by ``n``, so seed 0 is the acceptance protocol and every other seed
draws fresh candidate locations and initial assignments.
The instance itself is always the acceptance instance: between generator
seeds, the median KMED solve of ``sites-250`` ranged from 1.1 s to 1.8 s,
a difference no number of solves within one run can average out.

Every run also solves the capped instance (``capped_spec``) once, untimed:
the acceptance gravity instance at ``epsilon=0.02``, so the spread-cap check
and the capped FM path are exercised by every run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from edgeplace.generate import GenSpec
from edgeplace.harness import SweepSpec
from edgeplace.model import GridSpec

N_INITIALS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    gen: GenSpec  # the acceptance instance
    master_seed: int  # acceptance master seed
    epsilon: float
    from_file: bool  # the sweep reads the instance from a file written once per run
    point_s: float  # seconds per sweep point (4 solves) on a 2-core x86 machine
    other_s: float  # seconds of a run outside the sweep, on the same machine

    def sweep_spec(self, seed: int, seconds: float, source) -> SweepSpec:
        """The sweep that, with everything else a run does, takes about
        ``seconds`` at the commit that fixed ``point_s`` and ``other_s``. A
        faster program solves the same inputs in less time: the size depends
        only on ``seconds``, never on measured speed."""
        points = (seconds - self.other_s) / self.point_s
        return SweepSpec(
            source=source,
            capacities=(self.gen.capacity,),
            n_location_sets=max(1, round(points / N_INITIALS)),
            n_initials=N_INITIALS,
            master_seed=self.master_seed + seed,
            epsilon=self.epsilon,
        )


def gravity_grid(rows: int, cell_size: float, n_candidates: int, n_servers: int, capacity: float) -> GenSpec:
    return GenSpec(
        n_cells=rows * rows,
        n_candidates=n_candidates,
        n_servers=n_servers,
        capacity=capacity,
        seed=20250808,
        layout="grid",
        grid=GridSpec(rows, rows, cell_size),
        workload_model="gravity",
        corr_length=0.1,
        activity_sigma=0.5,
    )


# The acceptance gravity instance under a tight spread cap: most FM pair calls
# that change nothing are rejections, not no-ops.
CAPPED_GEN = gravity_grid(25, 0.04, 50, 10, 0.05)
CAPPED_MASTER_SEED = 2
CAPPED_EPSILON = 0.02


def capped_spec(seed: int, gen: GenSpec = CAPPED_GEN) -> SweepSpec:
    """A ``KMED_FM_HUNG`` solve at ``epsilon=0.02``: correctness only."""
    return SweepSpec(
        source=gen,
        capacities=(gen.capacity,),
        n_location_sets=1,
        n_initials=N_INITIALS,
        algorithms=("KMED_FM_HUNG",),
        master_seed=CAPPED_MASTER_SEED + seed,
        epsilon=CAPPED_EPSILON,
    )


WORKLOADS = {
    w.name: w
    for w in (
        # Geography-free demand: FM refinement is ~95% of a solve and ~85% of
        # FM pair calls are no-ops. Read from a 3.8 MB file, so `fileio`
        # shows in setup_s; the file round-trips the generated instance
        # exactly, so outputs equal those of the in-memory acceptance sweep.
        Workload(
            name="uniform-500",
            gen=GenSpec(n_cells=500, n_candidates=50, n_servers=10, capacity=0.08, seed=20250808),
            master_seed=1,
            epsilon=math.inf,
            from_file=True,
            point_s=4.5,
            other_s=7.0,
        ),
        # 250 candidate sites: KMED swap search and the 250x250 HUNG matching
        # do most of the work, FM little.
        Workload(
            name="sites-250",
            gen=gravity_grid(10, 0.1, 250, 25, 0.04),
            master_seed=3,
            epsilon=math.inf,
            from_file=False,
            point_s=6.5,
            other_s=4.0,
        ),
    )
}
