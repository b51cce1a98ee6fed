"""The bytes of every file the library writes, pinned by sha256.

Each case writes one file (or, for ``plot_curves``, four) from inputs built
here by hand or by the generator, never by a solve, and compares its sha256
with a stored digest. A refactor of a writer, or of the workload generator,
that changes one byte of output fails here.

The gravity instance decays its pair weights with ``np.exp``, whose SIMD
path depends on the numpy build, so a failure names the build in use.
"""
import hashlib

import numpy as np
import pytest

from edgeplace.fileio import (
    AggregateRow,
    RunRow,
    write_assignment,
    write_instance,
    write_report,
    write_summary,
)
from edgeplace.generate import GenSpec, generate
from edgeplace.model import Assignment, GridSpec
from edgeplace.render import plot_curves, render_map

from test_golden import numeric_build

UNIFORM = GenSpec(n_cells=30, n_candidates=8, n_servers=3, capacity=0.2, seed=7)
GRAVITY = GenSpec(
    n_cells=25,
    n_candidates=6,
    n_servers=3,
    capacity=0.3,
    seed=11,
    layout="grid",
    grid=GridSpec(5, 5, 0.2, origin=(1.0, -0.5)),
    workload_model="gravity",
    corr_length=0.3,
    activity_sigma=0.5,
)

RUNS = [
    RunRow("FM_HUNG", 0.05, 0, 1, 0.1 + 0.2, 1 / 3, 0.0625, 0.0, 12.3456),
    RunRow("KMED", 0.08, 3, 0, 0.0, 2.5e-7, 1.0, 0.125, 0.0004),
]

AGGREGATES = [
    AggregateRow("FM_HUNG", 0.05, 0.3, 0.25, 0.35, 1 / 3, 0.3, 0.4, 2.0),
    AggregateRow("FM_HUNG", 0.08, 0.1, 0.05, 0.2, 0.5, 0.45, 0.55, None),
    AggregateRow("KMED", 0.05, 0.7, 0.6, 0.9, 0.25, 0.2, 0.3, 1.5),
    AggregateRow("KMED", 0.08, 0.4, 0.4, 0.4, 1e-3, 0.0, 2e-3, 3.25),
]


def round_robin(instance, locations) -> Assignment:
    """Cell ``i`` goes to ``locations[i % len(locations)]``."""
    cmap = np.array([locations[i % len(locations)] for i in range(instance.n_cells)])
    return Assignment(tuple(locations), cmap)


def uniform_map(d):
    instance = generate(UNIFORM)
    render_map(instance, round_robin(instance, [1, 4, 6]), d / "map.svg")


def grid_map(d):
    instance = generate(GRAVITY)
    render_map(instance, round_robin(instance, [0, 2, 5]), d / "map.svg")


# Each writer writes its file(s) into the directory it is given.
WRITERS = {
    "instance-uniform": lambda d: write_instance(generate(UNIFORM), d / "instance.txt"),
    "instance-gravity-grid": lambda d: write_instance(generate(GRAVITY), d / "instance.txt"),
    "map-random-layout": uniform_map,
    "map-grid": grid_map,
    "assignment": lambda d: write_assignment(round_robin(generate(UNIFORM), [6, 1, 4]), d / "assignment.csv"),
    "report": lambda d: write_report(RUNS, d / "runs.csv"),
    "summary": lambda d: write_summary(AGGREGATES, d / "summary.csv"),
    "curves": lambda d: plot_curves(AGGREGATES, d),
}

DIGESTS = {
    "instance-uniform": {"instance.txt": "d847ee669fcc1b862406773106408b949fa262c14dc329eda0126dc237f7734e"},
    "instance-gravity-grid": {"instance.txt": "20d49768f5fe48c0d4700ad9844e419b23705f4d610488d5c075648c0fd29565"},
    "map-random-layout": {"map.svg": "cd4cf30f2deba73c961aa875c94c55f88c9c5f0b6e7ac0b307569be7e9c90f38"},
    "map-grid": {"map.svg": "65da9adb95b57b4192722ee86ca764bd48b5138d324e54fb6752a14a4b1447ce"},
    "assignment": {"assignment.csv": "bc205ba578d5abe593b3d8fc5909b5d9c84c40dc08caef035c986ddd0ba1a74c"},
    "report": {"runs.csv": "4a4b660815577a96cf4d4ac00d6a99244ce880697c4a4ce9b1b340be4ed175bf"},
    "summary": {"summary.csv": "0c1391086a9bcd4c61a4fadfb94fdd79d4fb85c9fb9e76d0063c8b5af618076d"},
    "curves": {
        "cost_vs_capacity.csv": "f5147265bbc3ce67424b2141bfbb0321c2a50f0ef6958235ead54c931678ba1c",
        "cost_vs_capacity.svg": "01cec05844a09af32072d5495a5dbec470b28f9c1644f512a77f6fe2a26dc79c",
        "spread_vs_capacity.csv": "1ec233609adf6850b146a1ad7e109a42365ff55778660a25a39ab32e43b38232",
        "spread_vs_capacity.svg": "f8c272118b3ddabd496142e4985864ed81cb854863bc37b05c2f4ead6d9075f3",
    },
}


def digests(d) -> dict[str, str]:
    """sha256 of each file in the directory ``d``, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_output_bytes(name, tmp_path):
    WRITERS[name](tmp_path)
    got = digests(tmp_path)
    assert got == DIGESTS[name], (
        f"{name}: {got} != stored {DIGESTS[name]} "
        f"(this build: {numeric_build()}; stored with numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0)"
    )
