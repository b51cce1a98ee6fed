"""Golden-digest regression test: pins the solver's outputs bit for bit.

Small fixed sweeps over the two acceptance generators (all four algorithms)
plus one capped ``KMED_FM_HUNG`` sweep, which takes the spread-rejection path
of cost refinement. Each sweep's ``runs.csv`` with the ``wall_ms`` column
removed is hashed and compared with a stored sha256. Refinement breaks gain
ties on exact float equality, so a refactor that moves one ulp can change
assignments; "two runs agree" would not see that, a stored digest does.

The digests were computed with numpy's OpenBLAS build; ``recompute_sums``
uses a BLAS mat-vec, so a different numpy or BLAS build may legitimately
change them. The failure message names the build in use.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from edgeplace.harness import run_sweep

from test_acceptance import GRAVITY_SWEEP, UNIFORM_SWEEP

GOLDEN_SWEEPS = {
    "uniform": replace(UNIFORM_SWEEP, n_location_sets=2, n_initials=1),
    "gravity": replace(GRAVITY_SWEEP, n_location_sets=2, n_initials=1),
    "gravity-capped": replace(
        GRAVITY_SWEEP, n_location_sets=2, n_initials=1, algorithms=("KMED_FM_HUNG",), epsilon=0.02
    ),
}

GOLDEN_DIGESTS = {
    "uniform": "a47ff2d99a200970811f8911f43b26f0823531b75b2abc1f2d0d715900a2085e",
    "gravity": "37e3a5c87de5c429ce6f5081ed8cc042ccedcd33ff067214ef14098ac5d828d0",
    "gravity-capped": "bb89031fa435e1a5482a253b901ad9748c4cc131f7e04fa51addc81c7da35f37",
}


def runs_digest(path) -> str:
    """sha256 of a runs.csv with its last column (wall_ms) stripped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[-1] == "wall_ms"
    text = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def numeric_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return f"numpy {np.__version__}, BLAS unknown"


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_golden_digest(name, tmp_path):
    run_sweep(GOLDEN_SWEEPS[name], out_dir=tmp_path)
    digest = runs_digest(tmp_path / "runs.csv")
    assert digest == GOLDEN_DIGESTS[name], (
        f"{name}: runs.csv digest {digest} != stored {GOLDEN_DIGESTS[name]} "
        f"(this build: {numeric_build()}; stored with numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0)"
    )
