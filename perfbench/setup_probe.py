"""One set-up sample, run as a child process by ``run.py``.

Imports ``edgeplace`` from the checkout's ``src`` and builds the sweep's base
instance the way ``harness.run_sweep`` does (``generate``, or
``read_instance`` for a file source), then prints the CLOCK_MONOTONIC time at
which the instance is ready. The parent subtracts the time at which it
started this process, so a sample covers interpreter start, imports and the
instance build: everything before the first solve.

    python3 perfbench/setup_probe.py '<instance path or GenSpec as JSON>'
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    source = json.loads(sys.argv[1])
    from edgeplace.generate import GenSpec
    from edgeplace.harness import SweepSpec, base_instance
    from edgeplace.model import GridSpec

    if isinstance(source, dict):
        grid = source.pop("grid")
        if grid is not None:
            grid = GridSpec(grid["rows"], grid["cols"], grid["cell_size"], tuple(grid["origin"]))
        source = GenSpec(**source, grid=grid)
    base_instance(SweepSpec(source=source))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main()
