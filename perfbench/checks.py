"""Per-solve correctness checks and the sweep's output digest."""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

from edgeplace.model import MalformedAssignmentError, cost_pairwise, validate

# Same slack the acceptance gate allows between two evaluations of one cost.
COST_TOL = 1e-12


def check_solve(instance, config, result) -> list[str]:
    """Problems with one ``pipeline.solve`` result; empty when it is correct."""
    problems = []
    try:
        violation = validate(instance, result.assignment)
    except MalformedAssignmentError as e:
        violation = e
    if violation is not None:
        problems.append(f"invalid assignment: {violation}")
    obj = result.objectives
    if not (math.isfinite(obj.cost) and math.isfinite(obj.spread)):
        problems.append(f"non-finite objectives {obj.as_tuple()}")
    elif violation is None:
        pairwise = cost_pairwise(instance, result.assignment)
        if not abs(obj.cost - pairwise) <= COST_TOL:
            problems.append(f"cost {obj.cost!r} differs from pairwise cost {pairwise!r}")
    phases = {p.name: p for p in result.trace}
    if "relocate" in phases:
        refine, reloc = phases["refine"], phases["relocate"]
        if not abs(reloc.cost - refine.cost) <= COST_TOL:
            problems.append(f"relocation changed cost {refine.cost!r} -> {reloc.cost!r}")
        if not reloc.spread <= refine.spread + COST_TOL:
            problems.append(f"relocation raised spread {refine.spread!r} -> {reloc.spread!r}")
    if config.algorithm == "KMED_FM_HUNG" and not math.isinf(config.epsilon):
        cap = (1.0 + config.epsilon) * phases["kmedian"].spread
        if not phases["refine"].spread <= cap:
            problems.append(f"refine spread {phases['refine'].spread!r} exceeds cap {cap!r}")
    return problems


def report_digest(runs_csv: Path) -> str:
    """sha256 of ``runs.csv`` with the ``wall_ms`` column removed."""
    lines = Path(runs_csv).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].endswith(",wall_ms"):
        raise ValueError(f"{runs_csv} does not end its header with wall_ms")
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    return hashlib.sha256(stripped.encode("utf-8")).hexdigest()
