"""Command-line interface.

Subcommands: ``gen``, ``solve``, ``sweep``, ``oracle``, ``render``,
``plot-curves``. Exit codes: 0 success, 1 usage error, 2 runtime failure.
``EDGEPLACE_OUT_DIR`` supplies the default output directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .fileio import (
    read_assignment,
    read_instance,
    read_report,
    write_assignment,
    write_instance,
)
from .generate import GenSpec, generate
from .harness import DEFAULT_CAPACITIES, SweepSpec, aggregate_rows, check_jobs, run_sweep
from .model import GridSpec
from .oracle import enumerate_assignments
from .pipeline import ALGORITHMS, SolverConfig, solve
from .render import plot_curves, render_map


class UsageError(Exception):
    pass


def _usage_errors(build):
    """``build`` raising a UsageError in place of the ValueError of a bad parameter."""

    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as e:
            raise UsageError(str(e)) from None

    return checked


def default_out_dir() -> Path:
    return Path(os.environ.get("EDGEPLACE_OUT_DIR", "."))


def add_gen_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cells", type=int, help="number of cells")
    parser.add_argument("--candidates", type=int, help="number of candidate locations")
    parser.add_argument("--servers", type=int, help="number of servers")
    parser.add_argument("--capacity", type=float, help="per-server capacity (fraction of total demand)")
    parser.add_argument("--seed", type=int, default=0, help="generator / solver seed")
    parser.add_argument("--layout", choices=["random", "grid"], default="random")
    parser.add_argument("--grid-rows", type=int)
    parser.add_argument("--grid-cols", type=int)
    parser.add_argument("--grid-cell-size", type=float)
    parser.add_argument("--workload", choices=["uniform", "gravity"], default="uniform")
    parser.add_argument("--corr-length", type=float, help="gravity decay length (inf allowed)")
    parser.add_argument("--activity-sigma", type=float, default=1.0)
    parser.add_argument("--candidates-at-cells", action="store_true")


@_usage_errors
def genspec_from_args(args) -> GenSpec:
    required = ("cells", "candidates", "servers", "capacity")
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        raise UsageError(f"missing generator options: {', '.join(missing)}")
    grid = None
    if args.layout == "grid":
        if args.grid_rows is None or args.grid_cols is None or args.grid_cell_size is None:
            raise UsageError("grid layout needs --grid-rows, --grid-cols, --grid-cell-size")
        grid = GridSpec(args.grid_rows, args.grid_cols, args.grid_cell_size)
    return GenSpec(
        n_cells=args.cells,
        n_candidates=args.candidates,
        n_servers=args.servers,
        capacity=args.capacity,
        seed=args.seed,
        layout=args.layout,
        grid=grid,
        workload_model=args.workload,
        corr_length=args.corr_length,
        activity_sigma=args.activity_sigma,
        candidates_at_cells=args.candidates_at_cells,
    )


def cmd_gen(args) -> int:
    inst = generate(genspec_from_args(args))
    out = Path(args.out) if args.out else default_out_dir() / "instance.txt"
    write_instance(inst, out)
    print(f"wrote {out} ({inst.n_cells} cells, {inst.n_candidates} candidates)")
    return 0


def cmd_solve(args) -> int:
    config = _usage_errors(SolverConfig)(args.algo, args.seed, args.kappa, args.epsilon)
    inst = read_instance(args.instance)
    result = solve(inst, config)
    print(f"algo={args.algo} cost={result.objectives.cost!r} spread={result.objectives.spread!r}")
    if args.trace:
        for rec in result.trace:
            print(f"  phase={rec.name} cost={rec.cost!r} spread={rec.spread!r} events={len(rec.events)}")
    if args.out:
        write_assignment(result.assignment, args.out)
        print(f"wrote {args.out}")
    return 0


@_usage_errors
def sweepspec_from_args(args) -> SweepSpec:
    if args.config:
        return _sweepspec_from_config(Path(args.config))
    source = args.instance or genspec_from_args(args)
    capacities = tuple(float(c) for c in args.capacities.split(",")) if args.capacities else DEFAULT_CAPACITIES
    return SweepSpec(
        source=source,
        capacities=capacities,
        n_location_sets=args.loc_sets,
        n_initials=args.initials,
        algorithms=tuple(args.algos.split(",")) if args.algos else ALGORITHMS,
        master_seed=args.master_seed,
        kappa=args.kappa,
        epsilon=args.epsilon,
    )


# GenSpec has no default for these; a config's generator spec may omit them.
_SOURCE_DEFAULTS = {"capacity": 0.05, "seed": 0}


def _config_fields(cls, payload, where: str) -> dict:
    """``payload`` as keyword arguments for ``cls``; unknown keys are a usage error."""
    if not isinstance(payload, dict):
        raise UsageError(f"{where} must be a JSON object")
    unknown = sorted(set(payload) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise UsageError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return dict(payload)


def _sweepspec_from_config(path: Path) -> SweepSpec:
    fields = _config_fields(SweepSpec, json.loads(path.read_text(encoding="utf-8")), "sweep config")
    source = fields.get("source")
    if isinstance(source, dict):
        source = {**_SOURCE_DEFAULTS, **_config_fields(GenSpec, source, "source")}
        if source.get("grid") is not None:
            grid = _config_fields(GridSpec, source["grid"], "source.grid")
            if "origin" in grid:
                grid["origin"] = tuple(grid["origin"])
            source["grid"] = GridSpec(**grid)
        fields["source"] = GenSpec(**source)
    if "epsilon" in fields:  # a number, "inf", or null for no cap
        fields["epsilon"] = math.inf if fields["epsilon"] is None else float(fields["epsilon"])
    if "capacities" in fields:
        fields["capacities"] = tuple(float(c) for c in fields["capacities"])
    if "algorithms" in fields:
        fields["algorithms"] = tuple(fields["algorithms"])
    return SweepSpec(**fields)


def cmd_sweep(args) -> int:
    jobs = _usage_errors(check_jobs)(args.jobs)
    spec = sweepspec_from_args(args)
    out_dir = Path(args.out_dir) if args.out_dir else default_out_dir() / "sweep"
    report = run_sweep(spec, out_dir=out_dir, jobs=jobs)
    print(f"wrote {out_dir / 'runs.csv'} ({len(report.rows)} runs)")
    print(f"wrote {out_dir / 'summary.csv'} ({len(report.aggregates)} aggregate rows)")
    return 0


def cmd_oracle(args) -> int:
    inst = read_instance(args.instance)
    result = enumerate_assignments(inst, budget=args.budget)
    print(f"min_cost={result.min_cost!r}")
    print(f"min_spread={result.min_spread!r}")
    print(f"pareto_size={len(result.pareto)}")
    if args.out:
        payload = {
            "min_cost": result.min_cost,
            "min_spread": result.min_spread,
            "pareto": [list(p) for p in result.pareto],
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def cmd_render(args) -> int:
    inst = read_instance(args.instance)
    assignment = read_assignment(args.assignment)
    out = Path(args.out) if args.out else default_out_dir() / "map.svg"
    render_map(inst, assignment, out)
    print(f"wrote {out}")
    return 0


def cmd_plot_curves(args) -> int:
    rows = read_report(args.report)
    out_dir = Path(args.out_dir) if args.out_dir else default_out_dir() / "curves"
    written = plot_curves(aggregate_rows(rows), out_dir)
    for p in written:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgeplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    add_gen_arguments(p)
    p.add_argument("--out", help="instance file to write")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one algorithm on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="KMED_FM_HUNG")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa", type=float, default=1e-4)
    p.add_argument("--epsilon", type=float, default="inf", help="spread slack for refinement ('inf' allowed)")
    p.add_argument("--trace", action="store_true", help="print per-phase objectives")
    p.add_argument("--out", help="assignment CSV to write")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run the replication protocol")
    add_gen_arguments(p)
    p.add_argument("--instance", help="instance file (instead of generator options)")
    p.add_argument("--config", help="JSON file mirroring the sweep spec")
    p.add_argument("--capacities", help="comma-separated capacities")
    p.add_argument("--loc-sets", type=int, default=10)
    p.add_argument("--initials", type=int, default=5)
    p.add_argument("--algos", help="comma-separated algorithm names")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--kappa", type=float, default=1e-4)
    p.add_argument("--epsilon", type=float, default="inf")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exhaustive optima for a tiny instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--out", help="JSON file for the result")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="draw an assignment map as SVG")
    p.add_argument("--instance", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("plot-curves", help="objective-vs-capacity curves from a runs CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_plot_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
