"""Command-line interface.

Subcommands: ``gen``, ``solve``, ``sweep``, ``oracle``, ``render``,
``plot-curves``. Exit codes: 0 success, 1 usage error, 2 runtime failure.
``EDGEPLACE_OUT_DIR`` supplies the default output directory.

An option's ``dest`` names the library parameter it sets, and an option left
out is not passed on, so the library's default applies. ``sweep`` takes the
fields of its JSON ``--config``, then the options set on the command line;
its generator source takes the first of its capacities.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import types
import typing
from pathlib import Path

from .fileio import (
    read_assignment,
    read_instance,
    read_report,
    write_assignment,
    write_instance,
)
from .generate import LAYOUTS, WORKLOAD_MODELS, GenSpec, generate
from .harness import SweepSpec, aggregate_rows, check_jobs, run_sweep
from .model import GridSpec
from .oracle import check_budget, enumerate_assignments
from .pipeline import ALGORITHMS, SolverConfig, solve
from .render import plot_curves, render_map


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a usage error."""

    def error(self, message):
        raise UsageError(message)


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


def _fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _given(args, names) -> dict:
    """The options among ``names`` that are set on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _from_json(kind, value):
    """The non-null JSON ``value`` as a field of type ``kind``; TypeError for a
    value of another JSON type. A float takes a number or a string that
    ``float`` reads ("inf"), a tuple an array, and a dataclass an object."""
    for member in typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,):
        if typing.get_origin(member) is tuple and isinstance(value, list):
            return tuple(_from_json(typing.get_args(member)[0], v) for v in value)
        if type(value) is (dict if dataclasses.is_dataclass(member) else member):
            return value
        if member is float and type(value) in (int, str):
            with contextlib.suppress(ValueError):
                return float(value)
    raise TypeError


def _config_fields(cls, payload, where: str) -> dict:
    """The non-null keys of the JSON object ``payload``, which must be fields
    of ``cls`` holding values of the field's type."""
    if not isinstance(payload, dict):
        raise UsageError(f"{where} must be a JSON object")
    unknown = sorted(set(payload).difference(_fields(cls)))
    if unknown:
        raise UsageError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    kinds, fields = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        try:
            if payload.get(f.name) is not None:
                fields[f.name] = _from_json(kinds[f.name], payload[f.name])
        except TypeError:
            raise UsageError(f"{f.name} in {where} must be {f.type}, got {payload[f.name]!r}") from None
    return fields


def _build(cls, fields: dict, what: str):
    """``cls(**fields)``; a missing field that ``cls`` does not default is a usage error."""
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in fields and f.default is dataclasses.MISSING]
    if missing:
        raise UsageError(f"missing {what} options: {', '.join(missing)}")
    return cls(**fields)


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(map(float, _comma_list(text)))
    except ValueError as e:  # else argparse names only the option and its value
        raise argparse.ArgumentTypeError(str(e)) from None


def add_gen_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cells", dest="n_cells", type=int, help="number of cells")
    parser.add_argument("--candidates", dest="n_candidates", type=int, help="number of candidate locations")
    parser.add_argument("--servers", dest="n_servers", type=int, help="number of servers")
    parser.add_argument("--seed", type=int, help="generator seed")
    parser.add_argument("--layout", choices=LAYOUTS)
    parser.add_argument("--grid-rows", dest="rows", type=int)
    parser.add_argument("--grid-cols", dest="cols", type=int)
    parser.add_argument("--grid-cell-size", dest="cell_size", type=float)
    parser.add_argument("--workload", dest="workload_model", choices=WORKLOAD_MODELS)
    parser.add_argument("--corr-length", type=float, help="gravity decay length (inf allowed)")
    parser.add_argument("--activity-sigma", type=float)


def genspec_from_args(args, fields: dict) -> GenSpec:
    """A GenSpec of ``fields`` with the generator options set on the command line applied."""
    fields = {**fields, **_given(args, _fields(GenSpec))}
    grid = {**_config_fields(GridSpec, fields.pop("grid", {}), "source.grid"), **_given(args, _fields(GridSpec))}
    if grid:
        fields["grid"] = _build(GridSpec, grid, "grid")
    return _build(GenSpec, fields, "generator")


def cmd_gen(args) -> int:
    inst = generate(_usage_errors(genspec_from_args)(args, {}))
    out = Path(args.out) if args.out else default_out_dir() / "instance.txt"
    write_instance(inst, out)
    print(f"wrote {out} ({inst.n_cells} cells, {inst.n_candidates} candidates)")
    return 0


def cmd_solve(args) -> int:
    config = _usage_errors(SolverConfig)(**_given(args, _fields(SolverConfig)))
    inst = read_instance(args.instance)
    result = solve(inst, config)
    print(f"algo={config.algorithm} cost={result.objectives.cost!r} spread={result.objectives.spread!r}")
    if args.trace:
        for rec in result.trace:
            print(f"  phase={rec.name} cost={rec.cost!r} spread={rec.spread!r} events={len(rec.events)}")
    if args.out:
        write_assignment(result.assignment, args.out)
        print(f"wrote {args.out}")
    return 0


@_usage_errors
def sweepspec_from_args(args) -> SweepSpec:
    """The fields of ``--config``, then the options set on the command line."""
    config = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    fields = {**_config_fields(SweepSpec, config, "sweep config"), **_given(args, _fields(SweepSpec))}
    source = fields.pop("source", {})
    if isinstance(source, str):
        generator = _given(args, _fields(GenSpec) + _fields(GridSpec))
        if generator:
            raise UsageError(f"generator options ({', '.join(generator)}) do not apply to an instance file")
        return SweepSpec(source, **fields)
    source = _config_fields(GenSpec, source, "source")
    if "capacity" in source:
        raise UsageError("a sweep's generator source takes its capacity from the sweep's capacities")
    spec = SweepSpec("", **fields)  # the sweep's own fields are checked before its source is built
    return dataclasses.replace(spec, source=genspec_from_args(args, {**source, "capacity": spec.capacities[0]}))


def cmd_sweep(args) -> int:
    options = _given(args, ["jobs"])
    if options:
        _usage_errors(check_jobs)(options["jobs"])
    spec = sweepspec_from_args(args)
    out_dir = Path(args.out_dir) if args.out_dir else default_out_dir() / "sweep"
    report = run_sweep(spec, out_dir=out_dir, **options)
    print(f"wrote {out_dir / 'runs.csv'} ({len(report.rows)} runs)")
    print(f"wrote {out_dir / 'summary.csv'} ({len(report.aggregates)} aggregate rows)")
    return 0


def cmd_oracle(args) -> int:
    options = _given(args, ["budget"])
    if options:
        _usage_errors(check_budget)(options["budget"])
    inst = read_instance(args.instance)
    result = enumerate_assignments(inst, **options)
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
    parser = _Parser(prog="edgeplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    add_gen_arguments(p)
    p.add_argument("--capacity", type=float, help="per-server capacity (fraction of total demand)")
    p.add_argument("--out", help="instance file to write")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one algorithm on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, default="KMED_FM_HUNG")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa", type=float)
    p.add_argument("--epsilon", type=float, help="spread slack for refinement ('inf' allowed)")
    p.add_argument("--trace", action="store_true", help="print per-phase objectives")
    p.add_argument("--out", help="assignment CSV to write")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run the replication protocol")
    add_gen_arguments(p)
    p.add_argument("--instance", dest="source", help="instance file (instead of generator options)")
    p.add_argument("--config", help="JSON file of sweep spec fields")
    p.add_argument("--capacities", type=_comma_floats, help="comma-separated capacities")
    p.add_argument("--loc-sets", dest="n_location_sets", type=int)
    p.add_argument("--initials", dest="n_initials", type=int)
    p.add_argument("--algos", dest="algorithms", type=_comma_list, help="comma-separated algorithm names")
    p.add_argument("--master-seed", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--jobs", type=int, help="parallel worker processes")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exhaustive optima for a tiny instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 1
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
