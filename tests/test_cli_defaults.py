"""No command-line option restates a library default.

An option whose ``dest`` names a parameter that the library gives a default
has no default of its own, so an option the user did not set leaves the
library's default in force.
"""
import argparse
import inspect

from edgeplace.cli import build_parser
from edgeplace.generate import GenSpec
from edgeplace.harness import SweepSpec, run_sweep
from edgeplace.oracle import enumerate_assignments
from edgeplace.pipeline import SolverConfig

# What each subcommand passes its options to.
TARGETS = {
    "gen": [GenSpec],
    "solve": [SolverConfig],
    "sweep": [GenSpec, SweepSpec, run_sweep],
    "oracle": [enumerate_assignments],
}


def defaulted(target) -> set[str]:
    """The parameters to which ``target``, a dataclass or a function, gives a default."""
    return {p.name for p in inspect.signature(target).parameters.values() if p.default is not p.empty}


def restated_defaults(parser: argparse.ArgumentParser, targets: dict) -> list[str]:
    """``<subcommand> <option>`` for each option with a default for a parameter that its targets default."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                library = set().union(*map(defaulted, targets.get(name, [])))
                found += [
                    f"{name} {a.option_strings[0]}"
                    for a in sub._actions
                    if a.dest in library and a.default is not None
                ]
    return found


def test_guard_finds_a_restated_default():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("solve")
    p.add_argument("--kappa", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)  # SolverConfig.seed has no default
    p.add_argument("--epsilon", type=float)
    assert restated_defaults(parser, TARGETS) == ["solve --kappa"]


def test_no_option_restates_a_library_default():
    assert restated_defaults(build_parser(), TARGETS) == []
