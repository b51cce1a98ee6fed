import json

import pytest

from edgeplace.cli import main
from edgeplace.fileio import read_assignment, read_instance, read_report


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    rc = main(
        [
            "gen",
            "--cells", "15",
            "--candidates", "6",
            "--servers", "2",
            "--capacity", "0.2",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


def test_gen_writes_readable_instance(instance_file):
    inst = read_instance(instance_file)
    assert inst.n_cells == 15
    assert inst.n_servers == 2


def test_gen_missing_options_is_usage_error(tmp_path, capsys):
    rc = main(["gen", "--cells", "10", "--out", str(tmp_path / "x.txt")])
    assert rc == 1
    assert "missing generator options" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_bad_jobs_as_usage_error(instance_file, tmp_path, capsys, jobs):
    rc = main(["sweep", "--instance", str(instance_file), "--jobs", jobs, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_solve_writes_assignment(instance_file, tmp_path, capsys):
    out = tmp_path / "assign.csv"
    rc = main(
        [
            "solve",
            "--instance", str(instance_file),
            "--algo", "KMED_FM_HUNG",
            "--seed", "5",
            "--trace",
            "--out", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "cost=" in captured
    assert "phase=relocate" in captured
    a = read_assignment(out)
    assert len(a.server_locations) == 2


def test_solve_rejects_nan_epsilon(instance_file, tmp_path, capsys):
    out = tmp_path / "assign.csv"
    rc = main(["solve", "--instance", str(instance_file), "--epsilon", "nan", "--out", str(out)])
    assert rc == 1
    assert "epsilon must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_bad_kappa_before_reading_instance(tmp_path, capsys):
    rc = main(["sweep", "--instance", str(tmp_path / "nope.txt"), "--kappa", "2", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "kappa must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, message",
    [
        ("gen --cells 10 --candidates 4 --servers 2 --capacity 2 --out {nope}", "capacity must lie in (0, 1]"),
        ("solve --instance {nope} --epsilon nan", "epsilon must be >= 0"),
        ("solve --instance {nope} --kappa 2", "kappa must lie in (0, 1)"),
        ("solve --instance {nope} --seed -1", "seed must fit in 64 bits"),
        ("sweep --instance {nope} --kappa 2 --out-dir {tmp}", "kappa must lie in (0, 1)"),
        ("sweep --instance {nope} --capacities 0.5,x --out-dir {tmp}", "could not convert string to float: 'x'"),
        ("sweep --instance {nope} --capacities 2 --out-dir {tmp}", "capacity must lie in (0, 1]"),
        ("sweep --instance {nope} --loc-sets 0 --out-dir {tmp}", "seed counts must be >= 1"),
        ("sweep --instance {nope} --algos FOO --out-dir {tmp}", "unknown algorithm 'FOO'"),
    ],
)
def test_bad_parameter_is_usage_error(tmp_path, capsys, command, message):
    # {nope} does not exist: each parameter is checked before a file is read or written
    nope = tmp_path / "nope.txt"
    rc = main(command.format(nope=nope, tmp=tmp_path).split())
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert message in err
    assert not nope.exists()


def test_solve_missing_file_is_runtime_error(tmp_path, capsys):
    rc = main(["solve", "--instance", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_and_plot_curves(instance_file, tmp_path):
    out_dir = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--instance", str(instance_file),
            "--capacities", "0.1,0.2",
            "--loc-sets", "1",
            "--initials", "2",
            "--algos", "RAND,KMED",
            "--master-seed", "1",
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    rows = read_report(out_dir / "runs.csv")
    assert len(rows) == 8  # 2 algos x 2 capacities x 1 loc set x 2 initials
    curves_dir = tmp_path / "curves"
    rc = main(["plot-curves", "--report", str(out_dir / "runs.csv"), "--out-dir", str(curves_dir)])
    assert rc == 0
    assert (curves_dir / "cost_vs_capacity.csv").exists()
    assert (curves_dir / "spread_vs_capacity.svg").exists()


def test_sweep_from_config_file(instance_file, tmp_path):
    config = {
        "source": str(instance_file),
        "capacities": [0.15],
        "n_location_sets": 1,
        "n_initials": 1,
        "algorithms": ["RAND"],
        "master_seed": 4,
        "epsilon": "inf",
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    assert len(read_report(out_dir / "runs.csv")) == 1


def test_sweep_config_generator_defaults_and_unknown_key(tmp_path, capsys):
    config = {
        "source": {"n_cells": 6, "n_candidates": 4, "n_servers": 2,
                   "grid": {"rows": 2, "cols": 3, "cell_size": 0.5, "origin": [1.0, 2.0]}},
        "capacities": [0.5],
        "n_location_sets": 1,
        "n_initials": 1,
        "algorithms": ["KMED"],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert len(read_report(tmp_path / "out" / "runs.csv")) == 1

    config["n_initial"] = 3  # typo of n_initials
    cfg_path.write_text(json.dumps(config))
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "n_initial" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    path = tmp_path / "small.txt"
    rc = main(
        [
            "gen",
            "--cells", "5",
            "--candidates", "4",
            "--servers", "2",
            "--capacity", "0.4",
            "--seed", "1",
            "--out", str(path),
        ]
    )
    assert rc == 0
    out_json = tmp_path / "oracle.json"
    rc = main(["oracle", "--instance", str(path), "--out", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["min_cost"] <= 1.0
    assert payload["pareto"]


def test_oracle_budget_error_is_runtime_failure(instance_file, capsys):
    rc = main(["oracle", "--instance", str(instance_file), "--budget", "10"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def test_render_command(instance_file, tmp_path):
    assign_path = tmp_path / "a.csv"
    assert main(
        ["solve", "--instance", str(instance_file), "--algo", "RAND", "--seed", "2", "--out", str(assign_path)]
    ) == 0
    svg_path = tmp_path / "map.svg"
    assert main(
        ["render", "--instance", str(instance_file), "--assignment", str(assign_path), "--out", str(svg_path)]
    ) == 0
    assert svg_path.read_text().startswith("<?xml")


def test_out_dir_env_var(instance_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EDGEPLACE_OUT_DIR", str(tmp_path))
    rc = main(
        [
            "gen",
            "--cells", "6",
            "--candidates", "3",
            "--servers", "1",
            "--capacity", "0.5",
            "--seed", "0",
        ]
    )
    assert rc == 0
    assert (tmp_path / "instance.txt").exists()
