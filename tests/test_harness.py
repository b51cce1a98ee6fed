import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from edgeplace import harness
from edgeplace.fileio import read_report, write_instance
from edgeplace.generate import GenSpec
from edgeplace.harness import (
    SweepSpec,
    aggregate_rows,
    base_instance,
    candidate_variant,
    run_seed,
    run_sweep,
)
from edgeplace.model import Assignment, Instance, cost, spread
from edgeplace.pipeline import SolverConfig, solve
from edgeplace.render import plot_curves, render_map, server_palette

from helpers import random_instance


SMALL_GEN = GenSpec(n_cells=20, n_candidates=8, n_servers=3, capacity=0.1, seed=4)


def small_spec(**overrides):
    base = dict(
        source=SMALL_GEN,
        capacities=(0.1, 0.2),
        n_location_sets=2,
        n_initials=2,
        algorithms=("RAND", "KMED"),
        master_seed=7,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            small_spec(capacities=(0.0,))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_spec(algorithms=("SOLVE_IT",))

    @pytest.mark.parametrize(
        "overrides, match",
        [({"kappa": 2.0}, "kappa"), ({"epsilon": -1.0}, "epsilon"), ({"epsilon": math.nan}, "epsilon")],
    )
    def test_rejects_bad_solver_params(self, overrides, match):
        # The sweep applies SolverConfig's rules before building any instance.
        with pytest.raises(ValueError, match=match):
            small_spec(**overrides)

    @pytest.mark.parametrize("overrides", [{"capacities": ()}, {"algorithms": ()}])
    def test_rejects_a_sweep_of_nothing(self, overrides):
        with pytest.raises(ValueError, match="at least one capacity and one algorithm"):
            small_spec(**overrides)

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError, match="master_seed"):
            small_spec(master_seed=-5)

    @pytest.mark.parametrize("name", ["n_location_sets", "n_initials", "master_seed"])
    def test_rejects_non_integer_count_or_seed(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 1.5"):
            small_spec(**{name: 1.5})

    @pytest.mark.parametrize("name", ["n_location_sets", "n_initials", "master_seed"])
    def test_rejects_a_bool_count_or_seed(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
            small_spec(**{name: True})

    def test_rejects_a_capacity_that_is_not_a_number(self):
        # Not read as 0.5: a capacity is a number, as for GenSpec and Instance.
        with pytest.raises(ValueError, match="capacity must be a number, got '0.5'"):
            small_spec(capacities=("0.5",))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"capacities": (0.5, 0.5)}, "capacities must not repeat an entry"),
            ({"capacities": (0.5, 0.25, 0.5)}, "capacities must not repeat an entry"),
            ({"algorithms": ("RAND", "RAND")}, "algorithms must not repeat an entry"),
        ],
    )
    def test_rejects_a_repeated_entry(self, overrides, match):
        # Each solve would run twice, and runs.csv would hold its row twice.
        with pytest.raises(ValueError, match=match):
            small_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"algorithms": "KMED"}, "algorithms must be a sequence, got 'KMED'"),
            ({"capacities": 0.5}, "capacities must be a sequence, got 0.5"),
        ],
    )
    def test_rejects_a_bare_value(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_spec(**overrides)

    @pytest.mark.parametrize("source", [3, None, b"x.txt", ["a"]], ids=["int", "None", "bytes", "list"])
    def test_rejects_a_source_that_is_neither_a_spec_nor_a_path(self, source):
        with pytest.raises(ValueError, match=r"^source must be a GenSpec or an instance file path, got "):
            SweepSpec(source)

    def test_full_capacity_sweeps(self):
        # Same capacity domain as Instance: (0, 1], so 1.0 is allowed.
        rep = run_sweep(small_spec(capacities=(1.0,), n_location_sets=1, n_initials=1))
        assert {r.capacity for r in rep.rows} == {1.0}
        assert all(r.cost >= 0.0 for r in rep.rows)


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_fewer_than_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(small_spec(), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1.5, "2", True])
    def test_rejects_a_non_integer(self, jobs):
        # Rejected before the instance is built or a worker is started.
        with pytest.raises(ValueError, match=f"jobs must be an integer, got {jobs!r}"):
            run_sweep(small_spec(), jobs=jobs)

    def test_workers_capped_at_chunk_count(self, monkeypatch):
        seen = []

        class InlineExecutor:
            """Stands in for the process pool: records its size, runs inline."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
        spec = small_spec(capacities=(0.1,), n_initials=1)  # 2 location sets -> 2 chunks
        untimed = lambda rows: [replace(r, wall_ms=0.0) for r in rows]
        assert untimed(run_sweep(spec, jobs=64).rows) == untimed(run_sweep(spec).rows)
        assert seen == [2]
        run_sweep(replace(spec, n_location_sets=1), jobs=64)  # one chunk runs inline
        assert seen == [2]


class TestSweep:
    def test_row_count_contract(self):
        report = run_sweep(small_spec())
        # 2 algorithms x 2 capacities x 2 location sets x 2 initials
        assert len(report.rows) == 16
        assert len(report.aggregates) == 4

    def test_single_run_aggregate_collapses(self):
        spec = small_spec(capacities=(0.1,), n_location_sets=1, n_initials=1, algorithms=("RAND",))
        report = run_sweep(spec)
        assert len(report.rows) == 1
        agg = report.aggregates[0]
        assert agg.cost_mean == agg.cost_min == agg.cost_max
        assert agg.spread_mean == agg.spread_min == agg.spread_max

    def test_group_without_positive_min_load_has_empty_load_ratio(self, tmp_path):
        # Cells 2 and 3 carry no demand; this RAND run leaves them alone on a server.
        w = np.zeros((4, 4))
        w[0, 0] = w[1, 1] = 0.25
        w[0, 1] = w[1, 0] = 0.5
        cells = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        write_instance(Instance(cells, cells[:3], w, 2, 0.5), tmp_path / "inst.txt")
        spec = SweepSpec(str(tmp_path / "inst.txt"), capacities=(0.5,), n_location_sets=1, n_initials=1,
                         algorithms=("RAND",), master_seed=1)
        report = run_sweep(spec, out_dir=tmp_path)
        assert [r.min_load for r in report.rows] == [0.0]
        assert report.aggregates[0].load_ratio_mean is None
        header, row = (line.split(",") for line in (tmp_path / "summary.csv").read_text().splitlines())
        assert dict(zip(header, row, strict=True))["load_ratio_mean"] == ""

    def test_aggregates_match_recomputation_from_rows(self):
        report = run_sweep(small_spec())
        for agg in report.aggregates:
            group = [
                r for r in report.rows if r.algo == agg.algo and r.capacity == agg.capacity
            ]
            assert agg.cost_mean == pytest.approx(np.mean([r.cost for r in group]))
            assert agg.cost_min == min(r.cost for r in group)
            assert agg.cost_max == max(r.cost for r in group)
            assert agg.spread_mean == pytest.approx(np.mean([r.spread for r in group]))

    def test_rows_reproduce_solver_objectives(self):
        spec = small_spec()
        report = run_sweep(spec)
        inst = base_instance(spec)
        for row in report.rows[:4]:
            variant = candidate_variant(inst, spec.master_seed, row.loc_seed)
            import dataclasses

            variant = dataclasses.replace(variant, capacity=row.capacity)
            config = SolverConfig(row.algo, seed=run_seed(spec.master_seed, row.loc_seed, row.init_seed))
            result = solve(variant, config)
            assert row.cost == pytest.approx(result.objectives.cost, abs=1e-12)
            assert row.spread == pytest.approx(result.objectives.spread, abs=1e-12)

    def test_parallel_equals_serial(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(spec, out_dir=tmp_path / "serial", jobs=1)
        parallel = run_sweep(spec, out_dir=tmp_path / "parallel", jobs=2)
        assert [(r.algo, r.capacity, r.loc_seed, r.init_seed, r.cost, r.spread) for r in serial.rows] == [
            (r.algo, r.capacity, r.loc_seed, r.init_seed, r.cost, r.spread) for r in parallel.rows
        ]
        # summary files are fully byte-identical (no timing inside)
        assert (tmp_path / "serial" / "summary.csv").read_bytes() == (
            tmp_path / "parallel" / "summary.csv"
        ).read_bytes()

    def test_deterministic_outputs_modulo_timing(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, out_dir=tmp_path / "a")
        run_sweep(spec, out_dir=tmp_path / "b")

        def strip_wall(path):
            lines = path.read_text().splitlines()
            return [",".join(l.split(",")[:-1]) for l in lines]

        assert strip_wall(tmp_path / "a" / "runs.csv") == strip_wall(tmp_path / "b" / "runs.csv")
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    def test_report_round_trips(self, tmp_path):
        spec = small_spec()
        report = run_sweep(spec, out_dir=tmp_path)
        back = read_report(tmp_path / "runs.csv")
        assert [(r.algo, r.cost, r.spread) for r in back] == [
            (r.algo, r.cost, r.spread) for r in report.rows
        ]

    def test_instance_file_source(self, tmp_path):
        from edgeplace.fileio import write_instance
        from edgeplace.generate import generate

        path = tmp_path / "inst.txt"
        write_instance(generate(SMALL_GEN), path)
        report = run_sweep(small_spec(source=str(path)))
        assert len(report.rows) == 16


class TestCandidateVariant:
    def test_deterministic_and_seed_dependent(self):
        inst = base_instance(small_spec())
        a = candidate_variant(inst, 7, 0)
        b = candidate_variant(inst, 7, 0)
        c = candidate_variant(inst, 7, 1)
        assert a == b
        assert a != c

    def test_preserves_geometry_and_workload(self):
        inst = base_instance(small_spec())
        v = candidate_variant(inst, 7, 0)
        assert np.array_equal(v.cell_coords, inst.cell_coords)
        assert np.array_equal(v.workload, inst.workload)
        assert v.candidate_coords.shape == inst.candidate_coords.shape


class TestRenderMap:
    def test_svg_well_formed_and_color_count(self, tmp_path):
        rng = np.random.default_rng(13)
        inst = random_instance(rng, 12, 6, 3)
        a = Assignment((0, 2, 4), rng.choice([0, 2, 4], size=12))
        path = tmp_path / "map.svg"
        render_map(inst, a, path)
        root = ET.parse(path).getroot()  # raises on malformed XML
        cells = [e for e in root.iter() if e.get("class") == "cell"]
        servers = [e for e in root.iter() if e.get("class") == "server"]
        assert len(cells) == 12
        assert len(servers) == 3
        nonempty = {l for l in a.server_locations if a.cells_of(l).size}
        assert len({e.get("fill") for e in cells}) == len(nonempty)

    def test_single_server_single_color(self, tmp_path):
        rng = np.random.default_rng(14)
        inst = random_instance(rng, 6, 3, 1)
        a = Assignment((1,), np.full(6, 1))
        path = tmp_path / "map.svg"
        render_map(inst, a, path)
        root = ET.parse(path).getroot()
        cells = [e for e in root.iter() if e.get("class") == "cell"]
        assert len({e.get("fill") for e in cells}) == 1

    def test_grid_instances_draw_squares(self, tmp_path):
        from edgeplace.generate import gen_gravity
        from edgeplace.model import GridSpec

        spec = GenSpec(
            n_cells=9,
            n_candidates=4,
            n_servers=2,
            capacity=0.3,
            seed=5,
            layout="grid",
            grid=GridSpec(3, 3, 1.0),
            workload_model="gravity",
            corr_length=1.0,
        )
        inst = gen_gravity(spec)
        a = Assignment((0, 1), np.array([0, 0, 0, 1, 1, 1, 0, 1, 0]))
        path = tmp_path / "map.svg"
        render_map(inst, a, path)
        root = ET.parse(path).getroot()
        rects = [e for e in root.iter() if e.tag.endswith("rect") and e.get("class") == "cell"]
        assert len(rects) == 9

    def test_palette_stable_and_distinct(self):
        assert server_palette(10) == server_palette(10)
        assert len(set(server_palette(10))) == 10


class TestPlotCurves:
    def test_emits_csv_and_svg(self, tmp_path):
        report = run_sweep(small_spec())
        written = plot_curves(report.aggregates, tmp_path)
        names = {p.name for p in written}
        assert names == {
            "cost_vs_capacity.csv",
            "cost_vs_capacity.svg",
            "spread_vs_capacity.csv",
            "spread_vs_capacity.svg",
        }
        for p in written:
            if p.suffix == ".svg":
                ET.parse(p)  # well-formed
            else:
                lines = p.read_text().splitlines()
                assert len(lines) == 1 + 4  # header + 2 algos x 2 capacities

    def test_single_capacity_centres_every_point(self, tmp_path):
        report = run_sweep(small_spec(capacities=(0.1,)))
        written = plot_curves(report.aggregates, tmp_path)
        for p in written:
            if p.suffix == ".svg":
                root = ET.parse(p).getroot()
                shapes = [e for e in root.iter() if e.tag.endswith(("polyline", "polygon"))]
                assert len(shapes) == 4  # a band and a line per algorithm
                xs = {pt.split(",")[0] for e in shapes for pt in e.get("points").split()}
                assert xs == {"320.0"}  # the middle of the 640-wide chart
            else:
                lines = p.read_text().splitlines()
                assert [line.split(",")[:2] for line in lines[1:]] == [["KMED", "0.1"], ["RAND", "0.1"]]
