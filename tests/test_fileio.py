import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from edgeplace.fileio import (
    EventRecord,
    ParseError,
    RunRow,
    SchemaError,
    aggregate_events,
    instance_from_events,
    read_assignment,
    read_events,
    read_instance,
    read_report,
    write_assignment,
    write_events,
    write_instance,
    write_report,
)
from edgeplace.generate import GenSpec, gen_gravity, gen_uniform
from edgeplace.model import Assignment, GridSpec, Instance

from helpers import random_assignment, random_instance, reference_write_instance


class TestInstanceRoundTrip:
    def test_generated_instance_round_trips_exactly(self, tmp_path):
        inst = gen_uniform(GenSpec(n_cells=12, n_candidates=5, n_servers=2, capacity=0.3, seed=1))
        p = tmp_path / "inst.txt"
        write_instance(inst, p)
        assert read_instance(p) == inst

    def test_grid_and_explicit_fronthaul_round_trip(self, tmp_path):
        spec = GenSpec(
            n_cells=9,
            n_candidates=4,
            n_servers=2,
            capacity=0.4,
            seed=2,
            layout="grid",
            grid=GridSpec(3, 3, 0.5, origin=(1.0, 2.0)),
            workload_model="gravity",
            corr_length=0.7,
        )
        inst = gen_gravity(spec)
        rng = np.random.default_rng(3)
        custom = Instance(
            inst.cell_coords,
            inst.candidate_coords,
            inst.workload,
            2,
            0.4,
            fronthaul=rng.random((9, 4)),
            grid=inst.grid,
        )
        p = tmp_path / "inst.txt"
        write_instance(custom, p)
        back = read_instance(p)
        assert back == custom
        assert back.grid == custom.grid

    def test_hand_written_fixture(self, tmp_path):
        text = (
            "edgeplace-instance 1\n"
            "cells 3\n"
            "candidates 2\n"
            "servers 1\n"
            "capacity 0.5\n"
            "cell_coords\n"
            "0.0 0.0\n"
            "1.0 0.0\n"
            "0.0 1.0\n"
            "candidate_coords\n"
            "0.0 0.0\n"
            "1.0 1.0\n"
            "workload\n"
            "0 0 0.25\n"
            "0 2 0.5\n"
            "1 1 0.25\n"
            "end\n"
        )
        p = tmp_path / "hand.txt"
        p.write_text(text)
        inst = read_instance(p)
        assert inst.n_cells == 3
        assert inst.workload[0, 2] == 0.5
        assert inst.workload[2, 0] == 0.5
        assert inst.workload[1, 1] == 0.25
        assert inst.capacity == 0.5
        # default fronthaul is the Euclidean distance
        assert inst.fronthaul[1, 0] == pytest.approx(1.0)

    def test_truncated_file_names_line(self, tmp_path):
        p = tmp_path / "trunc.txt"
        p.write_text("edgeplace-instance 1\ncells 3\ncandidates 2\n")
        with pytest.raises(ParseError, match="line 4"):
            read_instance(p)

    def test_bad_triple_names_line(self, tmp_path):
        text = (
            "edgeplace-instance 1\ncells 2\ncandidates 1\nservers 1\ncapacity 0.5\n"
            "cell_coords\n0.0 0.0\n1.0 1.0\ncandidate_coords\n0.5 0.5\n"
            "workload\n0 zero 1.0\nend\n"
        )
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match="line 12"):
            read_instance(p)

    @pytest.mark.parametrize(
        "section_line, expected_line",
        [
            ("cell_coords\n0.0 0.0\nnan 1.0\ncandidate_coords\n0.5 0.5\n", 8),
            ("cell_coords\n0.0 0.0\n1.0 1.0\ncandidate_coords\n0.5 inf\n", 10),
        ],
    )
    def test_non_finite_coordinate_names_line(self, tmp_path, section_line, expected_line):
        text = (
            "edgeplace-instance 1\ncells 2\ncandidates 1\nservers 1\ncapacity 0.5\n"
            + section_line
            + "workload\n0 0 0.5\n0 1 0.5\nend\n"
        )
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"line {expected_line}: non-finite"):
            read_instance(p)

    def test_non_finite_workload_names_line(self, tmp_path):
        text = (
            "edgeplace-instance 1\ncells 2\ncandidates 1\nservers 1\ncapacity 0.5\n"
            "cell_coords\n0.0 0.0\n1.0 1.0\ncandidate_coords\n0.5 0.5\n"
            "workload\n0 0 0.5\n0 1 nan\n1 1 0.5\nend\n"
        )
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match="line 13: non-finite"):
            read_instance(p)

    def test_non_finite_fronthaul_names_line(self, tmp_path):
        text = (
            "edgeplace-instance 1\ncells 2\ncandidates 2\nservers 1\ncapacity 0.5\n"
            "cell_coords\n0.0 0.0\n1.0 1.0\ncandidate_coords\n0.5 0.5\n0.0 0.0\n"
            "workload\n0 0 0.5\n0 1 0.5\nfronthaul\n0.1 0.2\n0.3 -inf\nend\n"
        )
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match="line 17: non-finite"):
            read_instance(p)

    HEADER = "edgeplace-instance 1\ncells 2\ncandidates 1\nservers 1\n"
    BODY = "cell_coords\n0.0 0.0\n1.0 1.0\ncandidate_coords\n0.5 0.5\nworkload\n0 0 0.5\n1 1 0.5\nend\n"

    def test_bad_capacity_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(self.HEADER + "capacity abc\n" + self.BODY)
        with pytest.raises(ParseError, match="line 5: bad capacity"):
            read_instance(p)

    def test_non_integer_grid_field_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(self.HEADER + "capacity 0.5\ngrid a 2 0.5 0 0\n" + self.BODY)
        with pytest.raises(ParseError, match="line 6: grid line"):
            read_instance(p)

    @pytest.mark.parametrize("grid", ["grid 0 2 0.5 0 0", "grid 1 2 0.5 nan 0", "grid 1 2 inf 0 0"])
    def test_rejected_grid_is_schema_error(self, tmp_path, grid):
        p = tmp_path / "bad.txt"
        p.write_text(self.HEADER + "capacity 0.5\n" + grid + "\n" + self.BODY)
        with pytest.raises(SchemaError, match="line 6"):
            read_instance(p)

    def test_inconsistent_dimensions_is_schema_error(self, tmp_path):
        text = (
            "edgeplace-instance 1\ncells 2\ncandidates 1\nservers 1\ncapacity 0.5\n"
            "cell_coords\n0.0 0.0\n1.0 1.0\ncandidate_coords\n0.5 0.5\n"
            "workload\n0 5 1.0\nend\n"
        )
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(SchemaError, match="out of range"):
            read_instance(p)


class TestAssignmentRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 7, 4, 2)
        a = random_assignment(rng, inst)
        p = tmp_path / "a.csv"
        write_assignment(a, p)
        assert read_assignment(p) == a

    def test_bad_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("who,what\n")
        with pytest.raises(ParseError, match="header"):
            read_assignment(p)

    def test_missing_cell_is_schema_error(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("kind,index,location\nserver,0,1\ncell,0,1\ncell,2,1\n")
        with pytest.raises(SchemaError):
            read_assignment(p)


class TestReport:
    def make_rows(self):
        return [
            RunRow("RAND", 0.05, 0, 0, 0.9, 1.2, 0.1, 0.05, 3.25),
            RunRow("RAND", 0.06, 0, 0, 0.89, 1.21, 0.1, 0.05, 3.5),
            RunRow("KMED", 0.05, 0, 0, 0.8, 0.7, 0.2, 0.01, 11.0),
            RunRow("KMED", 0.06, 0, 0, 0.79, 0.71, 0.2, 0.01, 12.0),
        ]

    def test_round_trip_and_row_count(self, tmp_path):
        p = tmp_path / "report.csv"
        rows = self.make_rows()
        write_report(rows, p)
        back = read_report(p)
        assert len(back) == 4  # 2 algorithms x 2 capacities x 1 seed pair
        for a, b in zip(rows, back):
            assert a.algo == b.algo
            assert a.cost == b.cost
            assert a.spread == b.spread
            assert a.capacity == b.capacity

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "report.csv"
        p.write_text("a,b\n")
        with pytest.raises(ParseError):
            read_report(p)


class TestEvents:
    def test_single_record_single_cell(self):
        grid = GridSpec(2, 2, 1.0)
        w, dropped = aggregate_events(
            [EventRecord(0.5, 0.5, 0.2, 0.3, weight=7.0)], grid
        )
        assert dropped == 0
        assert w[0, 0] == pytest.approx(1.0)
        assert np.triu(w).sum() == pytest.approx(1.0)

    def test_symmetric_accumulation(self):
        grid = GridSpec(1, 2, 1.0)
        records = [
            EventRecord(0.5, 0.5, 1.5, 0.5, weight=1.0),
            EventRecord(1.5, 0.5, 0.5, 0.5, weight=1.0),
        ]
        w, _ = aggregate_events(records, grid)
        assert w[0, 1] == pytest.approx(1.0)
        assert w[1, 0] == pytest.approx(1.0)
        assert w[0, 0] == 0.0

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(7)
        grid = GridSpec(4, 5, 0.25, origin=(-0.5, 0.25))
        x0, y0, x1, y1 = grid.bounds()
        records = [
            EventRecord(
                float(rng.uniform(x0, x1)),
                float(rng.uniform(y0, y1)),
                float(rng.uniform(x0, x1)),
                float(rng.uniform(y0, y1)),
                weight=float(rng.uniform(0.1, 5.0)),
            )
            for _ in range(10_000)
        ]
        w, dropped = aggregate_events(records, grid)
        assert dropped == 0

        # independent reference: bin with plain arithmetic into a dict
        def ref_bin(x, y):
            col = int((x - grid.origin[0]) // grid.cell_size)
            row = int((y - grid.origin[1]) // grid.cell_size)
            col = min(col, grid.cols - 1)
            row = min(row, grid.rows - 1)
            return row * grid.cols + col

        acc = {}
        for rec in records:
            a, b = ref_bin(rec.ax, rec.ay), ref_bin(rec.bx, rec.by)
            key = (min(a, b), max(a, b))
            acc[key] = acc.get(key, 0.0) + rec.weight
        total = sum(acc.values())
        ref = np.zeros((grid.n_cells, grid.n_cells))
        for (i, j), v in acc.items():
            ref[i, j] = v / total
            ref[j, i] = v / total
        assert np.allclose(w, ref, atol=1e-15)

    def test_out_of_grid_strict_vs_lenient(self):
        grid = GridSpec(1, 1, 1.0)
        bad = [EventRecord(0.5, 0.5, 3.0, 0.5, weight=1.0, line=42),
               EventRecord(0.5, 0.5, 0.5, 0.5, weight=2.0)]
        with pytest.raises(ValueError, match="line 42"):
            aggregate_events(bad, grid, strict=True)
        w, dropped = aggregate_events(bad, grid, strict=False)
        assert dropped == 1
        assert w[0, 0] == pytest.approx(1.0)

    def test_top_right_boundary_clamps_inward(self):
        grid = GridSpec(2, 2, 1.0)
        w, _ = aggregate_events([EventRecord(2.0, 2.0, 2.0, 2.0, weight=1.0)], grid)
        assert w[3, 3] == pytest.approx(1.0)

    def test_translation_consistency(self):
        rng = np.random.default_rng(9)
        grid = GridSpec(3, 3, 1.0)
        records = [
            EventRecord(*(float(v) for v in rng.uniform(0.0, 3.0, size=4)), weight=1.0)
            for _ in range(500)
        ]
        shifted_grid = GridSpec(3, 3, 1.0, origin=(10.0, 20.0))
        shifted = [
            EventRecord(r.ax + 10.0, r.ay + 20.0, r.bx + 10.0, r.by + 20.0, weight=r.weight)
            for r in records
        ]
        w0, _ = aggregate_events(records, grid)
        w1, _ = aggregate_events(shifted, shifted_grid)
        assert np.array_equal(w0, w1)

    def test_events_csv_round_trip(self, tmp_path):
        records = [
            EventRecord(0.1, 0.2, 0.3, 0.4, weight=1.5),
            EventRecord(0.5, 0.6, 0.7, 0.8, weight=2.0),
        ]
        p = tmp_path / "events.csv"
        write_events(records, p)
        back = read_events(p)
        assert [(r.ax, r.ay, r.bx, r.by, r.weight) for r in back] == [
            (r.ax, r.ay, r.bx, r.by, r.weight) for r in records
        ]
        assert back[0].line == 2

    @pytest.mark.parametrize(
        "fields",
        [(math.inf, 0.5, 0.5, 0.5, 1.0), (0.5, math.nan, 0.5, 0.5, 1.0), (0.5, 0.5, 0.5, 0.5, math.inf)],
        ids=["inf-coordinate", "nan-coordinate", "inf-weight"],
    )
    def test_record_rejects_non_finite_field(self, fields):
        # an inf coordinate used to overflow in aggregate_events, a NaN one
        # to fail float->int conversion there, an inf weight to give NaN workload
        with pytest.raises(ValueError, match="non-finite"):
            EventRecord(*fields)

    def test_instance_from_events_passes_validation(self):
        rng = np.random.default_rng(11)
        grid = GridSpec(3, 3, 1.0)
        records = [
            EventRecord(*(float(v) for v in rng.uniform(0.0, 3.0, size=4)), weight=1.0)
            for _ in range(200)
        ]
        cands = rng.uniform(0.0, 3.0, size=(5, 2))
        inst = instance_from_events(records, grid, 2, 0.3, cands)
        assert inst.n_cells == 9
        assert inst.grid == grid


# ---------------------------------------------------------------------------
# fuzzing: malformed text may only raise the readers' named errors

VALID_INSTANCE = (
    "edgeplace-instance 1\ncells 2\ncandidates 2\nservers 1\ncapacity 0.5\n"
    "grid 1 2 0.5 0.0 0.0\ncell_coords\n0.25 0.25\n0.75 0.25\n"
    "candidate_coords\n0.0 0.0\n1.0 0.0\nworkload\n0 0 0.25\n0 1 0.5\n1 1 0.25\n"
    "fronthaul\n0.1 0.2\n0.3 0.4\nend\n"
)
VALID_ASSIGNMENT = "kind,index,location\nserver,0,1\ncell,0,1\ncell,1,1\n"
VALID_EVENTS = "ax,ay,bx,by,weight\n0.1,0.2,0.3,0.4,1.5\n0.5,0.6,0.7,0.8,2.0\n"
VALID_REPORT = (
    "algo,capacity,loc_seed,init_seed,cost,spread,max_load,min_load,wall_ms\n"
    "RAND,0.05,0,0,0.9,1.2,0.1,0.05,3.250\nKMED,0.05,0,0,0.8,0.7,0.2,0.01,11.000\n"
)

TOKENS = st.sampled_from(
    ["", " ", "0", "1", "-1", "2", "0.5", "1e999", "-1e999", "nan", "inf", "-inf", "abc",
     "9" * 30, ",", "\"", "end", "workload", "fronthaul", "grid", "cells", "server", "cell"]
)
LINES = st.one_of(
    st.lists(TOKENS, max_size=6).map(" ".join),
    st.lists(TOKENS, max_size=6).map(",".join),
    st.text(max_size=20),
)


@st.composite
def mutated(draw, valid: str) -> str:
    """``valid`` with a few lines replaced, inserted, deleted or token-edited."""
    lines = valid.split("\n")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["replace", "insert", "delete", "token", "token", "token"]))
        if op == "replace":
            lines[i] = draw(LINES)
        elif op == "insert":
            lines.insert(i, draw(LINES))
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "token":
            sep = "," if "," in lines[i] else " "
            parts = lines[i].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[i] = sep.join(parts)
    return "\n".join(lines)


def fuzz_text(valid: str):
    return st.one_of(mutated(valid), st.text(max_size=200))


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzFindings:
    """Inputs that once escaped as bare ``ValueError``/``OverflowError``."""

    def test_negative_count_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(VALID_INSTANCE.replace("cells 2", "cells -1"))
        with pytest.raises(ParseError, match="line 2: bad cells"):
            read_instance(p)

    def test_huge_location_names_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text(VALID_ASSIGNMENT.replace("cell,0,1", "cell,0," + "9" * 30))
        with pytest.raises(ParseError, match="line 3"):
            read_assignment(p)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_event_names_line(self, tmp_path, value):
        p = tmp_path / "events.csv"
        p.write_text(VALID_EVENTS.replace("1.5", value).replace("0.7", value))
        with pytest.raises(ParseError, match="line 2: non-finite"):
            read_events(p)

    CSV_READERS = [(read_assignment, VALID_ASSIGNMENT), (read_events, VALID_EVENTS), (read_report, VALID_REPORT)]
    CSV_IDS = ["assignment", "events", "report"]

    @pytest.mark.parametrize("reader, valid", CSV_READERS, ids=CSV_IDS)
    def test_field_over_csv_limit_names_line(self, tmp_path, reader, valid):
        lines = valid.split("\n")
        lines[2] = "x" * (1 << 17) + lines[2]  # over the csv module's 128 KiB field limit
        p = tmp_path / "big.csv"
        p.write_text("\n".join(lines))
        with pytest.raises(ParseError, match="line 3: field larger"):
            reader(p)

    @pytest.mark.parametrize(
        "reader, valid", CSV_READERS + [(read_instance, VALID_INSTANCE)], ids=CSV_IDS + ["instance"]
    )
    def test_non_utf8_bytes_name_line(self, tmp_path, reader, valid):
        lines = valid.encode("utf-8").split(b"\n")
        lines[2] += b"\xff"
        p = tmp_path / "latin.txt"
        p.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match="line 3: not UTF-8"):
            reader(p)


class TestReaderFuzz:
    """On short malformed texts a reader raises only ``ParseError`` or ``SchemaError``."""

    @staticmethod
    def read(reader, text, tmp_path):
        p = tmp_path / "fuzz.txt"
        p.write_text(text, encoding="utf-8")
        try:
            reader(p)
        except (ParseError, SchemaError):
            pass

    @FUZZ
    @given(text=fuzz_text(VALID_INSTANCE))
    def test_read_instance(self, tmp_path, text):
        self.read(read_instance, text, tmp_path)

    @FUZZ
    @given(text=fuzz_text(VALID_ASSIGNMENT))
    def test_read_assignment(self, tmp_path, text):
        self.read(read_assignment, text, tmp_path)

    @FUZZ
    @given(text=fuzz_text(VALID_EVENTS))
    def test_read_events(self, tmp_path, text):
        self.read(read_events, text, tmp_path)

    @FUZZ
    @given(text=fuzz_text(VALID_INSTANCE))
    @example(text=VALID_INSTANCE.replace("0 0 0.25\n0 1 0.5\n1 1 0.25\n", ""))  # a section of no rows
    @example(text=VALID_INSTANCE.replace("0 0 0.25\n0 1 0.5\n1 1 0.25\n", "\n\n"))  # of blank lines only
    @pytest.mark.filterwarnings("error")
    def test_read_instance_warns_nothing(self, tmp_path, text):
        self.read(read_instance, text, tmp_path)


# Line numbers in VALID_INSTANCE of the second row of each numeric section.
SECOND_ROW = {"cell_coords": 9, "candidate_coords": 12, "workload": 15, "fronthaul": 19}


class TestSectionErrors:
    """Every numeric section names the line of its first fault."""

    @staticmethod
    def read_edited(tmp_path, edit):
        lines = VALID_INSTANCE.split("\n")
        p = tmp_path / "bad.txt"
        p.write_text("\n".join(edit(lines)))
        return read_instance(p)

    @pytest.mark.parametrize("section", SECOND_ROW)
    @pytest.mark.parametrize("case", ["field-count", "bad-number", "nan", "inf", "blank-line", "cut-short"])
    def test_fault_names_line(self, tmp_path, section, case):
        n = SECOND_ROW[section]
        row = VALID_INSTANCE.split("\n")[n - 1]
        width = len(row.split())
        last = lambda token: lambda lines: lines[: n - 1] + [row.rsplit(" ", 1)[0] + " " + token] + lines[n:]
        edit, message = {
            "field-count": (lambda lines: lines[: n - 1] + [row + " 1"] + lines[n:], f"expected {width} values, got {width + 1}"),
            "bad-number": (last("abc"), "bad number in"),
            "nan": (last("nan"), f"non-finite value in {section}"),
            "inf": (last("inf"), f"non-finite value in {section}"),
            "blank-line": (lambda lines: lines[: n - 1] + [""] + lines[n - 1 :], f"expected {width} values, got 0"),
            "cut-short": (lambda lines: lines[: n - 1] + [""], "unexpected end of file"),
        }[case]
        with pytest.raises(ParseError, match=f"^line {n}: {message}"):
            self.read_edited(tmp_path, edit)

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("0 1 0.5", "1.0 1 0.5", 15),
            ("0 1 0.5", "0 1e0 0.5", 15),
            ("0 1 0.5", "zero 1 0.5", 15),
            ("0 1 0.5", "0 1_0 0.5", 15),
            ("0 1 0.5", "0 " + "9" * 30 + " 0.5", 15),
            ("0.75 0.25", "0.7_5 0.25", 9),
            ("0.1 0.2", "0.1 0.2 # note", 18),
        ],
    )
    def test_spellings_outside_the_format_name_line(self, tmp_path, old, new, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            self.read_edited(tmp_path, lambda lines: [new if l == old else l for l in lines])

    def test_repeated_triple_names_both_lines(self, tmp_path):
        edit = lambda lines: lines[:13] + ["0 0 0.9"] + lines[13:]  # before "0 0 0.25"
        with pytest.raises(SchemaError, match=r"^line 15: workload triple \(0, 0\) repeats line 14$"):
            self.read_edited(tmp_path, edit)

    def test_out_of_range_triple_names_line(self, tmp_path):
        edit = lambda lines: [("1 0 0.5" if l == "0 1 0.5" else l) for l in lines]
        with pytest.raises(SchemaError, match=r"^line 15: workload triple \(1, 0\) out of range for 2 cells$"):
            self.read_edited(tmp_path, edit)

    @pytest.mark.parametrize("tail, line", [(["trailing garbage", ""], 21), (["", "  ", "0 0 0.5", ""], 23)])
    def test_content_after_end_names_line(self, tmp_path, tail, line):
        with pytest.raises(ParseError, match=f"^line {line}: content after 'end'"):
            self.read_edited(tmp_path, lambda lines: lines[:-1] + tail)

    def test_blank_lines_after_end_are_fine(self, tmp_path):
        inst = self.read_edited(tmp_path, lambda lines: lines + ["", "   ", ""])
        assert inst.workload[0, 1] == 0.5


def _explicit_fronthaul_instance() -> Instance:
    rng = np.random.default_rng(21)
    inst = random_instance(rng, 30, 7, 3)
    return Instance(inst.cell_coords, inst.candidate_coords, inst.workload, 3, 0.4, fronthaul=rng.random((30, 7)) * 2.0)


WRITER_CASES = {
    "uniform-500": lambda: gen_uniform(
        GenSpec(n_cells=500, n_candidates=50, n_servers=10, capacity=0.08, seed=20250808)
    ),
    "gravity-grid": lambda: gen_gravity(
        GenSpec(n_cells=625, n_candidates=50, n_servers=10, capacity=0.05, seed=20250808, layout="grid",
                grid=GridSpec(25, 25, 0.04), workload_model="gravity", corr_length=0.1, activity_sigma=0.5)
    ),
    "explicit-fronthaul": _explicit_fronthaul_instance,
}


@pytest.mark.parametrize("make", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_writer_matches_reference_and_round_trips_bit_for_bit(tmp_path, make):
    inst = make()
    write_instance(inst, tmp_path / "new.txt")
    reference_write_instance(inst, tmp_path / "reference.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
    back = read_instance(tmp_path / "new.txt")
    assert back == inst
    for name in ("cell_coords", "candidate_coords", "workload", "fronthaul"):
        assert getattr(back, name).tobytes() == getattr(inst, name).tobytes()
