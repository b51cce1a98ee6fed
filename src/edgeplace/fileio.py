"""File formats.

All formats are plain text: UTF-8, LF line endings, '.' decimal separator.
Floats are written with Python's shortest round-trip representation, so a
write/read cycle reproduces every value bit for bit.

Instance file (line oriented)::

    edgeplace-instance 1
    cells <n_cells>
    candidates <n_candidates>
    servers <n_servers>
    capacity <W>
    grid <rows> <cols> <cell_size> <origin_x> <origin_y>    # optional
    cell_coords
    <x> <y>                                                 # n_cells lines
    candidate_coords
    <x> <y>                                                 # n_candidates lines
    workload
    <i> <j> <w>                                             # sparse, i <= j
    fronthaul                                               # optional section
    <d_0> ... <d_{n_candidates-1}>                          # n_cells lines
    end

The fronthaul section is omitted when the matrix equals the Euclidean
distances implied by the coordinates (the reader recomputes it). Numbers are
finite ASCII decimals and workload indices integers (one ``np.loadtxt`` call
per section); a triple may appear once, and only blank lines may follow ``end``.
A section or field name is matched as the whole first token of its line.

Assignment CSV: header ``kind,index,location``; one ``server`` row per slot
(index is the slot position) and one ``cell`` row per cell.

Sweep CSVs: each header is its record type's field names, in order. The
report (``runs.csv``) has one ``RunRow`` per run, ``wall_ms`` to three
decimals; the summary (``summary.csv``) one ``AggregateRow`` per (algorithm,
capacity), with the mean, min and max of cost and spread.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, get_type_hints

import numpy as np

from .model import Assignment, GridSpec, Instance


class ParseError(ValueError):
    """Malformed content; message names the 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")


class SchemaError(ValueError):
    """Structurally valid file with inconsistent dimensions or counts."""


def _fmt(x) -> str:
    return repr(float(x))


def _read_text(path) -> str:
    """The file's text; ParseError naming the line of a byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(data.count(b"\n", 0, e.start) + 1, "not UTF-8 text") from None


def _csv_rows(path, columns: tuple[str, ...], name: str):
    """Yield ``(line_no, row)`` for every data row of a CSV file headed by
    ``columns``; ParseError naming the line for a bad header, a wrong field
    count or a field the csv module rejects."""
    rows = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(rows, None)
        if header != list(columns):
            raise ParseError(1, f"bad {name} header {header!r}")
        for line_no, row in enumerate(rows, start=2):
            if len(row) != len(columns):
                raise ParseError(line_no, f"expected {len(columns)} fields, got {len(row)}")
            yield line_no, row
    except csv.Error as e:
        raise ParseError(rows.line_num, str(e)) from None


def write_csv(path, columns: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV file: the ``columns`` header, then one line per row. A
    float field (numpy floats too) is written in shortest round-trip form,
    ``None`` as an empty field, any other field as ``str`` writes it."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(x) if isinstance(x, (float, np.floating)) else x for x in row] for row in rows)


# ---------------------------------------------------------------------------
# instance format


def _section_lines(name: str, *columns: np.ndarray) -> Iterator[str]:
    """The ``name`` line, then one line per row of the ``columns``: ints, and
    floats in shortest round-trip form."""
    yield name + "\n"
    for row in zip(*(c.tolist() for c in columns)):
        yield " ".join(map(repr, row)) + "\n"


def write_instance(instance: Instance, path) -> None:
    header = [
        "edgeplace-instance 1",
        f"cells {instance.n_cells}",
        f"candidates {instance.n_candidates}",
        f"servers {instance.n_servers}",
        f"capacity {_fmt(instance.capacity)}",
    ]
    if instance.grid is not None:
        g = instance.grid
        header.append(
            f"grid {g.rows} {g.cols} {_fmt(g.cell_size)} {_fmt(g.origin[0])} {_fmt(g.origin[1])}"
        )
    w = instance.workload
    i, j = np.nonzero(np.triu(w))  # row-major: the order of the triples
    with open(path, "w", encoding="utf-8", newline="\n") as f:  # streamed, line by line
        f.writelines(line + "\n" for line in header)
        f.writelines(_section_lines("cell_coords", *instance.cell_coords.T))
        f.writelines(_section_lines("candidate_coords", *instance.candidate_coords.T))
        f.writelines(_section_lines("workload", i, j, w[i, j]))
        if not instance.has_euclidean_fronthaul():
            f.writelines(_section_lines("fronthaul", *instance.fronthaul.T))
        f.write("end\n")


# One record per workload line ``i j w``: indices parse as integers only.
_TRIPLE = np.dtype([("i", np.int64), ("j", np.int64), ("w", float)])


class _LineReader:
    def __init__(self, path):
        self.lines = list(map(str.strip, _read_text(path).splitlines()))
        self.pos = 0

    def at(self, name: str) -> bool:
        """Whether the next line's first whitespace token is exactly ``name``."""
        return self.pos < len(self.lines) and self.lines[self.pos].split()[:1] == [name]

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.lines):
            raise ParseError(self.pos + 1, "unexpected end of file")
        if expect is not None and not self.at(expect):
            raise ParseError(self.pos + 1, f"expected {expect!r}, got {self.lines[self.pos]!r}")
        self.pos += 1  # now the 1-based number of the line just read
        return self.lines[self.pos - 1]

    def rows(self, section: str, count: int | None, dtype: np.dtype) -> np.ndarray:
        """The ``section`` line, then the next ``count`` lines (``None``: up to
        a ``fronthaul`` or ``end`` line) as one ``dtype`` record each,
        converted by one ``np.loadtxt`` call. ParseError naming the first line
        with the wrong field count, a bad number or a non-finite value, else
        the end of the file if the section is cut short."""
        self.next(section)
        if count is None:
            rest = self.lines[self.pos :] + ["fronthaul", "end"]
            count = min(rest.index("fronthaul"), rest.index("end"))
        first, block = self.pos + 1, self.lines[self.pos : self.pos + count]
        self.pos += len(block)
        try:  # loadtxt skips blank lines (and warns when all are), hence the row count
            rows = np.loadtxt(block, dtype, comments=None, ndmin=1) if any(block) else np.empty(0, dtype)
            good = len(rows) == len(block) and all(np.isfinite(rows[f]).all() for f in dtype.names)
        except ValueError:
            good = False
        # Each failure above is local to one line, so when not good this loop raises.
        for line_no, line in enumerate([] if good else block, start=first):
            fields = len(line.split())
            if fields != len(dtype):
                raise ParseError(line_no, f"expected {len(dtype)} values, got {fields}")
            try:
                row = np.loadtxt([line], dtype, comments=None)
            except ValueError:
                raise ParseError(line_no, f"bad number in {line!r}") from None
            if not all(np.isfinite(row[f]) for f in dtype.names):
                raise ParseError(line_no, f"non-finite value in {section}")
        if len(block) < count:
            raise ParseError(self.pos + 1, "unexpected end of file")
        return rows

    def floats(self, section: str, count: int, width: int) -> np.ndarray:
        """The ``section`` line, then ``count`` lines as a (count, width) float array."""
        return self.rows(section, count, np.dtype([("", float)] * width)).view(float).reshape(-1, width)


def read_instance(path) -> Instance:
    r = _LineReader(path)
    header = r.next("edgeplace-instance")
    if header.split() != ["edgeplace-instance", "1"]:
        raise ParseError(r.pos, f"unsupported header {header!r}")

    def field(name: str, kind=int):
        """The value on the ``name`` line: a count >= 0, or any ``float``."""
        line = r.next(name)
        try:
            (value,) = map(kind, line.split()[1:])
            if kind is float or value >= 0:
                return value
        except ValueError:
            pass
        raise ParseError(r.pos, f"bad {name} line {line!r}")

    n_cells, n_candidates, n_servers = field("cells"), field("candidates"), field("servers")
    capacity = field("capacity", float)
    grid = None
    if r.at("grid"):
        line = r.next()
        try:
            _, rows, cols, size, ox, oy = line.split()
            rows, cols, size, origin = int(rows), int(cols), float(size), (float(ox), float(oy))
        except ValueError:
            raise ParseError(r.pos, f"grid line needs 'rows cols cell_size ox oy', got {line!r}") from None
        try:
            grid = GridSpec(rows, cols, size, origin)
        except ValueError as e:
            raise SchemaError(f"line {r.pos}: {e}") from None
    cells = r.floats("cell_coords", n_cells, 2)
    cands = r.floats("candidate_coords", n_candidates, 2)
    triples = r.rows("workload", None, _TRIPLE)
    first = r.pos - len(triples) + 1
    fronthaul = r.floats("fronthaul", n_cells, n_candidates) if r.at("fronthaul") else None
    r.next("end")
    extra = next((k for k in range(r.pos, len(r.lines)) if r.lines[k]), None)
    if extra is not None:
        raise ParseError(extra + 1, f"content after 'end': {r.lines[extra]!r}")
    del r  # free the file's lines before the matrix is built: this keeps the peak memory low
    i, j = triples["i"], triples["j"]
    _, first_of, key = np.unique(i * n_cells + j, return_index=True, return_inverse=True)
    in_range = (0 <= i) & (i <= j) & (j < n_cells)
    bad = np.flatnonzero(~in_range | (first_of[key] != np.arange(len(triples))))
    if bad.size:  # the first line out of range or repeating an earlier triple
        k = bad[0]
        problem = f"repeats line {first + first_of[key[k]]}" if in_range[k] else f"out of range for {n_cells} cells"
        raise SchemaError(f"line {first + k}: workload triple ({i[k]}, {j[k]}) {problem}")
    w = np.zeros((n_cells, n_cells))
    w[i, j] = w[j, i] = triples["w"]
    try:
        return Instance(cells, cands, w, n_servers, capacity, fronthaul=fronthaul, grid=grid)
    except ValueError as e:
        raise SchemaError(str(e)) from None


# ---------------------------------------------------------------------------
# assignment format

ASSIGNMENT_COLUMNS = ("kind", "index", "location")
_INT64 = range(-(2**63), 2**63)  # locations are stored as int64


def write_assignment(assignment: Assignment, path) -> None:
    servers = [("server", slot, loc) for slot, loc in enumerate(assignment.server_locations)]
    cells = [("cell", i, loc) for i, loc in enumerate(assignment.cell_to_location.tolist())]
    write_csv(path, ASSIGNMENT_COLUMNS, servers + cells)


def read_assignment(path) -> Assignment:
    servers: list[int] = []
    cells: dict[int, int] = {}
    for line_no, row in _csv_rows(path, ASSIGNMENT_COLUMNS, "assignment"):
        kind, index, location = row
        try:
            index, location = int(index), int(location)
        except ValueError:
            raise ParseError(line_no, f"bad integers in {row!r}") from None
        if location not in _INT64:
            raise ParseError(line_no, f"location out of range in {row!r}")
        if kind == "server":
            servers.append(location)
        elif kind == "cell":
            cells[index] = location
        else:
            raise ParseError(line_no, f"unknown kind {kind!r}")
    if sorted(cells) != list(range(len(cells))):
        raise SchemaError("cell rows must cover 0..n_cells-1 exactly once")
    cmap = np.array([cells[i] for i in range(len(cells))], dtype=np.int64)
    return Assignment(tuple(servers), cmap)


# ---------------------------------------------------------------------------
# sweep formats


@dataclass(frozen=True)
class RunRow:
    """One solver run; ``max_load``/``min_load`` are over non-empty servers."""

    algo: str
    capacity: float
    loc_seed: int
    init_seed: int
    cost: float
    spread: float
    max_load: float
    min_load: float
    wall_ms: float


@dataclass(frozen=True)
class AggregateRow:
    """Mean/min/max of the runs of one (algorithm, capacity). ``load_ratio_mean``
    averages ``max_load / min_load`` over the runs with a positive ``min_load``,
    and is ``None`` (an empty field) when there is none."""

    algo: str
    capacity: float
    cost_mean: float
    cost_min: float
    cost_max: float
    spread_mean: float
    spread_min: float
    spread_max: float
    load_ratio_mean: float | None


REPORT_COLUMNS = tuple(f.name for f in fields(RunRow))
SUMMARY_COLUMNS = tuple(f.name for f in fields(AggregateRow))
_REPORT_TYPES = tuple(get_type_hints(RunRow).values())  # in field order


def write_report(rows: Iterable[RunRow], path) -> None:
    write_csv(path, REPORT_COLUMNS, ((*astuple(r)[:-1], f"{r.wall_ms:.3f}") for r in rows))


def write_summary(aggregates: Iterable[AggregateRow], path) -> None:
    write_csv(path, SUMMARY_COLUMNS, map(astuple, aggregates))


def read_report(path) -> list[RunRow]:
    """The rows of a report CSV, each field parsed by its ``RunRow`` type;
    ParseError naming the line of a malformed or non-finite field."""
    out = []
    for line_no, row in _csv_rows(path, REPORT_COLUMNS, "report"):
        try:
            values = [kind(text) for kind, text in zip(_REPORT_TYPES, row)]
        except ValueError:
            raise ParseError(line_no, f"bad values in {row!r}") from None
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise ParseError(line_no, f"non-finite value in {row!r}")
        out.append(RunRow(*values))
    return out
