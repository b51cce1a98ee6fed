"""File formats and event-record aggregation.

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

Assignment CSV: header ``kind,index,location``; one ``server`` row per slot
(index is the slot position) and one ``cell`` row per cell.

Report CSV: header
``algo,capacity,loc_seed,init_seed,cost,spread,max_load,min_load,wall_ms``;
one row per run.

Event CSV: header ``ax,ay,bx,by,weight``; one undirected record per line.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .model import Assignment, GridSpec, Instance


class ParseError(ValueError):
    """Malformed content; message names the 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.lines):
            raise ParseError(self.pos + 1, "unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1  # now the 1-based number of the line just read
        if expect is not None and not line.startswith(expect):
            raise ParseError(self.pos, f"expected {expect!r}, got {line!r}")
        return line

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
    if r.pos < len(r.lines) and r.lines[r.pos].startswith("grid"):
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
    fronthaul = r.floats("fronthaul", n_cells, n_candidates) if r.lines[r.pos : r.pos + 1] == ["fronthaul"] else None
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

_INT64 = range(-(2**63), 2**63)  # locations are stored as int64


def write_assignment(assignment: Assignment, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["kind", "index", "location"])
        for slot, loc in enumerate(assignment.server_locations):
            writer.writerow(["server", slot, loc])
        for i, loc in enumerate(assignment.cell_to_location):
            writer.writerow(["cell", i, int(loc)])


def read_assignment(path) -> Assignment:
    servers: list[int] = []
    cells: dict[int, int] = {}
    for line_no, row in _csv_rows(path, ("kind", "index", "location"), "assignment"):
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
# report format

REPORT_COLUMNS = (
    "algo",
    "capacity",
    "loc_seed",
    "init_seed",
    "cost",
    "spread",
    "max_load",
    "min_load",
    "wall_ms",
)


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


def write_report(rows: Iterable[RunRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.algo,
                    _fmt(r.capacity),
                    r.loc_seed,
                    r.init_seed,
                    _fmt(r.cost),
                    _fmt(r.spread),
                    _fmt(r.max_load),
                    _fmt(r.min_load),
                    f"{r.wall_ms:.3f}",
                ]
            )


def read_report(path) -> list[RunRow]:
    out = []
    for line_no, row in _csv_rows(path, REPORT_COLUMNS, "report"):
        try:
            out.append(
                RunRow(
                    algo=row[0],
                    capacity=float(row[1]),
                    loc_seed=int(row[2]),
                    init_seed=int(row[3]),
                    cost=float(row[4]),
                    spread=float(row[5]),
                    max_load=float(row[6]),
                    min_load=float(row[7]),
                    wall_ms=float(row[8]),
                )
            )
        except ValueError:
            raise ParseError(line_no, f"bad values in {row!r}") from None
    return out


# ---------------------------------------------------------------------------
# event records and grid aggregation


@dataclass(frozen=True)
class EventRecord:
    """One undirected interaction between two points, e.g. a call record."""

    ax: float
    ay: float
    bx: float
    by: float
    weight: float
    line: int | None = None  # source line when read from a file

    def __post_init__(self):
        if not all(map(math.isfinite, (self.ax, self.ay, self.bx, self.by, self.weight))):
            raise ValueError("non-finite value in event record")
        if not self.weight > 0:
            raise ValueError("weight must be positive")


def write_events(records: Iterable[EventRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["ax", "ay", "bx", "by", "weight"])
        for rec in records:
            writer.writerow([_fmt(rec.ax), _fmt(rec.ay), _fmt(rec.bx), _fmt(rec.by), _fmt(rec.weight)])


def read_events(path) -> list[EventRecord]:
    out = []
    for line_no, row in _csv_rows(path, ("ax", "ay", "bx", "by", "weight"), "events"):
        try:
            values = [float(x) for x in row]
        except ValueError:
            raise ParseError(line_no, f"bad number in {row!r}") from None
        try:
            out.append(EventRecord(*values, line=line_no))
        except ValueError as e:
            raise ParseError(line_no, str(e)) from None
    return out


def _bin_point(grid: GridSpec, x: float, y: float) -> int | None:
    """Row-major cell index with half-open bins; exact top/right edges clamp
    inward; None when outside the grid."""
    ox, oy = grid.origin
    col = math.floor((x - ox) / grid.cell_size)
    row = math.floor((y - oy) / grid.cell_size)
    if col == grid.cols and x == ox + grid.cols * grid.cell_size:
        col -= 1
    if row == grid.rows and y == oy + grid.rows * grid.cell_size:
        row -= 1
    if not (0 <= col < grid.cols and 0 <= row < grid.rows):
        return None
    return row * grid.cols + col


def aggregate_events(
    records: Iterable[EventRecord], grid: GridSpec, strict: bool = True
) -> tuple[np.ndarray, int]:
    """Bin event endpoints onto the grid and accumulate a normalized
    symmetric workload matrix.

    Returns ``(workload, n_dropped)``. In strict mode an out-of-grid record
    raises ``ValueError`` naming the record; in lenient mode it is dropped
    and counted.
    """
    n = grid.n_cells
    w = np.zeros((n, n))
    dropped = 0
    for k, rec in enumerate(records):
        ca = _bin_point(grid, rec.ax, rec.ay)
        cb = _bin_point(grid, rec.bx, rec.by)
        if ca is None or cb is None:
            where = f"line {rec.line}" if rec.line is not None else f"record {k}"
            if strict:
                raise ValueError(f"{where}: endpoint outside the grid")
            dropped += 1
            continue
        i, j = min(ca, cb), max(ca, cb)
        w[i, j] += rec.weight
    total = np.triu(w).sum()
    if total <= 0:
        raise ValueError("no in-grid events to aggregate")
    w /= total
    w = np.triu(w)
    return w + np.triu(w, 1).T, dropped


def instance_from_events(
    records: Iterable[EventRecord],
    grid: GridSpec,
    n_servers: int,
    capacity: float,
    candidate_coords: np.ndarray,
    strict: bool = True,
) -> Instance:
    """Build a full instance from raw events on a grid."""
    workload, _ = aggregate_events(records, grid, strict=strict)
    return Instance(
        grid.cell_centers(), candidate_coords, workload, n_servers, capacity, grid=grid
    )
