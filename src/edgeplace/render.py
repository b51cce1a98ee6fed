"""SVG output: assignment maps and objective-vs-capacity curves.

Maps color every cell by its server (stable palette keyed by the server's
position in the sorted location list) and mark each server location. Grid
instances draw cells as filled squares, other layouts as dots. Curves plot
per-algorithm means with a min-max band against capacity.
"""
from __future__ import annotations

import colorsys
from pathlib import Path

import numpy as np

from .fileio import AggregateRow, write_csv
from .model import Assignment, Instance, check_valid


def server_palette(n: int) -> list[str]:
    """n visually-spread hex colors, stable across calls."""
    colors = []
    for k in range(n):
        h = (k * 0.61803398875) % 1.0  # golden-ratio hue steps
        r, g, b = colorsys.hsv_to_rgb(h, 0.65, 0.88)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return colors


def _viewbox(instance: Instance):
    if instance.grid is not None:
        x0, y0, x1, y1 = instance.grid.bounds()
    else:
        pts = np.vstack([instance.cell_coords, instance.candidate_coords])
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
    span = max(x1 - x0, y1 - y0) or 1.0
    m = span * 0.05  # margin on each side
    return x0 - m, y0 - m, (x1 - x0) + 2 * m, (y1 - y0) + 2 * m, span


def render_map(instance: Instance, assignment: Assignment, path) -> None:
    """Write an SVG of the assignment; cells carry class ``cell``, server
    markers class ``server``. Raises ``ValueError`` for an invalid
    ``assignment``."""
    check_valid(instance, assignment)
    locs = list(assignment.server_locations)
    palette = server_palette(len(locs))
    color_of = {l: palette[i] for i, l in enumerate(locs)}
    x0, y0, w, h, span = _viewbox(instance)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{x0} {y0} {w} {h}">',
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="white"/>',
    ]
    if instance.grid is not None:
        s = instance.grid.cell_size
        for i in range(instance.n_cells):
            cx, cy = instance.cell_coords[i]
            fill = color_of[int(assignment.cell_to_location[i])]
            parts.append(
                f'<rect class="cell" x="{cx - s / 2}" y="{cy - s / 2}" width="{s}" '
                f'height="{s}" fill="{fill}" stroke="white" stroke-width="{s * 0.05}"/>'
            )
    else:
        r = span * 0.008
        for i in range(instance.n_cells):
            cx, cy = instance.cell_coords[i]
            fill = color_of[int(assignment.cell_to_location[i])]
            parts.append(f'<circle class="cell" cx="{cx}" cy="{cy}" r="{r}" fill="{fill}"/>')
    marker_r = span * 0.018
    for l in locs:
        cx, cy = instance.candidate_coords[l]
        parts.append(
            f'<circle class="server" cx="{cx}" cy="{cy}" r="{marker_r}" '
            f'fill="{color_of[l]}" stroke="black" stroke-width="{marker_r * 0.25}"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _curve_svg(series: dict[str, list[tuple[float, float, float, float]]], ylabel: str) -> str:
    """Line chart with min-max bands; series maps algorithm to
    (capacity, mean, lo, hi) tuples sorted by capacity."""
    width, height, pad = 640, 480, 60
    xs = sorted({x for pts in series.values() for x, *_ in pts})
    ymax = max(hi for pts in series.values() for *_, hi in pts) or 1.0

    def sx(x):
        if len(xs) == 1:
            return width / 2
        return pad + (x - xs[0]) / (xs[-1] - xs[0]) * (width - 2 * pad)

    def sy(y):
        return height - pad - y / ymax * (height - 2 * pad)

    palette = server_palette(len(series))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - pad / 3}" text-anchor="middle">capacity</text>',
        f'<text x="{pad / 3}" y="{height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 {pad / 3} {height / 2})">{ylabel}</text>',
    ]
    for x in xs:
        parts.append(
            f'<text x="{sx(x)}" y="{height - pad + 20}" text-anchor="middle" font-size="12">{x:g}</text>'
        )
    for k, (name, pts) in enumerate(sorted(series.items())):
        color = palette[k]
        band = (
            " ".join(f"{sx(x)},{sy(lo)}" for x, _, lo, _ in pts)
            + " "
            + " ".join(f"{sx(x)},{sy(hi)}" for x, _, _, hi in reversed(pts))
        )
        parts.append(f'<polygon points="{band}" fill="{color}" opacity="0.15"/>')
        line = " ".join(f"{sx(x)},{sy(mean)}" for x, mean, _, _ in pts)
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{width - pad + 5}" y="{pad + 16 * k}" font-size="12" fill="{color}" '
            f'text-anchor="start">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_curves(aggregates: list[AggregateRow], out_dir) -> list[Path]:
    """Emit cost-vs-capacity and spread-vs-capacity CSV and SVG files.
    Raises ``ValueError``, and writes nothing, when there is no aggregate."""
    if not aggregates:
        raise ValueError("no runs to plot")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for metric in ("cost", "spread"):
        series: dict[str, list[tuple[float, float, float, float]]] = {}
        for a in sorted(aggregates, key=lambda a: (a.algo, a.capacity)):
            mean = getattr(a, f"{metric}_mean")
            lo = getattr(a, f"{metric}_min")
            hi = getattr(a, f"{metric}_max")
            series.setdefault(a.algo, []).append((a.capacity, mean, lo, hi))
        csv_path = out_dir / f"{metric}_vs_capacity.csv"
        columns = ("algo", "capacity", f"{metric}_mean", f"{metric}_min", f"{metric}_max")
        rows = ([name, *pt] for name, pts in sorted(series.items()) for pt in pts)
        write_csv(csv_path, columns, rows)
        svg_path = out_dir / f"{metric}_vs_capacity.svg"
        svg_path.write_text(_curve_svg(series, metric), encoding="utf-8")
        written += [csv_path, svg_path]
    return written
