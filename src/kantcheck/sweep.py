"""Constant sweeps: closed forms against the maximization oracle.

Emits one CSV row per (window, p, q) cell and constant, plus hand-rolled
SVG line charts of the two-exponent ratio constant against q for each
fixed p (no plotting dependency).  The oracle values of a window come
from ``_chord_power_maxima``, given the two exponent grids: it evaluates
each power on the window's oracle grid once and refines all of the
window's scans in one lockstep golden-section pass; each value is bit
for bit what the public ``alpha_ratio`` or ``beta_generic`` returns
called alone.  An empty grid or window list, or an output file path
taken by a directory, raises before any file is written, and every
window is scanned before the CSV is opened, so a failing window writes
no file; a closed form that raises while the file is written removes it.  Then one loop over window, p and q makes each
row and its CSV record together as the file is written: every float is
its ``repr``, and each repeated field is formatted once, at the level
that makes it (m and M per window, p per p, each q once, and K and C,
which depend on (window, p) only, per (window, p)).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .campaign import make_output_dir
from .constants import (
    _chord_power_maxima,
    kantorovich_C,
    kantorovich_C2,
    kantorovich_K,
    kantorovich_K2,
)
from .errors import KantCheckError, ParameterError
from .hermitian import SpectralWindow

CSV_COLUMNS = ["m", "M", "p", "q", "constant_name", "closed_form", "oracle", "abs_diff"]

_PALETTE = ["#1f6fb2", "#c44e52", "#55a868", "#8172b2", "#ccb974", "#64b5cd"]
CHART_POINTS = 40
CHART_WIDTH, CHART_HEIGHT = 640, 420


@dataclass
class SweepResult:
    rows: list
    max_abs_diff: float
    csv_path: str
    svg_paths: list


def _chart_series(window: SpectralWindow, p_grid):
    qs = np.linspace(-1.0, -0.05, CHART_POINTS)
    series = []
    for p in p_grid:
        ys = [kantorovich_K2(window, p, float(q)) for q in qs]
        series.append((f"p={p:g}", list(map(float, qs)), ys))
    return series


def svg_line_chart(path, title: str, x_label: str, y_label: str, series) -> None:
    """Minimal SVG line chart: axes, ticks, one polyline per series."""
    width, height = CHART_WIDTH, CHART_HEIGHT
    left, right, top, bottom = 64, 150, 40, 48
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        f'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {top + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for i in range(5):
        frac = i / 4.0
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        x_pix = px(x_val)
        y_pix = py(y_val)
        parts.append(f'<line x1="{x_pix:.1f}" y1="{top + plot_h}" x2="{x_pix:.1f}" '
                     f'y2="{top + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{x_pix:.1f}" y="{top + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{x_val:.3g}</text>')
        parts.append(f'<line x1="{left - 4}" y1="{y_pix:.1f}" x2="{left}" y2="{y_pix:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y_pix + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{y_val:.4g}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        y_leg = top + 14 + 16 * idx
        x_leg = left + plot_w + 12
        parts.append(f'<line x1="{x_leg}" y1="{y_leg - 4}" x2="{x_leg + 18}" y2="{y_leg - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{x_leg + 24}" y="{y_leg}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


def _constant(name: str, closed: float, oracle: float) -> tuple:
    """A constant's row fields, then their CSV fields, each float its ``repr``."""
    diff = abs(closed - oracle)
    return name, closed, oracle, diff, [name, repr(closed), repr(oracle), repr(diff)]


def sweep_constants(windows, p_grid, q_grid, out_dir) -> SweepResult:
    """Evaluate K, K2, C2, C per cell against their oracles; write CSV + SVGs."""
    ws = [SpectralWindow(*window) for window in windows]
    ps, qs = [float(p) for p in p_grid], [float(q) for q in q_grid]
    if not ws:
        raise ParameterError("windows must be nonempty")
    if not (ps and qs):
        raise ParameterError(f"{'q_grid' if ps else 'p_grid'} must be nonempty")
    svg_names = [f"k2_vs_q_window_{idx}.svg" for idx in range(len(ws))]
    out = make_output_dir(out_dir, ["constants.csv", *svg_names])
    # every window's scans run before the CSV is opened: a failing window
    # leaves no file
    oracles = [_chord_power_maxima(w, ps, qs) for w in ws]
    rows = []

    def records():
        yield CSV_COLUMNS
        q_fields = [repr(q) for q in qs]
        for w, (by_p, by_q) in zip(ws, oracles):
            m, M = w.m, w.M
            m_M = [repr(m), repr(M)]
            for i, p in enumerate(ps):
                p_head = [*m_M, repr(p)]
                k = _constant("K", kantorovich_K(w, p), by_p[i][0])
                c = _constant("C", kantorovich_C(w, p), by_p[i][1])
                for q, q_field, at_q in zip(qs, q_fields, by_q):
                    head = [*p_head, q_field]
                    k2 = _constant("K2", kantorovich_K2(w, p, q), at_q[i][0])
                    c2 = _constant("C2", kantorovich_C2(w, p, q), at_q[i][1])
                    for name, closed, oracle, diff, fields in (k, k2, c2, c):
                        rows.append({"m": m, "M": M, "p": p, "q": q, "constant_name": name,
                                     "closed_form": closed, "oracle": oracle, "abs_diff": diff})
                        yield head + fields

    csv_path = out / "constants.csv"
    try:
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(records())
    except KantCheckError:
        # a closed form outside its regime raises as the file is written
        csv_path.unlink()
        raise
    svg_paths = []
    for name, w in zip(svg_names, ws):
        path = out / name
        svg_line_chart(path, f"K2(m={w.m:g}, M={w.M:g}, p, q) against q",
                       "q", "K2", _chart_series(w, p_grid))
        svg_paths.append(str(path))
    max_diff = functools.reduce(max, (row["abs_diff"] for row in rows), 0.0)
    return SweepResult(rows=rows, max_abs_diff=max_diff, csv_path=str(csv_path),
                       svg_paths=svg_paths)
