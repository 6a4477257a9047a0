"""Constant sweeps: closed forms against the maximization oracle.

Emits one CSV row per (window, p, q) cell and constant, plus hand-rolled
SVG line charts of the two-exponent ratio constant against q for each
fixed p (no plotting dependency).  The oracle values of a window come
from ``_chord_power_maxima``, which evaluates each power on the window's
oracle grid once and refines all of the window's scans in one lockstep
golden-section pass; each value is bit for bit what the public
``alpha_ratio`` or ``beta_generic`` returns called alone.  K and C,
and their oracles, depend on (window, p) only and are computed once per
(window, p).  Every float in the CSV is its ``repr``; the records are
made as the file is written, each repeated value (m and M per window, p,
q, and the K and C fields per p) formatted once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import (
    _chord_power_maxima,
    kantorovich_C,
    kantorovich_C2,
    kantorovich_K,
    kantorovich_K2,
)
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


def _window_oracles(w: SpectralWindow, p_grid, q_grid):
    """Oracle values (ratio, gap) over one window: per p, of chord(t^p)
    against t^p (K and C); per q and then p, against t^q (K2 and C2).

    Each power is evaluated on the window's oracle grid once, and every
    scan of the window is refined in one lockstep pass
    (``_chord_power_maxima``); the q-major order keeps only a few
    grid-sized arrays alive at a time.
    """
    ps = [float(p) for p in p_grid]
    n_p = len(ps)
    scans = [(p, [j]) for j, p in enumerate(ps)]
    scans += [(float(q), range(n_p)) for q in q_grid]
    values = _chord_power_maxima(w, ps, scans)
    return values[:n_p], [values[n_p * i:n_p * (i + 1)] for i in range(1, len(q_grid) + 1)]


def _csv_records(rows, n_p: int, n_q: int):
    """The CSV records of ``rows``, each float field its ``repr``.

    rows run per window, per p, per q, through the constants K, K2, C2
    and C, and K and C depend on (window, p) only.  So m and M are
    formatted once per window, p once per p, q once per q, and the K and
    C fields once per p, from the first q's rows.
    """
    def fields(row):
        return [row["constant_name"], repr(row["closed_form"]), repr(row["oracle"]),
                repr(row["abs_diff"])]

    yield CSV_COLUMNS
    if not rows:
        return
    per_p = 4 * n_q
    q_fields = [repr(row["q"]) for row in rows[:per_p:4]]
    for w_start in range(0, len(rows), n_p * per_p):
        m_M = [repr(rows[w_start]["m"]), repr(rows[w_start]["M"])]
        for start in range(w_start, w_start + n_p * per_p, per_p):
            p_field = repr(rows[start]["p"])
            k_fields, c_fields = fields(rows[start]), fields(rows[start + 3])
            for j, q_field in enumerate(q_fields, start // 4):
                head = [*m_M, p_field, q_field]
                yield head + k_fields
                yield head + fields(rows[4 * j + 1])
                yield head + fields(rows[4 * j + 2])
                yield head + c_fields


def sweep_constants(windows, p_grid, q_grid, out_dir) -> SweepResult:
    """Evaluate K, K2, C2, C per cell against their oracles; write CSV + SVGs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    max_diff = 0.0
    for window in windows:
        w = SpectralWindow(*window)
        by_p, by_q = _window_oracles(w, p_grid, q_grid)
        for i, p in enumerate(p_grid):
            p = float(p)
            oracle_k, oracle_c = by_p[i]
            closed_k, closed_c = kantorovich_K(w, p), kantorovich_C(w, p)
            for j, q in enumerate(q_grid):
                q = float(q)
                oracle_k2, oracle_c2 = by_q[j][i]
                values = [
                    ("K", closed_k, oracle_k),
                    ("K2", kantorovich_K2(w, p, q), oracle_k2),
                    ("C2", kantorovich_C2(w, p, q), oracle_c2),
                    ("C", closed_c, oracle_c),
                ]
                for name, closed, oracle in values:
                    diff = abs(closed - oracle)
                    max_diff = max(max_diff, diff)
                    rows.append({
                        "m": w.m, "M": w.M, "p": p, "q": q,
                        "constant_name": name, "closed_form": closed,
                        "oracle": oracle, "abs_diff": diff,
                    })
    csv_path = out / "constants.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(_csv_records(rows, len(p_grid), len(q_grid)))
    svg_paths = []
    for idx, window in enumerate(windows):
        w = SpectralWindow(*window)
        path = out / f"k2_vs_q_window_{idx}.svg"
        svg_line_chart(path, f"K2(m={w.m:g}, M={w.M:g}, p, q) against q",
                       "q", "K2", _chart_series(w, p_grid))
        svg_paths.append(str(path))
    return SweepResult(rows=rows, max_abs_diff=max_diff, csv_path=str(csv_path),
                       svg_paths=svg_paths)
