"""Minimal self-contained SVG line plots (no plotting library dependency).

Produces deterministic byte-identical files for identical inputs: multi-panel
figures where each panel shows one or more series as polylines with axes,
ticks, and a shared legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

PANEL_W = 240
PANEL_H = 200
MARGIN_L = 52
MARGIN_R = 14
MARGIN_T = 34
MARGIN_B = 44
COLORS = ["#1f4fbf", "#c03428", "#2a8a3c", "#8a5bbf"]
DASHES = ["", "6,4", "2,3", "8,3,2,3"]


@dataclass
class Series:
    label: str
    x: list
    y: list
    style: int = 0


@dataclass
class Panel:
    title: str
    series: list
    x_label: str = ""
    y_label: str = ""


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if span / step <= n:
            break
    first = step * math.ceil(lo / step)
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_figure(panels: list[Panel], title: str = "",
                  comment_lines: list[str] | None = None) -> str:
    """SVG text for a single row of panels with a shared legend."""
    n = len(panels)
    width = n * PANEL_W + 20
    height = PANEL_H + 60
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">']
    for line in comment_lines or []:
        safe = line.replace("--", "- -").replace("<", "(").replace(">", ")")
        parts.append(f"<!-- {safe} -->")
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="16" font-size="13" '
                     f'text-anchor="middle" font-family="sans-serif">{title}</text>')

    labels_seen: dict[str, int] = {}
    for p_index, panel in enumerate(panels):
        x0 = p_index * PANEL_W + MARGIN_L
        y0 = MARGIN_T
        plot_w = PANEL_W - MARGIN_L - MARGIN_R
        plot_h = PANEL_H - MARGIN_T - MARGIN_B

        xs = [x for s in panel.series for x in s.x]
        ys = [y for s in panel.series for y in s.y
              if y == y and abs(y) != float("inf")]
        x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
        y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        pad = 0.06 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def to_px(x, y, x0=x0, y0=y0, plot_w=plot_w, plot_h=plot_h,
                  x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi):
            px = x0 + (x - x_lo) / (x_hi - x_lo) * plot_w
            py = y0 + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h
            return px, py

        parts.append(f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
                     f'fill="none" stroke="#404040" stroke-width="1"/>')
        parts.append(f'<text x="{x0 + plot_w / 2:.1f}" y="{y0 - 8}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{panel.title}</text>')
        for tick in _ticks(x_lo, x_hi):
            px, _ = to_px(tick, y_lo)
            parts.append(f'<line x1="{px:.1f}" y1="{y0 + plot_h}" x2="{px:.1f}" '
                         f'y2="{y0 + plot_h + 4}" stroke="#404040"/>')
            parts.append(f'<text x="{px:.1f}" y="{y0 + plot_h + 16}" font-size="9" '
                         f'text-anchor="middle" font-family="sans-serif">{_fmt(tick)}</text>')
        for tick in _ticks(y_lo, y_hi):
            _, py = to_px(x_lo, tick)
            parts.append(f'<line x1="{x0 - 4}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" '
                         f'stroke="#404040"/>')
            parts.append(f'<text x="{x0 - 6}" y="{py + 3:.1f}" font-size="9" '
                         f'text-anchor="end" font-family="sans-serif">{_fmt(tick)}</text>')
        if panel.x_label:
            parts.append(f'<text x="{x0 + plot_w / 2:.1f}" y="{y0 + plot_h + 32}" '
                         f'font-size="10" text-anchor="middle" '
                         f'font-family="sans-serif">{panel.x_label}</text>')
        if panel.y_label and p_index == 0:
            cx, cy = x0 - 38, y0 + plot_h / 2
            parts.append(f'<text x="{cx}" y="{cy:.1f}" font-size="10" text-anchor="middle" '
                         f'font-family="sans-serif" transform="rotate(-90 {cx} {cy:.1f})">'
                         f'{panel.y_label}</text>')

        for series in panel.series:
            color = COLORS[series.style % len(COLORS)]
            dash = DASHES[series.style % len(DASHES)]
            pts = " ".join(f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}"
                           for x, y in zip(series.x, series.y)
                           if y == y and abs(y) != float("inf"))
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"{dash_attr}/>')
            labels_seen.setdefault(series.label, series.style)

    legend_y = PANEL_H + 44
    legend_x = 24
    for label, style in labels_seen.items():
        color = COLORS[style % len(COLORS)]
        dash = DASHES[style % len(DASHES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 28}" '
                     f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        parts.append(f'<text x="{legend_x + 34}" y="{legend_y + 3}" font-size="10" '
                     f'font-family="sans-serif">{label}</text>')
        legend_x += 44 + 7 * len(label)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_figure(path, panels: list[Panel], title: str = "",
                 comment_lines: list[str] | None = None) -> None:
    Path(path).write_text(render_figure(panels, title, comment_lines))
