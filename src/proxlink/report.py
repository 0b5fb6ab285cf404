"""Static SVG renderers for the beeswarm and elasticity figures.

Pure string construction: identical inputs yield byte-identical files.
"""
from __future__ import annotations

import math
from typing import Sequence

from .explain import BeeswarmExport

_W, _H = 760, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 150, 30, 30, 40


def _f(x: float) -> str:
    return format(x, ".2f")


def _color(norm: float) -> str:
    """Low values blue, high values red."""
    r = int(round(40 + 215 * norm))
    b = int(round(255 - 215 * norm))
    return f"rgb({r},60,{b})"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def render_beeswarm_svg(export: BeeswarmExport, title: str = "Shapley beeswarm") -> str:
    phis = [p["phi"] for p in export.points]
    lo = min(phis + [0.0])
    hi = max(phis + [0.0])
    if hi == lo:
        hi = lo + 1.0
    plot_w = _W - _MARGIN_L - _MARGIN_R
    n_rows = len(export.feature_order)
    row_h = (_H - _MARGIN_T - _MARGIN_B) / max(1, n_rows)

    def sx(phi: float) -> float:
        return _MARGIN_L + (phi - lo) / (hi - lo) * plot_w

    parts = _header(title)
    zero_x = sx(0.0)
    parts.append(f'<line x1="{_f(zero_x)}" y1="{_MARGIN_T}" x2="{_f(zero_x)}" '
                 f'y2="{_H - _MARGIN_B}" stroke="#999" stroke-dasharray="3,3"/>')
    for rank, feature in enumerate(export.feature_order):
        y_mid = _MARGIN_T + (rank + 0.5) * row_h
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{_f(y_mid + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{feature}</text>')
    for idx, p in enumerate(export.points):
        y_mid = _MARGIN_T + (p["rank"] + 0.5) * row_h
        # deterministic vertical spread within the feature band
        jitter = (math.sin(idx * 12.9898) * 0.5) * (row_h * 0.6)
        parts.append(f'<circle cx="{_f(sx(p["phi"]))}" cy="{_f(y_mid + jitter)}" r="2.4" '
                     f'fill="{_color(p["normalized_value"])}" fill-opacity="0.75"/>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_H - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                 f'Shapley value (impact on predicted probability)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_line_svg(points: Sequence[tuple[float, float]]) -> str:
    """The network-proximity elasticity curve as an SVG line chart."""
    if not points:
        raise ValueError("no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _H - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = _header("Network-proximity elasticity vs distance")
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_H - _MARGIN_B}" x2="{_W - _MARGIN_R}" '
                 f'y2="{_H - _MARGIN_B}" stroke="#333"/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                 f'y2="{_H - _MARGIN_B}" stroke="#333"/>')
    path = " ".join(f"{'M' if i == 0 else 'L'}{_f(sx(x))},{_f(sy(y))}"
                    for i, (x, y) in enumerate(points))
    parts.append(f'<path d="{path}" fill="none" stroke="#1f5fbf" stroke-width="2"/>')
    for value, x in ((x_lo, _MARGIN_L), (x_hi, _W - _MARGIN_R)):
        parts.append(f'<text x="{x}" y="{_H - _MARGIN_B + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{_f(value)}</text>')
    for value, y in ((y_lo, _H - _MARGIN_B), (y_hi, _MARGIN_T)):
        parts.append(f'<text x="{_MARGIN_L - 6}" y="{_f(y + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_f(value)}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_H - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11">distance (km)</text>')
    parts.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.0f})">elasticity</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
