"""Minimal self-contained SVG line plots (no plotting dependency)."""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2")


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / count))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.6g}"


def line_plot(series, xlabel: str, ylabel: str, title: str) -> str:
    """Render [(x, y, label), ...] as a 640 x 420 SVG document string."""
    width, height = 640, 420
    ml, mr, mt, mb = 78, 16, 30, 46
    pw, ph = width - ml - mr, height - mt - mb
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" y2="{mt + ph + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 16}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 7}" y="{y + 3.5:.1f}" text-anchor="end">{_fmt(t)}</text>')
    for idx, (sx, sy, label) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(np.asarray(sx), np.asarray(sy)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            ly = mt + 14 + 14 * idx
            parts.append(f'<line x1="{ml + pw - 120}" y1="{ly - 4}" x2="{ml + pw - 100}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{ml + pw - 95}" y="{ly}">{label}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{mt - 10}" text-anchor="middle" font-size="13">{title}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 10}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
