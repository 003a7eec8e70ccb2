"""Minimal self-contained SVG line plots (no plotting dependency).

One <polyline> per data series; axes and legend swatches use <line> and
<text> elements so the polyline count equals the series count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from html import escape

from .errors import DomainError

WIDTH, HEIGHT = 720, 480
MARGIN = 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def render_lines(xs: Sequence[float], columns: dict[str, Sequence[float]], title: str) -> str:
    """Build an SVG document; columns maps label -> ys, each over the shared x grid xs.

    No data point, a column whose length is not that of xs, a value that
    is not finite, and data whose padded x or y span is not a positive
    finite float (it cannot be scaled to pixels) raise DomainError.
    """
    import numpy as np
    all_y = [y for ys in columns.values() for y in ys]
    if not xs or not columns or any(len(ys) != len(xs) for ys in columns.values()):
        raise DomainError("need data points, and as many ys as xs in each column")
    if not np.isfinite([*xs, *all_y]).all():  # min and max skip a NaN that is not first
        raise DomainError("cannot plot values that are not finite")

    def span(vals: list[float]) -> tuple[float, float]:
        lo, hi = min(vals), max(vals)
        return (lo - 1.0, hi + 1.0) if hi == lo else (lo, hi)

    (x_lo, x_hi), (y_lo, y_hi) = span(xs), span(all_y)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not all(0.0 < s < math.inf for s in (x_hi - x_lo, y_hi - y_lo)):
        raise DomainError("the data span does not fit the float range; cannot scale the plot")

    def px(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>',
        # axes
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="#000000"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="#000000"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        out.append(
            f'<text x="{px(xt):.1f}" y="{HEIGHT - MARGIN + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xt:.3g}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        out.append(
            f'<text x="{MARGIN - 8}" y="{py(yt) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yt:.3g}</text>'
        )
    points = " ".join(map("%.2f,%%.2f".__mod__, px(np.asarray(xs)).tolist()))  # x0,%.2f ...
    for i, (label, ys) in enumerate(columns.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = points % tuple(py(np.asarray(ys)).tolist())
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        ly = MARGIN + 18 * i
        out.append(
            f'<line x1="{WIDTH - MARGIN - 90}" y1="{ly}" x2="{WIDTH - MARGIN - 60}" '
            f'y2="{ly}" stroke="{color}" stroke-width="3"/>'
        )
        out.append(
            f'<text x="{WIDTH - MARGIN - 52}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{escape(label, quote=False)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
