"""Minimal self-contained SVG line charts for the CLI's --svg flag."""

import numpy as np

from ._csv import atomic_write_text

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 44, 52
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _padded(lo, hi):
    if hi > lo:
        pad = 0.04 * (hi - lo)
        return lo - pad, hi + pad
    pad = max(abs(lo), 1.0) * 0.5
    return lo - pad, hi + pad


def _points(px, py):
    """Polyline points "x,y x,y ..." from pixel arrays, two decimals each."""
    pairs = np.column_stack([px, py]).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * len(px)) % tuple(pairs)


def line_chart(file_path, series, title, x_label, y_label):
    """Write one SVG chart; series is a list of (x, y, label) triples."""
    xs = [np.asarray(x, dtype=float) for x, _, _ in series]
    ys = [np.asarray(y, dtype=float) for _, y, _ in series]
    x0, x1 = _padded(min(x.min() for x in xs), max(x.max() for x in xs))
    y0, y1 = _padded(min(y.min() for y in ys), max(y.max() for y in ys))
    inner_w = _W - _ML - _MR
    inner_h = _H - _MT - _MB

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#444"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{_W / 2:.0f}" y="{_H - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.0f})">{y_label}</text>',
        f'<text x="{_ML}" y="{_H - _MB + 16}" text-anchor="middle">{x0:.4g}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 16}" text-anchor="middle">{x1:.4g}</text>',
        f'<text x="{_ML - 6}" y="{_H - _MB + 4}" text-anchor="end">{y0:.4g}</text>',
        f'<text x="{_ML - 6}" y="{_MT + 10}" text-anchor="end">{y1:.4g}</text>',
    ]
    for i, (x, y, label) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = _points(
            _ML + (xs[i] - x0) / (x1 - x0) * inner_w,
            _H - _MB - (ys[i] - y0) / (y1 - y0) * inner_h,
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>'
        )
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_ML + 8}" y1="{ly - 4}" x2="{_ML + 28}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_ML + 34}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    atomic_write_text(file_path, "\n".join(parts) + "\n")
