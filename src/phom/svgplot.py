"""Static SVG scatter plots of persistence diagrams.

Hand-rolled markup with fixed float formatting, so identical diagrams
always render to identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .persistence import PersistenceDiagram

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]

_SIZE = 420
_MARGIN = 48


def _fc(x: float) -> str:
    return format(x, ".2f")


def _marker(dim: int, x: float, y: float, color: str) -> str:
    if dim == 0:
        return (f'<circle cx="{_fc(x)}" cy="{_fc(y)}" r="3.5" '
                f'fill="{color}" fill-opacity="0.75"/>')
    if dim == 1:
        return (f'<rect x="{_fc(x - 3)}" y="{_fc(y - 3)}" width="6" '
                f'height="6" fill="{color}" fill-opacity="0.75"/>')
    pts = f"{_fc(x)},{_fc(y - 4)} {_fc(x - 3.5)},{_fc(y + 3)} " \
          f"{_fc(x + 3.5)},{_fc(y + 3)}"
    return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.75"/>'


def diagram_svg(pd: PersistenceDiagram, title: str = "") -> str:
    """Render a diagram as an SVG document string.

    Finite points sit above the dashed diagonal; essential points are
    drawn on a dashed horizontal line above the data range.
    """
    # Finite points first, then essential ones.  Python's min and max
    # below keep the first of a -0.0 and 0.0 tie; numpy's need not.
    fin = np.isfinite(pd.deaths)
    dims = pd.dims[fin].tolist() + pd.dims[~fin].tolist()
    xs = pd.births[fin].tolist() + pd.births[~fin].tolist()
    ys = pd.deaths[fin].tolist()
    essential = len(ys) < len(xs)
    # Values from 2**52 on are laid out scaled by 2**-e (exact above the
    # subnormals), so a unit next to them neither vanishes nor overflows.
    e = max(math.frexp(max(map(abs, xs + ys), default=0.0))[1] - 52, 0)
    xs, ys = ([math.ldexp(v, -e) for v in vs] for vs in (xs, ys))
    lo = min(xs + ys) if xs + ys else 0.0
    hi = max(xs + ys) if xs + ys else 1.0
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    lo -= 0.05 * span
    hi += 0.05 * span
    inf_y = hi + 0.08 * (hi - lo)
    top = inf_y + 0.05 * (hi - lo) if essential else hi

    inner = _SIZE - 2 * _MARGIN

    def sx(v: float) -> float:
        return _MARGIN + (v - lo) / (top - lo) * inner

    def sy(v: float) -> float:
        return _SIZE - _MARGIN - (v - lo) / (top - lo) * inner

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{inner}" '
        f'height="{inner}" fill="none" stroke="#444444"/>',
        f'<line x1="{_fc(sx(lo))}" y1="{_fc(sy(lo))}" x2="{_fc(sx(top))}" '
        f'y2="{_fc(sy(top))}" stroke="#999999" stroke-dasharray="5,4"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_SIZE // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>')
    parts.append(
        f'<text x="{_SIZE // 2}" y="{_SIZE - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">birth</text>')
    parts.append(
        f'<text x="14" y="{_SIZE // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_SIZE // 2})">death</text>')
    for v in (lo, top):
        label = format(v * 2.0 ** e, ".3g")
        parts.append(
            f'<text x="{_fc(sx(v))}" y="{_SIZE - _MARGIN + 16}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="10">{label}</text>')
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{_fc(sy(v) + 3)}" '
            f'text-anchor="end" font-family="sans-serif" '
            f'font-size="10">{label}</text>')
    if essential:
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_fc(sy(inf_y))}" '
            f'x2="{_SIZE - _MARGIN}" y2="{_fc(sy(inf_y))}" '
            f'stroke="#999999" stroke-dasharray="2,3"/>')
        parts.append(
            f'<text x="{_SIZE - _MARGIN + 4}" y="{_fc(sy(inf_y) + 3)}" '
            f'font-family="sans-serif" font-size="10">inf</text>')
    for k, d in enumerate(np.unique(pd.dims).tolist()):
        color = _COLORS[d % len(_COLORS)]
        parts.append(
            f'<text x="{_MARGIN + 8 + 54 * k}" y="{_MARGIN - 8}" '
            f'font-family="sans-serif" font-size="11" '
            f'fill="{color}">H{d}</text>')
    for d, b, y in zip(dims, xs, ys + [inf_y] * (len(xs) - len(ys))):
        parts.append(_marker(d, sx(b), sy(y), _COLORS[d % len(_COLORS)]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_diagram_svg(path: str, pd: PersistenceDiagram,
                     title: str = "") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(diagram_svg(pd, title))
