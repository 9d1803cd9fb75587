"""Static SVG rendering of planar instances and solutions.

Output is a pure function of the inputs (fixed palette, fixed float
formatting), so repeated runs write byte-identical files.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geometry import MODE_FLOAT, AffineFlat, WeightedPointCloud, dist2_rows

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf")

_CANVAS = 640.0
_MARGIN = 40.0


def _fmt(x: float) -> str:
    return format(x, ".3f")


def render_svg(cloud: WeightedPointCloud,
               flats: Sequence[AffineFlat] = ()) -> str:
    """Points colored by their nearest solution line; lines clipped to the box."""
    if cloud.dim != 2 or cloud.mode != MODE_FLOAT:
        raise ValueError("plotting requires a float-mode planar cloud")
    xs = [float(r.coords[0]) for r in cloud.records]
    ys = [float(r.coords[1]) for r in cloud.records]
    if not xs:
        raise ValueError("nothing to plot")
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = (_CANVAS - 2 * _MARGIN) / span

    def to_px(x, y):
        return (_MARGIN + (x - lo_x) * scale,
                _CANVAS - _MARGIN - (y - lo_y) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" '
        f'height="{int(_CANVAS)}" viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for idx, flat in enumerate(flats):
        color = PALETTE[idx % len(PALETTE)]
        seg = _clip_line(flat, lo_x - span, hi_x + span, lo_y - span, hi_y + span)
        if seg is not None:
            (x1, y1), (x2, y2) = seg
            px1, py1 = to_px(x1, y1)
            px2, py2 = to_px(x2, y2)
            parts.append(
                f'<line x1="{_fmt(px1)}" y1="{_fmt(py1)}" x2="{_fmt(px2)}" '
                f'y2="{_fmt(py2)}" stroke="{color}" stroke-width="1.5"/>')
    if flats:
        # argmin gives ties to the lowest flat index.
        X = cloud.coords_array()
        nearest = np.argmin(np.column_stack([dist2_rows(X, f) for f in flats]), axis=1)
        colors = [PALETTE[j % len(PALETTE)] for j in nearest]
    else:
        colors = ["#333333"] * len(cloud.records)
    for rec, color in zip(cloud.records, colors):
        px, py = to_px(float(rec.coords[0]), float(rec.coords[1]))
        radius = 3.0 + 0.8 * math.log(rec.mult) if rec.mult > 1 else 3.0
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(radius)}" '
                     f'fill="{color}" fill-opacity="0.8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _clip_line(flat: AffineFlat, lo_x, hi_x, lo_y, hi_y):
    """Segment of a 1-flat inside the padded bounding box, or None."""
    if flat.dim_flat != 1:
        return None
    px, py = (float(c) for c in flat.offset)
    dx, dy = (float(c) for c in flat.basis[0])
    ts = []
    for bound, comp, d in ((lo_x, px, dx), (hi_x, px, dx), (lo_y, py, dy), (hi_y, py, dy)):
        if abs(d) > 1e-15:
            ts.append((bound - comp) / d)
    if not ts:
        return None
    t_lo, t_hi = min(ts), max(ts)
    return ((px + t_lo * dx, py + t_lo * dy), (px + t_hi * dx, py + t_hi * dy))
