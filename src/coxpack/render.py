"""Deterministic SVG rendering of rank-4 disk packings."""

from __future__ import annotations

from .balls import EuclideanBall

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#637939",
]
_STROKE = "#222222"
_STROKE_WIDTH = 0.5
_FILL_OPACITY = 0.85


def color_of(index: int) -> str:
    return _PALETTE[index % len(_PALETTE)]


def svg_packing(
    balls: list[tuple[EuclideanBall, int]],
    min_radius: float,
    canvas: int,
    header_comment: str,
) -> str:
    """Render (ball, color) pairs of a planar packing to a square SVG of `canvas` px.

    Positive-curvature disks are filled by color, and those with a radius
    below min_radius px are dropped; negative-curvature balls are drawn as
    boundary circles; half-space boundaries become full-width lines.
    Output bytes depend only on the inputs.
    """
    disks = []
    outlines = []
    lines = []
    for ball, color in balls:
        if ball.is_halfspace:
            lines.append((ball, color))
        elif ball.curvature > 0:
            disks.append((ball.center, ball.radius, color))
        else:
            outlines.append((ball.center, ball.radius, color))

    if disks:
        xs_lo = min(c[0] - r for c, r, _ in disks)
        xs_hi = max(c[0] + r for c, r, _ in disks)
        ys_lo = min(c[1] - r for c, r, _ in disks)
        ys_hi = max(c[1] + r for c, r, _ in disks)
    else:
        xs_lo = ys_lo = -1.0
        xs_hi = ys_hi = 1.0
    pad = 0.05 * max(xs_hi - xs_lo, ys_hi - ys_lo, 1e-9)
    xs_lo -= pad
    xs_hi += pad
    ys_lo -= pad
    ys_hi += pad
    scale = canvas / max(xs_hi - xs_lo, ys_hi - ys_lo)

    def px(x: float) -> float:
        return (x - xs_lo) * scale

    def py(y: float) -> float:
        return canvas - (y - ys_lo) * scale

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- {header_comment} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas}" '
        f'height="{canvas}" viewBox="0 0 {canvas} {canvas}">',
        f'<rect width="{canvas}" height="{canvas}" fill="#ffffff"/>',
    ]

    for center, radius, color in sorted(
        outlines, key=lambda d: (-d[1], d[0][0], d[0][1], d[2])
    ):
        out.append(
            f'<circle cx="{px(center[0]):.4f}" cy="{py(center[1]):.4f}" '
            f'r="{radius * scale:.4f}" fill="none" stroke="{color_of(color)}" '
            f'stroke-width="{_STROKE_WIDTH:.4f}"/>'
        )
    for center, radius, color in sorted(
        disks, key=lambda d: (-d[1], d[0][0], d[0][1], d[2])
    ):
        r_px = radius * scale
        if r_px < min_radius:
            continue
        out.append(
            f'<circle cx="{px(center[0]):.4f}" cy="{py(center[1]):.4f}" '
            f'r="{r_px:.4f}" fill="{color_of(color)}" fill-opacity="{_FILL_OPACITY:.2f}" '
            f'stroke="{_STROKE}" stroke-width="{_STROKE_WIDTH:.4f}"/>'
        )
    for ball, color in lines:
        # boundary {<y, n> = offset}: a segment spanning the canvas
        n0, n1 = float(ball.curvature_center[0]), float(ball.curvature_center[1])
        d = ball.halfspace_offset
        p0 = (d * n0 - 10.0 * n1, d * n1 + 10.0 * n0)
        p1 = (d * n0 + 10.0 * n1, d * n1 - 10.0 * n0)
        out.append(
            f'<line x1="{px(p0[0]):.4f}" y1="{py(p0[1]):.4f}" '
            f'x2="{px(p1[0]):.4f}" y2="{py(p1[1]):.4f}" '
            f'stroke="{color_of(color)}" stroke-width="{_STROKE_WIDTH:.4f}"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
