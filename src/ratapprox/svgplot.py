"""Dependency-free SVG rendering of potential fields.

Contour segments are extracted from the gridded log10|phi| values by
marching squares at the field's integer levels.  The corner codes and edge
crossings of all cells are computed as numpy arrays; only the cells that a
level crosses are visited in Python, in row-major order, to pick their
edge pairs (saddle cells split on the cell-center mean).  Poles are drawn
as red markers, supports as yellow markers, the domain boundary in black,
and a labeled vertical colorbar shows the level scale.  Output is
byte-stable: all coordinates are formatted with a fixed precision and
iteration order.
"""

from __future__ import annotations

import numpy as np

from . import geometry

# cell-edge pairs crossed for each of the 16 corner sign patterns;
# edges: 0 bottom, 1 right, 2 top, 3 left; corners: (i,j),(i+1,j),(i+1,j+1),(i,j+1)
_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(3, 0)],
}
# saddle codes: pairs when the cell-center mean is below / above the level
_SADDLE_CASES = {
    5: ([(3, 2), (1, 0)], [(3, 0), (1, 2)]),
    10: ([(0, 3), (2, 1)], [(0, 1), (2, 3)]),
}


def marching_squares(xs, ys, grid, level):
    """Line segments of the level set {grid == level} on a regular grid.

    grid is indexed [j, i] for point (xs[i], ys[j]).  Returns a list of
    ((x1, y1), (x2, y2)) segments in data coordinates, cell by cell in
    row-major order.
    """
    g = np.asarray(grid, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    corners = (g[:-1, :-1], g[:-1, 1:], g[1:, 1:], g[1:, :-1])
    code = np.zeros(corners[0].shape, dtype=np.uint8)
    for k, c in enumerate(corners):
        code |= (c > level).astype(np.uint8) << k
    jj, ii = np.nonzero((code != 0) & (code != 15))
    v = [c[jj, ii] for c in corners]
    x0, x1 = xs[ii], xs[ii + 1]
    y0, y1 = ys[jj], ys[jj + 1]
    t0 = _fracs(v[0], v[1], level)
    t1 = _fracs(v[1], v[2], level)
    t2 = _fracs(v[3], v[2], level)
    t3 = _fracs(v[0], v[3], level)
    points = [
        list(zip((x0 + t0 * (x1 - x0)).tolist(), y0.tolist())),
        list(zip(x1.tolist(), (y0 + t1 * (y1 - y0)).tolist())),
        list(zip((x0 + t2 * (x1 - x0)).tolist(), y1.tolist())),
        list(zip(x0.tolist(), (y0 + t3 * (y1 - y0)).tolist())),
    ]
    segments = []
    for k, c in enumerate(code[jj, ii].tolist()):
        if c in _SADDLE_CASES:  # split on the cell-center mean
            center_above = np.mean([vc[k] for vc in v]) > level
            pairs = _SADDLE_CASES[c][bool(center_above)]
        else:
            pairs = _CASES[c]
        for e1, e2 in pairs:
            segments.append((points[e1][k], points[e2][k]))
    return segments


def _fracs(a, b, level):
    """Where level falls between corner values a and b, clamped to [0, 1];
    0.5 on a flat edge (b == a) and 0 where the quotient is NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (level - a) / (b - a)
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    return np.where(b == a, 0.5, t)


def _level_color(t):
    """Blue-to-yellow colormap on t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    r = int(round(40 + t * (250 - 40)))
    g = int(round(60 + t * (220 - 60)))
    b = int(round(170 - t * (170 - 40)))
    return f"#{r:02x}{g:02x}{b:02x}"


def _fmt(x):
    return f"{x:.2f}"


def render_potential_svg(field, domain=None, width=640):
    """Render a PotentialField to an SVG document string."""
    xmin, xmax, ymin, ymax = field.window
    plot_w = width
    plot_h = int(round(width * (ymax - ymin) / (xmax - xmin)))
    margin, bar_w, bar_gap = 40, 24, 56
    total_w = plot_w + 2 * margin + bar_w + bar_gap
    total_h = plot_h + 2 * margin

    def px(x):
        return margin + (x - xmin) / (xmax - xmin) * plot_w

    def py(y):
        return margin + (ymax - y) / (ymax - ymin) * plot_h

    xs, ys = field.cell_centers()
    lmin = float(field.log_abs_phi.min())
    lmax = float(field.log_abs_phi.max())
    span = max(lmax - lmin, 1e-30)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
        f'<rect width="{total_w}" height="{total_h}" fill="white"/>',
    ]

    for level in field.levels:
        color = _level_color((float(level) - lmin) / span)
        segs = marching_squares(xs, ys, field.log_abs_phi, float(level))
        if not segs:
            continue
        d = "".join(
            f"M{_fmt(px(a[0]))} {_fmt(py(a[1]))}L{_fmt(px(b[0]))} {_fmt(py(b[1]))}"
            for a, b in segs
        )
        parts.append(
            f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1"/>'
        )

    if domain is not None:
        bpts = geometry.boundary_samples(domain, 400)
        closed = not isinstance(domain, geometry.Interval)
        d = "M" + "L".join(
            f"{_fmt(px(p.real))} {_fmt(py(p.imag))}" for p in bpts
        )
        if closed:
            d += "Z"
        parts.append(
            f'<path d="{d}" fill="none" stroke="black" stroke-width="1.5"/>'
        )

    for p in field.pole_list:
        parts.append(
            f'<circle cx="{_fmt(px(p.real))}" cy="{_fmt(py(p.imag))}" r="4" '
            f'fill="#d62728" stroke="black" stroke-width="0.5"/>'
        )
    for s in field.supports:
        parts.append(
            f'<circle cx="{_fmt(px(s.real))}" cy="{_fmt(py(s.imag))}" r="3.5" '
            f'fill="#ffd500" stroke="black" stroke-width="0.5"/>'
        )

    # colorbar
    bar_x = plot_w + 2 * margin
    n_strip = 64
    for k in range(n_strip):
        t = 1.0 - k / (n_strip - 1)
        y_top = margin + k * plot_h / n_strip
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(y_top)}" width="{bar_w}" '
            f'height="{_fmt(plot_h / n_strip + 0.5)}" '
            f'fill="{_level_color(t)}"/>'
        )
    parts.append(
        f'<rect x="{bar_x}" y="{margin}" width="{bar_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for level in field.levels:
        t = (float(level) - lmin) / span
        y = margin + (1.0 - t) * plot_h
        parts.append(
            f'<line x1="{bar_x + bar_w}" y1="{_fmt(y)}" '
            f'x2="{bar_x + bar_w + 5}" y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{bar_x + bar_w + 8}" y="{_fmt(y + 4)}" '
            f'font-family="sans-serif" font-size="12">{int(level)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
