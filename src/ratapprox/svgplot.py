"""Dependency-free SVG rendering of potential fields.

Contour segments are extracted from the gridded log10|phi| values by
marching squares at the field's integer levels.  No cell is visited in
Python: the corner codes, edge crossings and cell-center means are numpy
arrays, and one edge-pair table indexed by corner code and center side
gives each crossed cell its one or two segments (saddle cells split on the
cell-center mean).  The table orients every segment with the values above
the level on its left, so a crossing on an edge two cells share ends one
segment and starts the next.  Each segment's start and end edges get
integer ids, the segments are chained by looking up each end id among
the start ids, and one Python step per segment walks the chains.  Each
contour is written as one path of polylines, one per chain with every
shared point once: an absolute M at its first point (%.2f), one l and its
relative steps, and Z closing a closed chain.  A step is the exact
difference of the integer hundredths that %.2f prints for consecutive
points, in its shortest decimal, so every point decodes to its own %.2f.
Poles are drawn as red markers and supports as yellow ones, each kind one
group holding the shared fill and stroke attributes; the domain boundary
is one black polyline; and a labeled vertical colorbar, one rect filled
with a two-stop linear gradient, its ticks one path and its labels one
group holding the font attributes, shows the level scale.  Output is
byte-stable: all coordinates are formatted with a fixed precision and
iteration order.
"""

from __future__ import annotations

import operator

import numpy as np

from . import geometry

# plot width in pixels; the height follows the window's aspect ratio
PLOT_WIDTH = 640

# the edge pairs a cell's level set crosses, indexed by corner code
# + 16 * (cell-center mean > level); a (0, 0) pad means no second pair.
# A pair (a, b) runs from edge a's crossing to edge b's with the corners
# above the level on its left (y up), a saddle pair with the corner it cuts
# off on its left if above, on its right if not; so a crossing on an edge
# two cells share ends one cell's segment and starts the other's.
# edges: 0 bottom, 1 right, 2 top, 3 left; corners: (i,j),(i+1,j),(i+1,j+1),(i,j+1)
_PAIRS = np.zeros((32, 2, 2), dtype=np.intp)
_PAIRS[:, 0] = 2 * [(0, 0), (0, 3), (1, 0), (1, 3), (2, 1), (0, 0), (2, 0), (2, 3),
                    (3, 2), (0, 2), (0, 0), (1, 2), (3, 1), (0, 1), (3, 0), (0, 0)]
# saddle codes 5 and 10 with the center below, then above the level
_PAIRS[[5, 10, 21, 26]] = [[(2, 3), (0, 1)], [(3, 0), (1, 2)],
                           [(0, 3), (2, 1)], [(1, 0), (3, 2)]]


def marching_squares(xs, ys, grid, level):
    """Line segments of the level set {grid == level} on a regular grid.

    grid is indexed [j, i] for point (xs[i], ys[j]).  Returns an (n, 4)
    float array of segments (x1, y1, x2, y2) in data coordinates.  Each
    segment runs with the grid values above the level on its left (y up),
    and the rows come chain by chain: each row starts where the row before
    it ends, exactly, except where a chain begins.  The open chains, which
    end at the grid's border, come first, then the closed ones.
    """
    g = np.asarray(grid, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ny, nx = g.shape
    above = (g > level).view(np.uint8)
    code = (above[:-1, :-1] | above[:-1, 1:] << 1
            | above[1:, 1:] << 2 | above[1:, :-1] << 3)
    # code - 1 wraps 0 to 255, so this drops the codes 0 and 15
    jj, ii = np.unravel_index(np.flatnonzero(code - np.uint8(1) < 14), code.shape)
    corners = (g[:-1, :-1], g[:-1, 1:], g[1:, 1:], g[1:, :-1])
    v0, v1, v2, v3 = (c[jj, ii] for c in corners)
    with np.errstate(invalid="ignore"):  # NaN at opposite infinite corners
        center_above = (v0 + v1 + v2 + v3) / 4 > level
    x0, x1 = xs[ii], xs[ii + 1]
    y0, y1 = ys[jj], ys[jj + 1]
    # crossing point of each edge, edge-major: ex[e, cell], ey[e, cell]
    ex = np.array([x0 + _fracs(v0, v1, level) * (x1 - x0), x1,
                   x0 + _fracs(v3, v2, level) * (x1 - x0), x0])
    ey = np.array([y0, y0 + _fracs(v1, v2, level) * (y1 - y0),
                   y1, y0 + _fracs(v0, v3, level) * (y1 - y0)])
    # grid-wide id of each edge: the horizontal edges row by row, then the
    # vertical ones
    h = jj * (nx - 1) + ii
    v = ny * (nx - 1) + jj * nx + ii
    eid = np.array([h, v + 1, h + nx - 1, v])
    pairs = _PAIRS[code[jj, ii] + 16 * center_above]
    cell, k = np.nonzero(pairs[:, :, 0] != pairs[:, :, 1])
    a, b = pairs[cell, k].T
    rows = np.column_stack([ex[a, cell], ey[a, cell], ex[b, cell], ey[b, cell]])
    return rows[_chain_order(eid[a, cell], eid[b, cell])]


def _chain_order(start, end):
    """Row order that walks the chains of segments start[r] -> end[r],
    given by edge ids, each id the start of at most one segment: first from
    each head (a row no segment ends at) in index order, then around the
    closed chains."""
    order = np.argsort(start)
    at = order[np.searchsorted(start, end, sorter=order).clip(max=len(start) - 1)]
    linked = start[at] == end
    nxt = np.where(linked, at, -1).tolist()
    has_pred = np.zeros(len(start), dtype=bool)
    has_pred[at[linked]] = True
    seen = bytearray(len(start))
    walk = []
    for r in [*np.flatnonzero(~has_pred).tolist(), *range(len(start))]:
        while r >= 0 and not seen[r]:
            seen[r] = 1
            walk.append(r)
            r = nxt[r]
    return np.array(walk, dtype=np.intp)


def _fracs(a, b, level):
    """Where level falls between corner values a and b, clamped to [0, 1];
    0.5 on a flat edge (b == a) and 0 where the quotient is NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (level - a) / (b - a)
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    return np.where(b == a, 0.5, t)


def _path(points, sizes, closed):
    """SVG path data of consecutive polylines: sizes[c] >= 2 rows of the
    (m, 2) points each.  A polyline is M and its first point at %.2f, then
    one l and its steps, then Z if it is closed.  A step is the exact
    difference of the integer hundredths that %.2f prints for consecutive
    points, so every point decodes to its own %.2f.  One %-format prints
    every coordinate, and the hundredths are Python integers, exact at any
    magnitude."""
    text = ("%.2f " * points.size) % tuple(_finite(points).ravel().tolist())
    coords = text.split()
    cents = list(map(int, text.replace(".", "").split()))
    # step k is coordinate k + 2 minus coordinate k; a polyline of points
    # a..b-1 takes steps 2a..2b-3
    start = np.cumsum([0, *sizes]).tolist()
    first = np.zeros(len(cents) - 2, dtype=bool)
    first[[2 * a for a in start[:-1]]] = True
    steps, ends = _decimals(list(map(operator.sub, cents[2:], cents[:-2])), first)
    return "".join(
        "M%s %sl%s%s" % (coords[2 * a], coords[2 * a + 1],
                         steps[ends[2 * a]:ends[2 * b - 2]], "Z" * bool(c))
        for a, b, c in zip(start, start[1:], closed))


def _finite(xy):
    """xy, once every plot coordinate in it is checked to be finite."""
    if not np.all(np.isfinite(xy)):
        raise ValueError("a plot coordinate overflows: the window is too "
                         "small for what is drawn")
    return xy


def _decimals(cents, first):
    """The Python integers cents as hundredths in their shortest exact
    decimals (no trailing zeros, no leading 0), written one after another:
    a negative one after its -, another after a space, or after nothing
    where first is set.  Also returns the offsets that bound them in that
    string: 0, then where each one ends."""
    # every number as sign and zero-padded digits of one width, then one
    # kept-character mask over that character matrix
    width = max(4, len(str(max(map(abs, cents), default=0))) + 1)
    text = (f"%+0{width}d" * len(cents)) % tuple(cents)
    chars = np.frombuffer(text.replace("+", " ").encode(), np.uint8)
    # sign, integer digits, point, two decimals
    chars = np.insert(chars.reshape(-1, width), width - 2, ord("."), axis=1)
    digit = chars != ord("0")
    keep = np.empty_like(digit)
    keep[:, 0] = (chars[:, 0] == ord("-")) | ~first
    keep[:, 1:-3] = np.logical_or.accumulate(digit[:, 1:-3], axis=1)
    keep[:, -1] = digit[:, -1]
    keep[:, -2] = digit[:, -2] | keep[:, -1]
    keep[:, -3] = keep[:, -2]
    keep[:, -4] |= ~keep[:, -3]    # 0, where nothing else is left
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return chars[keep].tobytes().decode(), [0, *ends]


def _level_color(t):
    """Blue-to-yellow colormap on t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    r = int(round(40 + t * (250 - 40)))
    g = int(round(60 + t * (220 - 60)))
    b = int(round(170 - t * (170 - 40)))
    return f"#{r:02x}{g:02x}{b:02x}"


def plot_height(window):
    """Plot height in px (unrounded; inf on overflow) at PLOT_WIDTH."""
    xmin, xmax, ymin, ymax = window
    return PLOT_WIDTH * (ymax - ymin) / (xmax - xmin)


def render_potential_svg(field, domain=None):
    """Render a PotentialField to an SVG document string."""
    xmin, xmax, ymin, ymax = field.window
    plot_w = PLOT_WIDTH
    plot_h = int(round(plot_height(field.window)))
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
        if not len(segs):
            continue
        segs[:, 0::2] = px(segs[:, 0::2])
        segs[:, 1::2] = py(segs[:, 1::2])
        # a row's start is written where it begins a chain, and its end
        # unless it closes a chain, which Z does
        written = np.ones((len(segs), 2), dtype=bool)
        written[1:, 0] = np.any(segs[1:, :2] != segs[:-1, 2:], axis=1)
        first = np.flatnonzero(written[:, 0])
        last = np.r_[first[1:], len(segs)] - 1
        closed = np.all(segs[first, :2] == segs[last, 2:], axis=1)
        written[last[closed], 1] = False
        d = _path(segs.reshape(-1, 2, 2)[written],
                  last - first + 2 - closed, closed)
        parts.append(f'<path d="{d}" fill="none" stroke="{color}"/>')

    if domain is not None:
        bpts = geometry.boundary_samples(domain, 400)
        closed = not isinstance(domain, geometry.Interval)
        d = _path(np.column_stack([px(bpts.real), py(bpts.imag)]),
                  [len(bpts)], [closed])
        parts.append(
            f'<path d="{d}" fill="none" stroke="black" stroke-width="1.5"/>'
        )

    # poles red, supports yellow: each kind one group of circles
    for color, r, points in (("#d62728", 4, field.pole_list),
                             ("#ffd500", 3.5, field.supports)):
        xy = _finite(np.column_stack([px(points.real), py(points.imag)]))
        parts.append(
            f'<g fill="{color}" stroke="black" stroke-width="0.5">'
            + (f'<circle cx="%.2f" cy="%.2f" r="{r}"/>' * len(xy))
            % tuple(xy.ravel().tolist())
            + "</g>"
        )

    # colorbar
    bar_x = plot_w + 2 * margin
    parts.append(
        f'<linearGradient id="bar" x1="0" y1="1" x2="0" y2="0">'
        f'<stop offset="0" stop-color="{_level_color(0.0)}"/>'
        f'<stop offset="1" stop-color="{_level_color(1.0)}"/></linearGradient>'
        f'<rect x="{bar_x}" y="{margin}" width="{bar_w}" height="{plot_h}" '
        f'fill="url(#bar)" stroke="black" stroke-width="1"/>'
    )
    ticks = [(int(level), margin + (1.0 - (float(level) - lmin) / span) * plot_h)
             for level in field.levels]
    parts.append('<path d="' + "".join(f"M{bar_x + bar_w} {y:.2f}h5"
                                       for _, y in ticks)
                 + '" stroke="black" fill="none"/>')
    parts.append('<g font-family="sans-serif" font-size="12">'
                 + "".join(f'<text x="{bar_x + bar_w + 8}" y="{y + 4:.2f}">'
                           f'{level}</text>' for level, y in ticks)
                 + "</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
