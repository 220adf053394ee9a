import re
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratapprox import cli, geometry, svgplot
from ratapprox.geometry import Disk
from ratapprox.potential import potential_grid
from svgpath import hundredths, plot_map, polylines, printed


def _circle_input():
    # level set of f(x,y) = x^2 + y^2 at 1 is the unit circle
    xs = np.linspace(-2, 2, 81)
    ys = np.linspace(-2, 2, 81)
    return xs, ys, xs[None, :] ** 2 + ys[:, None] ** 2, 1.0


def test_marching_squares_circle_level():
    segs = svgplot.marching_squares(*_circle_input())
    assert segs.shape[0] > 0 and segs.shape[1] == 4
    for x, y in (segs[:, 0:2].T, segs[:, 2:4].T):
        assert np.all(np.abs(np.hypot(x, y) - 1.0) < 0.05)
    # one closed chain, running clockwise: the values above 1 on its left
    assert _chain_count(segs) == 1 and segs[-1, 2:].tolist() == segs[0, :2].tolist()
    x1, y1, x2, y2 = segs.T
    assert np.sum(x1 * y2 - x2 * y1) < 0


def test_marching_squares_no_crossings():
    xs = np.linspace(0, 1, 10)
    ys = np.linspace(0, 1, 10)
    grid = np.zeros((10, 10))
    assert svgplot.marching_squares(xs, ys, grid, 5.0).shape == (0, 4)


# per-cell marching squares, kept as the reference the array version must
# reproduce segment for segment
_REF_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(3, 0)],
}


def _reference_frac(a, b, level):
    if b == a:
        return 0.5
    t = (level - a) / (b - a)
    return min(1.0, max(0.0, t))


def _cell_values(g, j, i):
    return (g[j, i], g[j, i + 1], g[j + 1, i + 1], g[j + 1, i])


def _cell_code(v, level):
    return sum(1 << k for k in range(4) if v[k] > level)


def _reference_marching_squares(xs, ys, grid, level):
    segments = []
    g = np.asarray(grid, dtype=float)
    ny, nx = g.shape
    for j in range(ny - 1):
        for i in range(nx - 1):
            v = _cell_values(g, j, i)
            code = _cell_code(v, level)
            if code in (0, 15):
                continue
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[j], ys[j + 1]

            def cross(edge):
                if edge == 0:
                    t = _reference_frac(v[0], v[1], level)
                    return (x0 + t * (x1 - x0), y0)
                if edge == 1:
                    t = _reference_frac(v[1], v[2], level)
                    return (x1, y0 + t * (y1 - y0))
                if edge == 2:
                    t = _reference_frac(v[3], v[2], level)
                    return (x0 + t * (x1 - x0), y1)
                t = _reference_frac(v[0], v[3], level)
                return (x0, y0 + t * (y1 - y0))

            if code in (5, 10):
                center_above = np.mean(v) > level
                if code == 5:
                    pairs = [(3, 0), (1, 2)] if center_above else [(3, 2), (1, 0)]
                else:
                    pairs = [(0, 1), (2, 3)] if center_above else [(0, 3), (2, 1)]
            else:
                pairs = _REF_CASES[code]
            for e1, e2 in pairs:
                segments.append((cross(e1), cross(e2)))
    return segments


def _undirected(segments):
    """Segments (a, b), in any order and direction, as a sorted list of
    (min(a, b), max(a, b))."""
    return sorted(tuple(sorted((tuple(a), tuple(b)))) for a, b in segments)


def _undirected_rows(rows):
    """Rows (x1, y1, x2, y2) as _undirected segments."""
    return _undirected((r[:2], r[2:]) for r in rows.tolist())


def _chain_count(rows):
    """Chains in the rows: 1 + the rows that do not start where the row
    before them ends."""
    if not len(rows):
        return 0
    return 1 + int(np.sum(np.any(rows[1:, :2] != rows[:-1, 2:], axis=1)))


def _component_count(rows):
    """Connected components of the graph whose nodes are the rows'
    endpoints and whose edges are the rows (union-find)."""
    parent = {}

    def root(p):
        while parent.setdefault(p, p) != p:
            p = parent[p]
        return p

    for r in rows.tolist():
        parent[root(tuple(r[:2]))] = root(tuple(r[2:]))
    return len({root(p) for p in list(parent)})


def _oracle_input(kind, ny, nx, seed):
    """Axes, grid and level of one oracle case."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-2.0, 3.0, nx))
    ys = np.linspace(-1.0, 1.5, ny)
    if kind == "real":
        return xs, ys, rng.standard_normal((ny, nx)), 0.25
    if kind == "integer":
        # corners equal to the level, flat edges and both saddle codes
        return xs, ys, rng.integers(0, 3, (ny, nx)).astype(float), 1.0
    if kind == "infinite":
        values = np.array([-np.inf, -0.5, 0.5, np.inf])
        return xs, ys, values[rng.integers(0, 4, (ny, nx))], 0.0
    if kind == "flat":
        return xs, ys, np.full((ny, nx), 3.0), 0.0
    raise ValueError(kind)


_ORACLE_CASES = [
    ("real", 20, 20, 1), ("real", 7, 31, 2), ("real", 31, 7, 3),
    ("integer", 25, 25, 4), ("integer", 9, 40, 5), ("integer", 40, 9, 6),
    ("infinite", 15, 12, 7), ("flat", 8, 8, 8),
    ("real", 1, 10, 9), ("integer", 10, 1, 10), ("real", 1, 1, 11),
]


# infinite corners make NaN quotients (clamped to 0) and NaN saddle means
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind, ny, nx, seed", _ORACLE_CASES)
def test_marching_squares_matches_reference(kind, ny, nx, seed):
    xs, ys, grid, level = _oracle_input(kind, ny, nx, seed)
    segs = svgplot.marching_squares(xs, ys, grid, level)
    assert _undirected_rows(segs) == _undirected(
        _reference_marching_squares(xs, ys, grid, level))
    if kind == "flat" or 1 in (ny, nx):
        assert segs.shape == (0, 4)


def test_pairs_keep_the_corners_above_on_the_left():
    # edge midpoints and corners of the unit cell, and each edge's corners
    mid = np.array([(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)])
    corner = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    ends = [(0, 1), (1, 2), (3, 2), (0, 3)]
    checked = 0
    for index, pairs in enumerate(svgplot._PAIRS):
        code = index % 16
        for a, b in pairs.tolist():
            if a == b:
                continue
            # the above corners of the two crossed edges: for a saddle
            # pair, the corner it cuts off if that one is above
            above = [q for q in {*ends[a], *ends[b]} if code >> q & 1]
            dx, dy = mid[b] - mid[a]
            for q in above:
                qx, qy = corner[q] - mid[a]
                assert dx * qy - dy * qx > 0, (index, a, b, q)
            checked += 1
    assert checked == 2 * (12 + 2 * 2)


# not the integer and infinite cases: corners on the level and crossings
# clamped onto a corner put chains that share no edge on one point, and
# there the endpoint graph joins what the rows rightly keep apart
@pytest.mark.parametrize("kind, ny, nx, seed", [
    c for c in _ORACLE_CASES if c[0] in ("real", "flat")] + [("circle", 0, 0, 0)])
def test_chain_breaks_count_the_components(kind, ny, nx, seed):
    xs, ys, grid, level = (_circle_input() if kind == "circle"
                           else _oracle_input(kind, ny, nx, seed))
    segs = svgplot.marching_squares(xs, ys, grid, level)
    assert _chain_count(segs) == _component_count(segs)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_oracle_inputs_exercise_saddles():
    # both saddle codes, each with the center mean on both sides
    seen = {}
    for kind, ny, nx, seed in _ORACLE_CASES:
        xs, ys, grid, level = _oracle_input(kind, ny, nx, seed)
        for j in range(ny - 1):
            for i in range(nx - 1):
                v = _cell_values(grid, j, i)
                code = _cell_code(v, level)
                if code in (5, 10):
                    key = (code, bool(np.mean(v) > level))
                    seen[key] = seen.get(key, 0) + 1
    assert set(seen) == {(5, False), (5, True), (10, False), (10, True)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), ny=st.integers(1, 14),
       nx=st.integers(1, 14), integer=st.booleans())
def test_marching_squares_matches_reference_property(seed, ny, nx, integer):
    xs, ys, grid, level = _oracle_input(
        "integer" if integer else "real", ny, nx, seed)
    segs = svgplot.marching_squares(xs, ys, grid, level)
    assert _undirected_rows(segs) == _undirected(
        _reference_marching_squares(xs, ys, grid, level))
    if not integer:
        assert _chain_count(segs) == _component_count(segs)


def test_render_svg_structure():
    f = potential_grid([0j, 1.0 + 0j], [2.0 + 2.0j], (-3, 3, -3, 3), (64, 64))
    svg = svgplot.render_potential_svg(f, Disk(0j, 1.0))
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 3          # 1 pole + 2 supports
    assert "<path" in svg and "<text" in svg  # contours and colorbar labels
    # the ticks are one path, the labels one group with the font attributes
    ticks = re.findall(r'<path d="((?:M744 [0-9.]+h5)+)" stroke="black" '
                       r'fill="none"/>', svg)
    labels = re.findall(r'<g font-family="sans-serif" font-size="12">((?:<text '
                        r'x="752" y="[0-9.]+">-?[0-9]+</text>)+)</g>', svg)
    assert [t.count("M") for t in ticks] == [len(f.levels)]
    assert [t.count("<text") for t in labels] == [len(f.levels)]
    assert svg == svgplot.render_potential_svg(f, Disk(0j, 1.0))  # stable


def _polyline_pairs(d):
    """The segments an SVG path's polylines draw, as _undirected pairs of
    (x, y) points in integer hundredths; a Z closes its polyline with a pair
    back to its start."""
    pairs = []
    for points, closed in polylines(d):
        pairs += zip(points, points[1:] + points[:1] * closed)
    return _undirected(pairs)


def test_render_svg_pins_contour_bytes_and_gradient_colorbar():
    # phi = (z^2 - 2i) / (z^2 + 2i) has a saddle of log10|phi| at 0 on level
    # 0, in a saddle cell; each contour path must draw the segments of the
    # reference, each point decoding to its %.2f
    f = potential_grid([1 + 1j, -1 - 1j], [1 - 1j, -1 + 1j], (-3, 3, -3, 3),
                       (64, 64))
    g = f.log_abs_phi
    assert 10 in [_cell_code(_cell_values(g, j, i), 0.0)
                  for j in range(63) for i in range(63)]
    svg = svgplot.render_potential_svg(f, Disk(0j, 1.0))
    px, py = plot_map(f)
    xs, ys = f.cell_centers()
    expected = []
    for level in f.levels:
        segs = _reference_marching_squares(xs, ys, g, float(level))
        if segs:
            expected.append(_undirected(
                ((printed(px(a[0])), printed(py(a[1]))),
                 (printed(px(b[0])), printed(py(b[1])))) for a, b in segs))
    contours = re.findall(r'<path d="([^"]*)" fill="none" stroke="#', svg)
    assert [_polyline_pairs(d) for d in contours] == expected
    assert all(d.count("M") < len(pairs) for d, pairs in zip(contours, expected))

    lo, hi = svgplot._level_color(0.0), svgplot._level_color(1.0)
    assert svg.count("<linearGradient") == 1
    assert re.findall(r'<stop offset="[01]" stop-color="([^"]*)"/>', svg) == [lo, hi]
    rects = re.findall(r"<rect [^>]*>", svg)
    assert len(rects) == 2                     # background and colorbar
    assert 'fill="white"' in rects[0] and 'fill="url(#bar)"' in rects[1]


@pytest.fixture(scope="module")
def drawn(tmp_path_factory):
    """(field, domain, svg) of each of the six figures, then of a potential
    plot whose window cuts the unit disk, so that some of its boundary's
    coordinates are negative."""
    out = tmp_path_factory.mktemp("drawn")
    calls = []
    render = svgplot.render_potential_svg

    def recording(field, domain=None):
        calls.append((field, domain))
        return render(field, domain)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svgplot, "render_potential_svg", recording)
        for n in range(1, 7):
            cli.run_figure(n, str(out / str(n)))
        assert cli.main(["potential", "--model", str(out / "1" / "model.json"),
                         "--window=0,2,-2,0", "--domain", "disk:0,0,1",
                         "--res", "64", "--out", str(out / "cut.svg")]) == 0
    paths = [out / str(n) / "potential.svg" for n in range(1, 7)] + [out / "cut.svg"]
    assert len(calls) == len(paths)
    return [(*call, path.read_text()) for call, path in zip(calls, paths)]


def test_figure_contours_draw_the_segments_and_parse(drawn):
    # the per-cell reference takes seconds on a figure's 220-wide grid, so
    # each level is checked against marching_squares' own rows, which the
    # oracle tests above check against the reference
    for field, _, svg in drawn:
        ElementTree.fromstring(svg)
        px, py = plot_map(field)
        xs, ys = field.cell_centers()
        expected = []
        for level in field.levels:
            segs = svgplot.marching_squares(xs, ys, field.log_abs_phi, float(level))
            if len(segs):
                pts = segs.reshape(-1, 2)
                s = list(zip(map(printed, px(pts[:, 0]).tolist()),
                             map(printed, py(pts[:, 1]).tolist())))
                expected.append(_undirected(zip(s[0::2], s[1::2])))
        contours = re.findall(r'<path d="([^"]*)" fill="none" stroke="#', svg)
        assert [_polyline_pairs(d) for d in contours] == expected


def test_figure_boundaries_and_markers_decode_to_their_points(drawn):
    for field, domain, svg in drawn:
        px, py = plot_map(field)
        z = geometry.boundary_samples(domain, 400)
        (boundary,) = re.findall(
            r'<path d="([^"]*)" fill="none" stroke="black" stroke-width="1.5"/>', svg)
        expected = list(zip(map(printed, px(z.real).tolist()),
                            map(printed, py(z.imag).tolist())))
        assert polylines(boundary) == [
            (expected, not isinstance(domain, geometry.Interval))]
        # each marker kind is one group, each circle only its cx, cy and r
        for color, r, points in (("#d62728", "4", field.pole_list),
                                 ("#ffd500", "3.5", field.supports)):
            (group,) = re.findall(f'<g fill="{color}" stroke="black" '
                                  f'stroke-width="0.5">(.*?)</g>', svg)
            circles = re.findall(f'<circle cx="([^"]*)" cy="([^"]*)" r="{r}"/>', group)
            assert group == "".join(f'<circle cx="{x}" cy="{y}" r="{r}"/>'
                                    for x, y in circles)
            assert [(hundredths(x), hundredths(y)) for x, y in circles] == [
                (printed(px(p.real)), printed(py(p.imag))) for p in points]
    assert min(x for x, _ in expected) < 0 and min(y for _, y in expected) < 0


_COORD = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lines=st.lists(st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=8),
                      min_size=1, max_size=4),
       closed=st.lists(st.booleans(), min_size=4, max_size=4))
def test_path_points_decode_to_their_printed_hundredths(lines, closed):
    # any finite double, up to the 309 digits %.2f prints for the largest
    d = svgplot._path(np.array([p for line in lines for p in line]),
                      [len(line) for line in lines], closed[:len(lines)])
    assert polylines(d) == [([(printed(x), printed(y)) for x, y in line], c)
                            for line, c in zip(lines, closed)]


def test_level_color_is_affine_within_rounding():
    # the colorbar's two-stop gradient is the colormap only while each
    # channel of _level_color is linear in t up to rounding
    def channels(t):
        c = svgplot._level_color(t)
        return np.array([int(c[k:k + 2], 16) for k in (1, 3, 5)])

    lo, hi = channels(0.0), channels(1.0)
    for t in np.linspace(0.0, 1.0, 1001):
        assert np.all(np.abs(channels(t) - (lo + t * (hi - lo))) <= 0.5)
