import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratapprox import svgplot
from ratapprox.geometry import Disk
from ratapprox.potential import potential_grid


def test_marching_squares_circle_level():
    # level set of f(x,y) = x^2 + y^2 at 1 is the unit circle
    xs = np.linspace(-2, 2, 81)
    ys = np.linspace(-2, 2, 81)
    grid = xs[None, :] ** 2 + ys[:, None] ** 2
    segs = svgplot.marching_squares(xs, ys, grid, 1.0)
    assert segs
    for (x1, y1), (x2, y2) in segs:
        for x, y in ((x1, y1), (x2, y2)):
            assert abs(np.hypot(x, y) - 1.0) < 0.05


def test_marching_squares_no_crossings():
    xs = np.linspace(0, 1, 10)
    ys = np.linspace(0, 1, 10)
    grid = np.zeros((10, 10))
    assert svgplot.marching_squares(xs, ys, grid, 5.0) == []


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
    assert segs == _reference_marching_squares(xs, ys, grid, level)
    if kind == "flat" or 1 in (ny, nx):
        assert segs == []


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
    assert (svgplot.marching_squares(xs, ys, grid, level)
            == _reference_marching_squares(xs, ys, grid, level))


def test_render_svg_structure():
    f = potential_grid([0j, 1.0 + 0j], [2.0 + 2.0j], (-3, 3, -3, 3), (64, 64))
    svg = svgplot.render_potential_svg(f, Disk(0j, 1.0))
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 3          # 1 pole + 2 supports
    assert "<path" in svg and "<text" in svg  # contours and colorbar labels
    assert svg == svgplot.render_potential_svg(f, Disk(0j, 1.0))  # stable
