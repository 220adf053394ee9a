"""Decoding of the SVG path data that svgplot._path writes, in integer
hundredths, with no float arithmetic, and the map from data to plot
coordinates."""

import re

from ratapprox import svgplot

# a step in its shortest decimal: no trailing zeros, no leading 0
_STEP = r"0|-?(?:[1-9][0-9]*(?:\.[0-9]?[1-9])?|\.[0-9]?[1-9])"


def hundredths(s):
    """A decimal string with at most two decimals as integer hundredths."""
    whole, _, frac = s.lstrip("-").partition(".")
    assert len(frac) <= 2 and (whole or frac), s
    value = int(whole or "0") * 100 + int(frac.ljust(2, "0"))
    return -value if s.startswith("-") else value


def printed(v):
    """The integer hundredths that %.2f prints for the float v."""
    return hundredths("%.2f" % v)


def polylines(d):
    """The polylines of path data M x y, l and its steps, then Z if closed:
    a list of (points, closed), each point an (x, y) of integer hundredths.
    Every step must be in its shortest form, after a space, or after
    nothing where it starts with - or is the polyline's first."""
    out = []
    assert re.fullmatch(r"(?:M[^MZ]*Z?)*", d), d[:80]
    for start, steps, z in re.findall(r"M([^l]*)l([^MZ]*)(Z?)", d):
        numbers = re.findall(r" ?(-?[0-9.]+)", steps)
        assert all(re.fullmatch(_STEP, n) for n in numbers), steps[:80]
        assert steps == numbers[0] + "".join(
            n if n.startswith("-") else " " + n for n in numbers[1:])
        x, y = map(hundredths, start.split(" "))
        points = [(x, y)]
        for dx, dy in zip(numbers[0::2], numbers[1::2]):
            x, y = x + hundredths(dx), y + hundredths(dy)
            points.append((x, y))
        assert len(numbers) == 2 * (len(points) - 1)
        out.append((points, bool(z)))
    assert len(out) == d.count("M")
    return out


def plot_map(field):
    """px, py: data to plot coordinates, as render_potential_svg maps
    them."""
    xmin, xmax, ymin, ymax = field.window
    plot_h = int(round(svgplot.plot_height(field.window)))

    def px(x):
        return 40 + (x - xmin) / (xmax - xmin) * svgplot.PLOT_WIDTH

    def py(y):
        return 40 + (ymax - y) / (ymax - ymin) * plot_h

    return px, py
