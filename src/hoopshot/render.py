"""Deterministic SVG rendering of scenes.

Output is a pure function of the scene: fixed palette and dash patterns,
every numeric attribute to exactly 3 decimal places with a locale-free
decimal point, and each element one % of a template formatted once at
import (a panel's frame once per rectangle), so repeated renders are
byte-identical and goldens stable.

Style constants (golden-file contract):
  colors   BASELINE #000000, CONCRETE #CC0000, SOLUTION #0000CC,
           OPTIMUM #00AA00
  dashes   DASHED "6.000,4.000", DOTTED "1.500,3.000"
  canvas   600x450 per scene; side-by-side panels split the width,
           stacked panels (see _panel_rects) split the height equally
  strokes  1.5 pixels wide for every mark
  margins  left 52, right 12, top 28, bottom 38 pixels per panel
  text     sans-serif: title 13, axis labels 11, TEXT marks 10 and the
           end-of-axis tick labels 9 pixels, black but for TEXT marks
  labels   "name (unit)" of each axis variable of the panel's PlotSpace
  curves   a QUADRATIC mark is one <path d="Mx0,y0 Qcx,cy x1,y1"/> per
           in-viewport piece of its Bezier curve: each end on the curve
           and in the viewport, the control point the blossom of the
           piece's parameter interval (see _clip_quadratic); the one
           piece of a curve whose control points are all in it is them
  pieces   a POLYLINE is clipped one segment at a time; no POLYLINE or
           QUADRATIC piece spanning under 0.0005 px both ways is written
"""

import math
import os
from collections import namedtuple

from .kinematics import _write_file, checked_record, short_repr
from .ladder import ColorRole, PlotSpace

PALETTE = {
    ColorRole.BASELINE: "#000000",
    ColorRole.CONCRETE: "#CC0000",
    ColorRole.SOLUTION: "#0000CC",
    ColorRole.OPTIMUM: "#00AA00",
}

SIZE = (600.0, 450.0)
MARGIN_LEFT = 52.0
MARGIN_RIGHT = 12.0
MARGIN_TOP = 28.0
MARGIN_BOTTOM = 38.0
FONT_FAMILY = "sans-serif"


def _escape(text: str) -> str:
    """Text content with &, < and > escaped, as html.escape(text,
    quote=False) does, without importing html and its entity table."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class LayoutError(ValueError):
    pass


# each member is the kind's name in Mark's messages
class MarkKind:
    POLYLINE = "polyline"
    QUADRATIC = "quadratic"
    POINT = "point"
    TEXT = "text"
    VLINE = "vline"
    HLINE = "hline"


class Dash:
    SOLID = "solid"
    DASHED = "dashed"
    DOTTED = "dotted"


Style = namedtuple("Style", "color_role dash", defaults=(Dash.SOLID,))

# the stroke attributes of every style, formatted once: a dashed or
# dotted stroke adds its stroke-dasharray
_STROKES = {
    Style(role, dash): f'stroke="{color}" stroke-width="1.500" fill="none"{pattern}'
    for role, color in PALETTE.items()
    for dash, pattern in (
        (Dash.SOLID, ""),
        (Dash.DASHED, ' stroke-dasharray="6.000,4.000"'),
        (Dash.DOTTED, ' stroke-dasharray="1.500,3.000"'),
    )
}
# <text> templates, formatted once but for the % fields given as x, y and the
# content, and those of the attributes: _TEXT(x, y, size, anchor, attributes, fill, content)
_TEXT = ('<text x="{}" y="{}" font-family="%s" font-size="{:.3f}" '
         'text-anchor="{}"{} fill="{}">{}</text>' % FONT_FAMILY).format
_TITLE, _LABEL = (_TEXT("%.3f", "%.3f", size, anchor, "", fill, "%s")
                  for size, anchor, fill in ((13.0, "middle", "#000000"), (10.0, "start", "%s")))
# a panel's frame after its title: the axis labels, the y one turned about its
# anchor, the end-of-axis tick labels of x, then of y, and the clipped group;
# the %.3f fields are its rectangle's (see _frame), each %%-field the panel's own
_FRAME = "\n".join([
    *(_TEXT("%.3f", "%.3f", 11.0, "middle", turn, "#000000", "%%s")
      for turn in ("", ' transform="rotate(-90.000 %.3f %.3f)"')),
    *(_TEXT(x, y, 9.0, anchor, "", "#000000", "%%s") for x, y, anchor in (
        ("%.3f", "%.3f", "start"), ("%%.3f", "%.3f", "end"),
        ("%.3f", "%.3f", "end"), ("%.3f", "%%.3f", "end"))),
    '<g clip-path="url(#%%s)">',
])
# a VLINE or HLINE, and a QUADRATIC in the viewport: its points, then its stroke
_LINE = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" %s/>'
_CURVE = '<path d="M%.3f,%.3f Q%.3f,%.3f %.3f,%.3f" %s/>'
_KINDS = tuple(v for k, v in vars(MarkKind).items() if not k.startswith("_"))


class Mark(checked_record("Mark", "kind style xs ys value text size", ((), (), 0.0, "", 3.0))):
    """One drawable element, in the panel's data coordinates.  xs and ys
    are the columns of its vertices, of the three control points of a
    QUADRATIC (a quadratic Bezier curve), or of the one anchor of a POINT
    or TEXT; value is the x position of a VLINE and the y position of an
    HLINE; size is the radius of a POINT in pixels."""

    __slots__ = ()

    def _check(self) -> None:
        if (kind := self.kind) not in _KINDS:
            raise ValueError(f"unknown mark kind {short_repr(kind)}")
        if len(self.xs) != len(self.ys):
            raise ValueError(f"{len(self.xs)} x values but {len(self.ys)} y values")
        if kind == MarkKind.POLYLINE and len(self.xs) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        if kind == MarkKind.QUADRATIC and len(self.xs) != 3:
            raise ValueError("quadratic needs exactly 3 control points")
        if (kind == MarkKind.POINT or kind == MarkKind.TEXT) and len(self.xs) != 1:
            raise ValueError(f"{kind} needs exactly 1 anchor point")
        if kind == MarkKind.POINT and self.size <= 0:
            raise ValueError(f"point size must be positive, got {self.size}")

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The (x, y) pairs of the columns."""
        return tuple(zip(self.xs, self.ys))


def polyline(xs, ys, style: Style) -> Mark:
    return Mark(kind=MarkKind.POLYLINE, xs=tuple(xs), ys=tuple(ys), style=style)


def quadratic(xs, ys, style: Style) -> Mark:
    """The quadratic Bezier curve with control points (xs[i], ys[i])."""
    return Mark(kind=MarkKind.QUADRATIC, xs=tuple(xs), ys=tuple(ys), style=style)


def point(x: float, y: float, style: Style, size: float = 3.0) -> Mark:
    return Mark(kind=MarkKind.POINT, xs=(x,), ys=(y,), style=style, size=size)


def text(x: float, y: float, label: str, style: Style) -> Mark:
    return Mark(kind=MarkKind.TEXT, xs=(x,), ys=(y,), text=label, style=style)


def vline(x: float, style: Style) -> Mark:
    return Mark(kind=MarkKind.VLINE, value=x, style=style)


def hline(y: float, style: Style) -> Mark:
    return Mark(kind=MarkKind.HLINE, value=y, style=style)


Panel = namedtuple("Panel", "space marks title", defaults=("",))


Scene = namedtuple("Scene", "panels")


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _clip_segment(p0, p1, box):
    """Liang-Barsky clip of segment p0-p1 to box=(x0,y0,x1,y1), in exact
    arithmetic.  Returns the clipped segment, or None if it is fully
    outside or an end is not finite (a NaN or infinite vertex leaves a
    gap).  An end the clip does not move is the vertex itself; a moved
    end lies on the edge that moved it, with the other coordinate of the
    exact crossing rounded once, so it is in the box and on the segment."""
    x0, y0 = p0
    x1, y1 = p1
    bx0, by0, bx1, by1 = box
    # both ends beyond one edge: nothing of the segment is in the box
    if max(x0, x1) < bx0 or min(x0, x1) > bx1 or max(y0, y1) < by0 or min(y0, y1) > by1:
        return None
    if not all(map(math.isfinite, p0 + p1)):
        return None
    # (axis, value, +1 for a lower bound)
    edges = ((0, bx0, 1), (0, bx1, -1), (1, by0, 1), (1, by1, -1))
    # every value is exactly an integer over scale
    ratios = [v.as_integer_ratio() for v in (x0, y0, x1, y1, bx0, bx1, by0, by1)]
    scale = max([den for _, den in ratios])
    ints = [n * (scale // den) for n, den in ratios]
    a, b = ints[0:2], ints[2:4]
    # t0 = n0/d0 and t1 = n1/d1, d0 and d1 positive
    n0, d0, n1, d1 = 0, 1, 1, 1
    moved0 = moved1 = None
    for (axis, value, sign), edge in zip(edges, ints[4:]):
        # inside this edge where t*p <= q, the point at t being a + t*(b - a)
        p = sign * (a[axis] - b[axis])
        q = sign * (a[axis] - edge)
        if p < 0:  # t >= q/p = -q/-p
            if -q * d1 > n1 * -p:
                return None
            if -q * d0 > n0 * -p:
                n0, d0, moved0 = -q, -p, (axis, value)
        else:  # t <= q/p; where p = 0, q >= 0 by the test above, so neither holds
            if q * d0 < n0 * p:
                return None
            if q * d1 < n1 * p:
                n1, d1, moved1 = q, p, (axis, value)
    start = p0 if moved0 is None else _crossing(a, b, n0, d0, scale, *moved0)
    end = p1 if moved1 is None else _crossing(a, b, n1, d1, scale, *moved1)
    return start, end


def _crossing(a, b, n, d, scale, axis, value):
    """The point at t = n/d on the segment a-b (integers over scale), with
    value, the edge it crosses, on the axis: the other coordinate is the
    exact one rounded once, as int / int rounds."""
    other = 1 - axis
    at = (a[other] * d + n * (b[other] - a[other])) / (d * scale)
    return (value, at) if axis == 0 else (at, value)


def _blossom(u, t0, t1) -> float:
    """The blossom at (s0, s1) of one coordinate u = (u0, uc, u1) of a
    quadratic Bezier curve: its point at s where s0 = s1 = s, and the
    control point of its piece from s0 to s1.  Each parameter is a pair
    t = (s, 1 - s), so that the one of the two that is small is exact."""
    (s0, r0), (s1, r1) = t0, t1
    return r0 * r1 * u[0] + (r0 * s1 + s0 * r1) * u[1] + s0 * s1 * u[2]


def _roots(a: float, b: float, c: float) -> list[float]:
    """The real roots of a*s^2 + b*s + c = 0 in the stable form, q/a and
    c/q with q = -(b + sign(b) sqrt(b^2 - 4ac))/2: no root is taken as a
    difference of nearly equal terms."""
    if a == 0.0:
        return [-c / b] if b else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q else [0.0]


def _clip_quadratic(p0, c, p1, box):
    """The pieces of the quadratic Bezier curve p0-c-p1 (pixels) inside
    box = (x0, y0, x1, y1), as (t0, t1, start, control, end), each t the
    pair (s, 1 - s): the curve B(s) = (1-s)^2 p0 + 2s(1-s) c + s^2 p1 on
    [s0, s1], 0 <= s0 < s1 <= 1, is the Bezier curve start-control-end,
    whose control point is the blossom at (s0, s1).  Nothing for a NaN or
    infinite control point.  A coordinate crosses an edge only at a root
    of a quadratic in s (or in 1 - s), so each in-box interval between
    those roots is one piece.  An end at s = 0 or 1 is p0 or p1; an end
    the clip moves lies exactly on the edge that moved it, its other
    coordinate clamped into the box, so every end is in the box."""
    pts = (*p0, *c, *p1)
    if not all(map(math.isfinite, pts)):
        return []
    bx0, by0, bx1, by1 = box
    xs, ys = pts[0::2], pts[1::2]
    # scaled by a power of two, so that no square below overflows
    scale = 2.0 ** -max(0, math.frexp(max(map(abs, pts)))[1] - 500)
    axes = [([v * scale for v in col], lo, hi) for col, lo, hi in ((xs, bx0, bx1), (ys, by0, by1))]
    # (t, axis, edge) of the two ends and of each crossing; each root is
    # taken in s and again in 1 - s: near s = 1 only the second resolves
    # it, and the sliver between two copies of one root lies on one side
    cuts = [((0.0, 1.0), 0, None), ((1.0, 0.0), 0, None)]
    for axis, (u, lo, hi) in enumerate(axes):
        a = u[0] - 2.0 * u[1] + u[2]
        for edge in (lo, hi):
            e = edge * scale
            forward = _roots(a, 2.0 * (u[1] - u[0]), u[0] - e)
            backward = _roots(a, 2.0 * (u[1] - u[2]), u[2] - e)
            cuts += [((s, 1.0 - s), axis, edge) for s in forward if 0.0 < s < 1.0]
            cuts += [((1.0 - r, r), axis, edge) for r in backward if 0.0 < r < 1.0]
    cuts.sort(key=lambda cut: (cut[0][0], -cut[0][1]))
    runs = []  # the first and last cut of each in-box run of intervals
    for first, last in zip(cuts, cuts[1:]):
        (s0, r0), (s1, r1) = first[0], last[0]
        mid = (0.5 * (s0 + s1), 0.5 * (r0 + r1))
        inside = all(lo * scale <= _blossom(u, mid, mid) <= hi * scale for u, lo, hi in axes)
        if (s0, -r0) < (s1, -r1) and inside:
            if runs and runs[-1][1][0] == first[0]:
                runs[-1][1] = last
            else:
                runs.append([first, last])
    pieces = []
    for first, last in runs:
        ends = []
        for t, axis, edge in (first, last):
            if edge is None:
                point = p0 if t[0] == 0.0 else p1
            else:
                point = [_blossom(u, t, t) / scale for u, _, _ in axes]
            end = [min(max(v, lo), hi) for v, (_, lo, hi) in zip(point, axes)]
            if edge is not None:
                end[axis] = edge
            ends.append(tuple(end))
        control = tuple([_blossom(u, first[0], last[0]) / scale for u, _, _ in axes])
        if all(map(math.isfinite, control)):  # infinite only within ulps of the float range
            pieces.append((first[0], last[0], ends[0], control, ends[1]))
    return pieces


# given points of the canvas, none negative, so none needs _fmt's "-0.000" rule
def _rect(box, attrs: str = "") -> str:
    x0, y0, x1, y1 = box
    return '<rect x="%.3f" y="%.3f" width="%.3f" height="%.3f"%s/>' % (
        x0, y0, x1 - x0, y1 - y0, attrs
    )


def _panel_rects(spaces) -> list[tuple[float, float, float, float]]:
    """Each rectangle (x, y, width, height) of panels that draw these spaces.
    One panel fills the canvas.  Panels that share the x axis (its variable
    and range) but not all the y variable are stacked in equal heights, so
    their x axes line up; any others sit side by side in equal widths, so
    panels in one space can be compared.  LayoutError where the margins
    leave no viewport."""
    w, h = SIZE
    n = len(spaces)
    if n <= 1:
        return [(0.0, 0.0, w, h)] * n
    first, *rest = spaces
    shared_x = all((s.x_var, s.x_range) == (first.x_var, first.x_range) for s in rest)
    stacked = shared_x and any(s.y_var != first.y_var for s in rest)
    cw, ch = (w, h / n) if stacked else (w / n, h)
    vw, vh = cw - MARGIN_LEFT - MARGIN_RIGHT, ch - MARGIN_TOP - MARGIN_BOTTOM
    if not (vw > 0 and vh > 0):
        size = f"{_fmt(vw)} x {_fmt(vh)}"
        layout = "stacked_shared_x" if stacked else "side_by_side"
        raise LayoutError(f"{n} {layout} panels leave a {size} px viewport")
    return [(0.0, i * ch, w, ch) if stacked else (i * cw, 0.0, cw, h) for i in range(n)]


_FRAMES: dict = {}  # rectangle -> _frame(rectangle): 65 at most (see _panel_rects)


def _frame(rect) -> tuple:
    """A panel rectangle's viewport (the rectangle less margins), clip and
    border <rect>s, and title and frame templates with its own numbers
    written, once per rectangle: a figure set's 11 panels share 5.  The
    low tick labels sit at the viewport's corner, as v - d0 is 0 there."""
    if rect not in _FRAMES:
        px, py, pw, ph = rect
        box = vx0, vy0, vx1, vy1 = (
            px + MARGIN_LEFT, py + MARGIN_TOP, px + pw - MARGIN_RIGHT, py + ph - MARGIN_BOTTOM)
        mid_x, mid_y = (vx0 + vx1) / 2, (vy0 + vy1) / 2
        _FRAMES[rect] = (
            box,
            _rect(box),
            _rect(box, ' stroke="#000000" stroke-width="1.000" fill="none"'),
            _TITLE % (mid_x, py + 18.0, "%s"),
            _FRAME % (mid_x, vy1 + 30.0, px + 14.0, mid_y, px + 14.0, mid_y,
                      vx0, vy1 + 14.0, vy1 + 14.0, vx0 - 4.0, vy1 + 3.0, vx0 - 4.0),
        )
    return _FRAMES[rect]


def viewports(spaces) -> list[tuple[float, float]]:
    """Each viewport (width, height) of panels that draw these spaces: the box render_svg clips to."""
    return [(x1 - x0, y1 - y0) for x0, y0, x1, y1 in (_frame(r)[0] for r in _panel_rects(spaces))]


def _render_panel(out: list[str], panel: Panel, rect, clip_id: str) -> None:
    box, _, border, title, frame = _frame(rect)
    vx0, vy0, vx1, vy1 = box
    space = panel.space
    (xd0, xd1), (yd0, yd1) = space.x_range, space.y_range
    # each axis's affine map onto its pixels, extrapolated (y grows downward):
    # v to p0 + (v - d0) * k / w, d0 the range's start at pixel p0, k and w the spans
    xk, xw, yk, yw = vx1 - vx0, xd1 - xd0, vy0 - vy1, yd1 - yd0
    axes = xd0, vx0, xk, xw, yd0, vy1, yk, yw

    out.append(border)
    if panel.title:
        out.append(title % _escape(panel.title))
    x_label, y_label = (_escape(f"{name} ({unit})") for name, unit in (space.x_var, space.y_var))
    out.append(frame % (
        x_label, y_label, _fmt(xd0), vx0 + (xd1 - xd0) * xk / xw, _fmt(xd1),
        _fmt(yd0), vy1 + (yd1 - yd0) * yk / yw + 3.0, _fmt(yd1), clip_id))
    for mark in panel.marks:
        _render_mark(out, mark, axes, box)
    out.append("</g>")


def _shown(xs, ys) -> bool:
    """Whether a piece with the written points xs, ys (pixels) is written:
    not where they span under 0.0005 px, half a printed unit, both ways."""
    return max(xs) - min(xs) >= 0.0005 or max(ys) - min(ys) >= 0.0005


def _render_mark(out: list[str], mark: Mark, axes, box) -> None:
    vx0, vy0, vx1, vy1 = box
    # every map inlined in the one operand order, so the bits match
    xd0, xr0, xk, xw, yd0, yr0, yk, yw = axes
    if (kind := mark.kind) == MarkKind.POLYLINE:
        px = [xr0 + (x - xd0) * xk / xw for x in mark.xs]
        py = [yr0 + (y - yd0) * yk / yw for y in mark.ys]
        flat = [0.0] * (2 * len(px))  # the pixels interleaved, x then y
        flat[::2], flat[1::2] = px, py
        x_lo, x_hi, y_lo, y_hi = min(px), max(px), min(py), max(py)
        # a finite sum has no NaN or infinite term, so min and max decide
        # "every pixel inside the box" as the test per vertex does
        if math.isfinite(sum(flat)) and vx0 <= x_lo and x_hi <= vx1 and vy0 <= y_lo and y_hi <= vy1:
            pieces = [flat] if _shown((x_lo, x_hi), (y_lo, y_hi)) else []
        else:
            # clipped segment by segment so no coordinate escapes the viewport; a
            # segment with both ends inside is its own clip, as rounded subtraction
            # and division are monotone and keep Liang-Barsky's t0 = 0, t1 = 1
            inside = [vx0 <= x <= vx1 and vy0 <= y <= vy1 for x, y in zip(px, py)]
            pieces = []  # interleaved x, y lists; a part joins the last where it starts at its end
            for i in range(len(px) - 1):
                part = flat[2 * i : 2 * i + 4]
                if not (inside[i] and inside[i + 1]):
                    if (clipped := _clip_segment(part[:2], part[2:], box)) is None:
                        continue
                    part = [*clipped[0], *clipped[1]]
                if pieces and pieces[-1][-2:] == part[:2]:
                    pieces[-1] += part[2:]
                else:
                    pieces.append(part)
            pieces = [p for p in pieces if _shown(p[0::2], p[1::2])]
        attrs = _STROKES[mark.style]
        for flat in pieces:
            # one % per piece; every coordinate lies in the viewport, so
            # none is negative and none needs _fmt's "-0.000" rule
            coords = ("%.3f,%.3f " * (len(flat) // 2))[:-1] % tuple(flat)
            out.append(f'<polyline points="{coords}" {attrs}/>')
    elif kind == MarkKind.QUADRATIC:
        x0, cx, x1 = [xr0 + (x - xd0) * xk / xw for x in mark.xs]
        y0, cy, y1 = [yr0 + (y - yd0) * yk / yw for y in mark.ys]
        # a curve lies in the convex hull of its control points, so with all
        # six in the box (none NaN) it is its own clip, and none is negative
        attrs = _STROKES[mark.style]
        if (vx0 <= x0 <= vx1 and vx0 <= cx <= vx1 and vx0 <= x1 <= vx1
                and vy0 <= y0 <= vy1 and vy0 <= cy <= vy1 and vy0 <= y1 <= vy1):
            if _shown((x0, cx, x1), (y0, cy, y1)):
                out.append(_CURVE % (x0, y0, cx, cy, x1, y1, attrs))
        else:
            # every end lies in the viewport, so only a control point may be negative
            for *_, (x0, y0), (cx, cy), (x1, y1) in _clip_quadratic((x0, y0), (cx, cy), (x1, y1), box):
                if _shown((x0, cx, x1), (y0, cy, y1)):
                    d = f"M{x0:.3f},{y0:.3f} Q{_fmt(cx)},{_fmt(cy)} {x1:.3f},{y1:.3f}"
                    out.append(f'<path d="{d}" {attrs}/>')
    elif kind == MarkKind.POINT:
        x, y = xr0 + (mark.xs[0] - xd0) * xk / xw, yr0 + (mark.ys[0] - yd0) * yk / yw
        if vx0 <= x <= vx1 and vy0 <= y <= vy1:
            out.append(
                '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="%s" stroke="none"/>'
                % (x, y, mark.size, PALETTE[mark.style.color_role])
            )
    elif kind == MarkKind.TEXT:
        x, y = xr0 + (mark.xs[0] - xd0) * xk / xw, yr0 + (mark.ys[0] - yd0) * yk / yw
        # a NaN anchor is dropped, as a NaN POINT is; the clamp below would
        # keep it, and it keeps an infinite one on the edge
        if not (math.isnan(x) or math.isnan(y)):
            x, y = min(max(x, vx0), vx1), min(max(y, vy0), vy1)
            out.append(_LABEL % (x, y, PALETTE[mark.style.color_role], _escape(mark.text)))
    elif kind == MarkKind.VLINE:
        x = xr0 + (mark.value - xd0) * xk / xw
        if vx0 <= x <= vx1:
            out.append(_LINE % (x, vy0, x, vy1, _STROKES[mark.style]))
    elif kind == MarkKind.HLINE:
        y = yr0 + (mark.value - yd0) * yk / yw
        if vy0 <= y <= vy1:
            out.append(_LINE % (vx0, y, vx1, y, _STROKES[mark.style]))


# the document up to its clip paths, whose size is fixed, then the white background
_HEAD = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         'width="%.3f" height="%.3f" viewBox="0.000 0.000 %.3f %.3f">\n<defs>' % (SIZE * 2))
_BACKGROUND = "</defs>\n" + _rect((0.0, 0.0, *SIZE), ' fill="#FFFFFF" stroke="none"')


def render_svg(scene: Scene) -> bytes:
    """Render a scene to a standalone SVG 1.1 document."""
    rects = _panel_rects([p.space for p in scene.panels])
    clips = [f'<clipPath id="panel-{i}">{_frame(r)[1]}</clipPath>' for i, r in enumerate(rects)]
    out = [_HEAD, *clips, _BACKGROUND]
    for i, (panel, rect) in enumerate(zip(scene.panels, rects)):
        _render_panel(out, panel, rect, f"panel-{i}")
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def export_figures(scenes, directory: str) -> list[str]:
    """Write scenes as figure_01.svg, figure_02.svg, ... in order into
    directory; their paths, joined by os.path.join."""
    paths = []
    for i, scene in enumerate(scenes, start=1):
        path = os.path.join(directory, f"figure_{i:02d}.svg")
        _write_file(path, render_svg(scene), "figure")
        paths.append(path)
    return paths
