"""Golden audit of the drawn model: the court of figures 1-3, every
<path> of figures 2 and 3, every polyline, circle and line of figures 4
and 5, and every polyline of figures 6 and 7, recomputed from the model
in 50-digit `decimal`.

The court is the same in each panel of figures 1-3: the floor, the
release post, the hoop's post and rim (black polylines), the release dot
and the three black labels, at the points `figures._court_marks` places
them, taken exactly from the float scenario and its float offsets.  Each
line is axis-aligned, so the viewport cuts it by clamping the coordinate
that varies; a label is clamped into the viewport.  Every `%.3f` of them
must be the exact pixel, correctly rounded, as below.

Each trajectory is the parabola x = vx t, y = a + vy t - g t^2 / 2 from
t = 0 to t_end, the earlier of the hoop plane and the floor, with
(vx, vy) = v (cos, sin) of the float launch angle and speed (the sine and
cosine of `tests/oracles.py`).  As a quadratic Bezier curve its control
points are P0 = (0, a), C = P0 + t_end/2 (vx, vy) and P1 = (vx, vy) t_end
- (0, g t_end^2 / 2) + P0; each panel maps them to pixels by the exact
affine map of its ranges onto its viewport, read from the <clipPath>.
The viewport cuts the curve at the roots of one quadratic in s per edge;
each in-box s-interval [s0, s1] is one drawn piece, its ends on the curve
and its control point the blossom at (s0, s1), written unless its
points span under 0.0005 px both ways, as `render._shown` rules.  Every
`%.3f` written must be that exact value, correctly rounded, except
within TIE of a tie, where the float computation may round the other
way.

Figures 4 and 5 draw the required speed v(theta) as one blue polyline
per panel.  Each vertex is drawn at x = math.degrees(theta), theta the
radian float its speed was taken at: its x must be written as x, and
its y as the exact speed at one of the floats theta with
math.degrees(theta) == x, correctly rounded.  (Read at the real angle
x pi/180 instead, a vertex beside 90 degrees can be 1e-16 rad from its
theta, where the speed moves by metres per second.)  Between two
vertices, GRID exact points of the curve, read at x pi/180, must lie
within CURVE_SLACK of the written segment:
the 0.1 px the sampler promises, plus the rounding of the segment's ends.
The curve is clipped to the viewport one segment at a time, as `render`
clips it: an end outside it is written at the crossing of the edge, by
the segment between the exact vertices, and of a segment so clipped only
the GRID points in the viewport are checked.  The blue dot (the stage-3 shot),
the green dot (the optimum), the dashed feasibility line and the dotted
optimum lines must be the correctly rounded pixels of their exact
values; one within TIE of an edge may be written or left out.

Figures 6 and 7 draw theta*(d) in degrees and v*(d) as one green polyline
per release altitude in each of their two panels.  Each vertex, at its
float distance, must be written as the exact optimum there
(`decimal_optimum`), correctly rounded, and between two vertices GRID
exact points of each curve must lie within VERTICAL_SLACK of the chord
of the exact vertices, measured up the panel: the gap their step rule
bounds, which can exceed the perpendicular one many times over where a
curve is steep.

Run as `PYTHONPATH=src python tests/test_golden_audit.py DIR [FLAGS]`, it
audits a directory that `figures --out DIR [FLAGS]` wrote, FLAGS being
the same --scenario and parameter flags, and exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from pathlib import Path

import pytest

from hoopshot import solver
from hoopshot.cli import PARAM_FIELDS, build_parser, load_scenario, run
from hoopshot.figures import DEMO_ANGLE, ONE_SHOT_SPEED, build_basketball_ladder
from hoopshot.kinematics import ShotParams
from hoopshot.render import PALETTE, MarkKind, render_svg
from oracles import decimal_atan, decimal_optimum, decimal_pi, decimal_required_velocity
from oracles import decimal_sin_cos, ulps
from test_cli import FAN_SCENARIO
from test_figures import PINNED_SETS
from test_render import clip_rects

GOLDEN = Path(__file__).parent / "golden"
# each piece: start, control point, end, and its stroke colour
PATH = re.compile(r'<path d="M(\S+),(\S+) Q(\S+),(\S+) (\S+),(\S+)" stroke="(#[0-9A-F]{6})"')
RED, BLUE = "#CC0000", "#0000CC"
# how near a tie a written number may round either way: 16 ulps of the
# 600 px canvas.  Coordinates cancel terms of up to the canvas size, so
# their float error scales with it: on these sets and 60 random scenarios
# each value came within 3.7 such ulps of the exact one
TIE = 16 * Decimal(math.ulp(600.0))
DIGITS = 50
# exact points of the required-speed curve audited inside each segment
GRID = 8
# how far those may lie from the written segment: the sampler's 0.1 px,
# and the rounding of each end of the segment by up to 0.0005 px per axis
CURVE_SLACK = Decimal("0.1") + Decimal("0.0005") * Decimal(2).sqrt()
# how far an exact point of a stage-5 curve may lie above or below the
# chord of the exact vertices beside it: 0.1 px, and the float rounding of
# the step rule, far under a printed unit
VERTICAL_SLACK = Decimal("0.1") + Decimal("1e-9")
HALF_UNIT = Decimal("0.0005")


def drawn_pieces(svg: str) -> list[list[tuple]]:
    """Per panel, the (six numbers, colour) of each <path>, in order."""
    groups = svg.split('<g clip-path="url(#panel-')[1:]
    return [[(m[:6], m[6]) for m in PATH.findall(group)] for group in groups]


def launch_speeds(kwargs: dict) -> tuple:
    """The float launch angle of figures 2 and 3, and per panel of each,
    the (speed, colour) of each trajectory it draws, in order."""
    params = kwargs.get("params") or solver.ShotParams()
    velocities = kwargs.get("velocities", solver.DEFAULT_VELOCITIES)
    feasibility = solver.feasibility_angle(params)
    angle = DEMO_ANGLE if DEMO_ANGLE > feasibility else solver.optimal_angle(params).angle
    fan = [(float(v), RED) for v in velocities]
    v_solution = solver.required_velocity(params, angle)
    return angle, [[(ONE_SHOT_SPEED, RED)], fan], [fan + [(v_solution, BLUE)]]


def pixel_map(space, box):
    """The exact affine maps of the panel's data x and y onto its viewport:
    y grows downward, so the data range maps onto the pixels bottom to top."""
    bx0, by0, bx1, by1 = map(Decimal, box)
    (xd0, xd1), (yd0, yd1) = (map(Decimal, r) for r in (space.x_range, space.y_range))
    return (
        lambda x: bx0 + (x - xd0) * (bx1 - bx0) / (xd1 - xd0),
        lambda y: by1 + (y - yd0) * (by0 - by1) / (yd1 - yd0),
    )


def exact_controls(params, angle: float, speed: float, space, box) -> list[tuple[Decimal, Decimal]]:
    """The trajectory's three control points in pixels, exactly."""
    a, d, _, g = map(Decimal, params)
    sin, cos = decimal_sin_cos(Decimal(angle))
    vx, vy = Decimal(speed) * cos, Decimal(speed) * sin
    t_end = min(d / vx, (vy + (vy * vy + 2 * g * a).sqrt()) / g)
    points = [
        (Decimal(0), a),
        (vx * t_end / 2, a + vy * t_end / 2),
        (vx * t_end, a + vy * t_end - g * t_end * t_end / 2),
    ]
    px, py = pixel_map(space, box)
    return [(px(x), py(y)) for x, y in points]


def blossom(u, s0, s1):
    return (1 - s0) * (1 - s1) * u[0] + ((1 - s0) * s1 + s0 * (1 - s1)) * u[1] + s0 * s1 * u[2]


def roots(a, b, c) -> list[Decimal]:
    """The real roots of a s^2 + b s + c = 0 (stable form)."""
    if a == 0:
        return [-c / b] if b else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    q = -(b + disc.sqrt().copy_sign(b)) / 2
    return [q / a, c / q] if q else [Decimal(0)]


def exact_pieces(controls, box) -> list[tuple[Decimal, ...]]:
    """The six coordinates (start, control point, end) of each in-box
    piece of the Bezier curve with these control points."""
    bx0, by0, bx1, by1 = map(Decimal, box)
    axes = [([p[i] for p in controls], lo, hi) for i, lo, hi in ((0, bx0, bx1), (1, by0, by1))]
    cuts = [(Decimal(0), None), (Decimal(1), None)]
    for axis, (u, lo, hi) in enumerate(axes):
        a, b = u[0] - 2 * u[1] + u[2], 2 * (u[1] - u[0])
        for edge in (lo, hi):
            cuts += [(s, (axis, edge)) for s in roots(a, b, u[0] - edge) if 0 < s < 1]
    cuts.sort(key=lambda cut: cut[0])
    runs = []
    for (s0, e0), (s1, e1) in zip(cuts, cuts[1:]):
        mid = (s0 + s1) / 2
        if s0 < s1 and all(lo <= blossom(u, mid, mid) <= hi for u, lo, hi in axes):
            if runs and runs[-1][2] == s0:
                runs[-1][2:] = [s1, e1]
            else:
                runs.append([s0, e0, s1, e1])

    def on_curve(s, edge):
        point = [blossom(u, s, s) for u, _, _ in axes]
        if edge is not None:
            point[edge[0]] = edge[1]
        return point

    return [
        (*on_curve(s0, e0), *(blossom(u, s0, s1) for u, _, _ in axes), *on_curve(s1, e1))
        for s0, e0, s1, e1 in runs
    ]


def shown(points) -> bool:
    """render._shown of exact pixels (X, Y): a piece is written unless its
    points span under 0.0005 px, half a printed unit, both ways."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    return max(xs) - min(xs) >= HALF_UNIT or max(ys) - min(ys) >= HALF_UNIT


def three_places(exact: Decimal) -> str | None:
    """exact rounded half-even to 3 decimals, as %.3f writes a float, or
    None within TIE of a tie."""
    tie = exact.quantize(Decimal("1e-3"), rounding=ROUND_FLOOR) + Decimal("5e-4")
    if abs(exact - tie) <= TIE:
        return None
    text = f"{exact.quantize(Decimal('1e-3'), rounding=ROUND_HALF_EVEN):f}"
    return "0.000" if text == "-0.000" else text


def audit(svgs: dict[int, str], kwargs: dict) -> int:
    """Assert every <path> of figures 2 and 3 against the exact curves;
    the number of values checked."""
    params = kwargs.get("params") or solver.ShotParams()
    _, scenes = build_basketball_ladder(**kwargs)
    angle, *per_figure = launch_speeds(kwargs)
    checked = 0
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for number, shots in zip((2, 3), per_figure):
            svg = svgs[number]
            # each panel's viewport (x, y, width, height), as its <clipPath> draws it
            rects = clip_rects(svg)
            for panel, rect, drawn, panel_shots in zip(
                scenes[number - 1].panels, rects, drawn_pieces(svg), shots, strict=True
            ):
                x, y, width, height = rect
                box = (x, y, x + width, y + height)
                want = []
                for speed, colour in panel_shots:
                    controls = exact_controls(params, angle, speed, panel.space, box)
                    pieces = exact_pieces(controls, box)
                    want += [(p, colour) for p in pieces if shown([p[0:2], p[2:4], p[4:6]])]
                assert len(drawn) == len(want), (number, len(drawn), len(want))
                for (texts, colour), (exact, want_colour) in zip(drawn, want):
                    assert colour == want_colour
                    for text, value in zip(texts, exact):
                        assert three_places(value) in (text, None), (number, texts, value)
                        checked += 1
    return checked


# each <polyline>, <circle> and <line> a panel draws: its tag and attributes
ELEMENT = re.compile(r"<(polyline|circle|line) ([^>]*)/>")
ATTRIBUTE = re.compile(r'([\w-]+)="([^"]*)"')


def drawn_elements_of(group: str) -> list[tuple[str, dict]]:
    """The (tag, attributes) of each polyline, circle and line of a panel."""
    return [(m[1], dict(ATTRIBUTE.findall(m[2]))) for m in ELEMENT.finditer(group)]


def drawn_elements(svg: str) -> list[list[tuple[str, dict]]]:
    """Per panel, the (tag, attributes) of each polyline, circle and line."""
    groups = svg.split('<g clip-path="url(#panel-')[1:]
    return [drawn_elements_of(group.split("</g>")[0]) for group in groups]


def exact_marks(params, angle: float) -> dict:
    """The exact value of each mark of figures 4 and 5 but the curve, by
    kind and colour: the dots' (angle in degrees, speed), the vertical
    lines' angle and the horizontal line's speed."""
    a, d, h, g = params
    degree = 180 / decimal_pi()
    theta, v_star = decimal_optimum(a, d, h, g)
    v_solution = decimal_required_velocity(*params, angle)
    return {
        (MarkKind.POINT, "#0000CC"): (Decimal(angle) * degree, v_solution),
        (MarkKind.POINT, "#00AA00"): (theta * degree, v_star),
        (MarkKind.VLINE, "#000000"): decimal_atan((Decimal(h) - Decimal(a)) / Decimal(d)) * degree,
        (MarkKind.VLINE, "#00AA00"): theta * degree,
        (MarkKind.HLINE, "#00AA00"): v_star,
    }


def float_angles(x: float) -> list[float]:
    """The radian floats theta with math.degrees(theta) == x, searched
    four floats either side of math.radians(x)."""
    near = [math.radians(x)]
    for toward in (-math.inf, math.inf):
        theta = near[0]
        for _ in range(4):
            theta = math.nextafter(theta, toward)
            near.append(theta)
    return [theta for theta in near if math.degrees(theta) == x]


def exact_curve(params, xs) -> tuple[list, list]:
    """At each vertex of the drawn curve, its float angle in degrees and the
    exact speeds at each of its radian floats that has one; and GRID exact
    (angle, speed) points of the curve evenly between each vertex and the
    next."""
    radian = decimal_pi() / 180
    on_curve = lambda x: (x, decimal_required_velocity(*params, x * radian))

    def vertex(x: float) -> tuple[Decimal, list[Decimal]]:
        speeds = []
        for theta in float_angles(x):
            try:
                speeds.append(decimal_required_velocity(*params, theta))
            except ArithmeticError:  # a float at or below the feasibility angle
                pass
        return Decimal(x), speeds

    between = [
        [on_curve(x0 + (x1 - x0) * i / (GRID + 1)) for i in range(1, GRID + 1)]
        for x0, x1 in zip(map(Decimal, xs), map(Decimal, xs[1:]))
    ]
    return [vertex(x) for x in xs], between


def segment_distance(p, a, b) -> Decimal:
    """The distance from point p to the segment a-b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy) if dx or dy else 0
    t = min(max(t, Decimal(0)), Decimal(1))
    return ((p[0] - a[0] - t * dx) ** 2 + (p[1] - a[1] - t * dy) ** 2).sqrt()


def clip_segment(a, b, box) -> list | None:
    """Liang-Barsky, exactly: the (t, edge) of each end of the part of the
    segment a-b in box, edge the (axis, value) that moved the end or None;
    None where no part is in it."""
    ends = [(0, None), (1, None)]
    for axis in (0, 1):
        for value, sign in ((box[axis], 1), (box[axis + 2], -1)):
            # inside this edge where t p >= q
            p, q = sign * (b[axis] - a[axis]), sign * (value - a[axis])
            if p == 0 and q > 0:
                return None
            if p > 0 and q / p > ends[0][0]:
                ends[0] = (q / p, (axis, value))
            elif p < 0 and q / p < ends[1][0]:
                ends[1] = (q / p, (axis, value))
    return ends if ends[0][0] <= ends[1][0] else None


def clip_polyline(points, box) -> list[list[tuple]]:
    """The pieces render writes of the polyline through points, each point
    the list of exact pixels (X, Y) it may stand for, the first deciding
    where the clip falls.  As in render, each segment is clipped to the
    box, segments that meet at a point the clip leaves are one piece, and
    a piece spanning under 0.0005 px both ways is dropped.  A piece is its
    segments' (index, start, end, clipped), an end the clip moved being
    the crossing of its edge by each pair of the segment's points, and
    clipped whether it moved either end."""

    def crossings(p0, p1, edge):
        axis, value = edge
        found = []
        for a in p0:
            for b in p1:
                if a[axis] != b[axis]:
                    t = (value - a[axis]) / (b[axis] - a[axis])
                    found.append(tuple(value if k == axis else a[k] + t * (b[k] - a[k]) for k in (0, 1)))
        return found

    pieces, joins = [], None  # joins: the segment that may continue the last piece
    for i, (p0, p1) in enumerate(zip(points, points[1:])):
        if (ends := clip_segment(p0[0], p1[0], box)) is None:
            continue
        (_, moved0), (_, moved1) = ends
        part = (i, p0 if moved0 is None else crossings(p0, p1, moved0),
                p1 if moved1 is None else crossings(p0, p1, moved1), (moved0, moved1) != (None, None))
        if moved0 is None and joins == i:
            pieces[-1].append(part)
        else:
            pieces.append([part])
        joins = i + 1 if moved1 is None else None
    return [piece for piece in pieces if shown([piece[0][1][0]] + [end[0] for _, _, end, _ in piece])]


def assert_written(texts, values, where) -> int:
    """Each written number the exact value correctly rounded; their count."""
    assert len(texts) == len(values), (where, texts)
    for text, value in zip(texts, values):
        assert three_places(value) in (text, None), (where, text, value)
    return len(texts)


def audit_curve(svgs: dict[int, str], kwargs: dict) -> tuple[int, Decimal]:
    """Assert every polyline, circle and line of figures 4 and 5 against
    the model; the number of values checked, and the farthest an audited
    point of the exact curve in the viewport lies from its written
    segment, in pixels.  The curve is clipped as render clips it (see
    clip_polyline), and a circle or line within TIE of an edge may be
    written or not, as its float pixel falls."""
    params = kwargs.get("params") or ShotParams()
    _, scenes = build_basketball_ladder(**kwargs)
    angle = launch_speeds(kwargs)[0]
    checked, worst, curve = 0, Decimal(0), None
    with localcontext() as ctx:
        ctx.prec = DIGITS
        exact = exact_marks(params, angle)
        for number in (4, 5):
            svg = svgs[number]
            for panel, rect, drawn in zip(
                scenes[number - 1].panels, clip_rects(svg), drawn_elements(svg), strict=True
            ):
                x, y, width, height = rect
                bx0, by0, bx1, by1 = box = tuple(map(Decimal, (x, y, x + width, y + height)))
                px, py = pixel_map(panel.space, box)
                # how far inside the viewport a pixel lies, negative outside it
                depth_x, depth_y = (lambda X: min(X - bx0, bx1 - X)), (lambda Y: min(Y - by0, by1 - Y))
                want = []  # (tag, colour, exact numbers, depth) of each element drawn
                for mark in panel.marks:
                    key = (mark.kind, PALETTE[mark.style.color_role])
                    if mark.kind == MarkKind.POLYLINE:
                        # one curve, drawn in every panel of the two figures
                        vertices, between = curve = curve or exact_curve(params, mark.xs)
                        points = [[(px(x), py(v)) for v in vs] for x, vs in vertices]
                        assert all(points), (number, "a vertex with no exact speed", vertices)
                        pieces = clip_polyline(points, box)
                        want += [("polyline", key[1], piece, Decimal("Infinity")) for piece in pieces]
                    elif mark.kind == MarkKind.POINT:
                        X, Y = px(exact[key][0]), py(exact[key][1])
                        want.append(("circle", key[1], [X, Y], min(depth_x(X), depth_y(Y))))
                    elif mark.kind == MarkKind.VLINE:
                        X = px(exact[key])
                        want.append(("line", key[1], [X, by0, X, by1], depth_x(X)))
                    elif mark.kind == MarkKind.HLINE:
                        Y = py(exact[key])
                        want.append(("line", key[1], [bx0, Y, bx1, Y], depth_y(Y)))
                keys = [(t, a["fill"] if t == "circle" else a["stroke"]) for t, a in drawn]
                kept = []  # (tag, colour, exact numbers) of each element to be written
                for tag, colour, values, depth in want:
                    # within TIE of an edge: kept where the panel wrote one like it
                    if depth > TIE or depth >= -TIE and keys[len(kept) : len(kept) + 1] == [(tag, colour)]:
                        kept.append((tag, colour, values))
                assert [(t, c) for t, c, _ in kept] == keys, (number, drawn)
                for (tag, _, values), (_, attrs) in zip(kept, drawn):
                    if tag == "circle":
                        checked += assert_written([attrs["cx"], attrs["cy"]], values, number)
                    elif tag == "line":
                        texts = [attrs[k] for k in ("x1", "y1", "x2", "y2")]
                        checked += assert_written(texts, values, number)
                    else:
                        written = [p.split(",") for p in attrs["points"].split()]
                        options = [values[0][1]] + [end for _, _, end, _ in values]
                        assert len(written) == len(options), (number, written)
                        for (x_text, y_text), exacts in zip(written, options):
                            # a vertex: x, and the exact speed at one of its float
                            # angles; a moved end: the crossing by one pair of those
                            assert any(
                                three_places(X) in (x_text, None) and three_places(Y) in (y_text, None)
                                for X, Y in exacts
                            ), (number, x_text, y_text, exacts)
                            checked += 2
                        ends = [tuple(map(Decimal, p)) for p in written]
                        for a, b, (i, _, _, clipped) in zip(ends, ends[1:], values):
                            for x, v in between[i]:
                                X, Y = px(x), py(v)
                                # a clipped segment: only its points in the viewport
                                if not clipped or min(depth_x(X), depth_y(Y)) >= 0:
                                    gap = segment_distance((X, Y), a, b)
                                    assert gap <= CURVE_SLACK, (number, a, b, x, v, gap)
                                    worst = max(worst, gap)
    return checked, worst


def audit_optimum(svgs: dict[int, str], kwargs: dict) -> tuple[int, Decimal]:
    """Assert every polyline of figures 6 and 7 against theta*(d) and
    v*(d); the number of values checked, and the farthest an audited point
    of an exact curve lies above or below the chord of its exact vertices,
    in pixels."""
    params = kwargs.get("params") or ShotParams()
    a, _, h, g = params
    altitudes = kwargs.get("altitudes", solver.DEFAULT_ALTITUDES)
    _, scenes = build_basketball_ladder(**kwargs)
    checked, worst = 0, Decimal(0)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        degree = 180 / decimal_pi()
        for number, curve_altitudes in ((6, [a]), (7, altitudes)):
            svg = svgs[number]
            for column, (panel, rect, drawn) in enumerate(zip(
                scenes[number - 1].panels, clip_rects(svg), drawn_elements(svg), strict=True
            )):
                x, y, width, height = rect
                px, py = pixel_map(panel.space, (x, y, x + width, y + height))
                marks = [m for m in panel.marks if m.kind == MarkKind.POLYLINE]
                assert [t for t, _ in drawn] == ["polyline"] * len(marks), (number, drawn)
                for mark, alt, (_, attrs) in zip(marks, curve_altitudes, drawn, strict=True):

                    def on_curve(d: Decimal) -> tuple[Decimal, Decimal]:
                        optimum = decimal_optimum(alt, d, h, g)
                        return px(d), py(optimum[0] * degree if column == 0 else optimum[1])

                    points = [p.split(",") for p in attrs["points"].split()]
                    xs = [Decimal(d) for d in mark.xs]
                    exact = [on_curve(d) for d in xs]
                    flat = [v for point in exact for v in point]
                    checked += assert_written(sum(points, []), flat, number)
                    for d0, d1, (x0, y0), (x1, y1) in zip(xs, xs[1:], exact, exact[1:]):
                        for i in range(1, GRID + 1):
                            x, y = on_curve(d0 + (d1 - d0) * i / (GRID + 1))
                            gap = abs(y - y0 - (y1 - y0) * (x - x0) / (x1 - x0))
                            assert gap <= VERTICAL_SLACK, (number, d0, d1, i, gap)
                            worst = max(worst, gap)
    return checked, worst


# each black label a panel writes, as TEXT marks are written: its anchor
COURT_LABEL = re.compile(
    r'<text x="([^"]*)" y="([^"]*)" font-family="sans-serif" font-size="10.000" '
    r'text-anchor="start" fill="#000000">'
)


def court_elements(group: str) -> tuple[list, list, list]:
    """The written numbers of a panel's black polylines, of its black
    circles and of its black labels."""
    found = drawn_elements_of(group)
    lines = [sum((p.split(",") for p in a["points"].split()), []) for t, a in found
             if t == "polyline" and a["stroke"] == "#000000"]
    dots = [[a["cx"], a["cy"], a["r"]] for t, a in found if t == "circle" and a["fill"] == "#000000"]
    return lines, dots, [list(m) for m in COURT_LABEL.findall(group)]


def exact_court(params) -> tuple[list, tuple, list]:
    """The court in data units, exactly: its lines as ((x0, y0), (x1, y1)),
    the release dot, and the three labels' anchors, in drawing order."""
    a, d, h = (Decimal(v) for v in (params.release_altitude, params.distance, params.hoop_height))
    zero, (widen, rim, above, back, floor_label) = Decimal(0), map(Decimal, (1.1, 0.45, 0.35, 2.4, 0.45))
    lines = [
        ((zero, zero), (d * widen, zero)),
        ((zero, zero), (zero, a)),
        ((d, zero), (d, h)),
        ((d - rim, h), (d, h)),
    ]
    labels = [(Decimal(0.15), a + above), (d - back, h + above), (d / 2 - 1, floor_label)]
    return lines, (zero, a), labels


def audit_court(svgs: dict[int, str], kwargs: dict) -> int:
    """Assert the court's lines, release dot and labels in every panel of
    figures 1-3 against their exact pixels; the number of values checked."""
    params = kwargs.get("params") or ShotParams()
    _, scenes = build_basketball_ladder(**kwargs)
    checked = 0
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lines, dot, labels = exact_court(params)
        for number in (1, 2, 3):
            svg = svgs[number]
            groups = [g.split("</g>")[0] for g in svg.split('<g clip-path="url(#panel-')[1:]]
            for panel, rect, group in zip(scenes[number - 1].panels, clip_rects(svg), groups, strict=True):
                x, y, width, height = rect
                bx0, by0, bx1, by1 = box = tuple(map(Decimal, (x, y, x + width, y + height)))
                px, py = pixel_map(panel.space, box)
                clamp = lambda X, Y: (min(max(X, bx0), bx1), min(max(Y, by0), by1))
                want_lines = []
                for (x0, y0), (x1, y1) in lines:
                    (X0, Y0), (X1, Y1) = (px(x0), py(y0)), (px(x1), py(y1))
                    # axis-aligned: drawn where it meets the box, clamped into it,
                    # unless that leaves it under half a printed unit long
                    meets = max(X0, X1) >= bx0 and min(X0, X1) <= bx1 and max(Y0, Y1) >= by0 and min(Y0, Y1) <= by1
                    (C0, D0), (C1, D1) = clamp(X0, Y0), clamp(X1, Y1)
                    if meets and max(abs(C1 - C0), abs(D1 - D0)) >= Decimal("0.0005"):
                        want_lines.append([C0, D0, C1, D1])
                X, Y = px(dot[0]), py(dot[1])
                want_dots = [[X, Y, Decimal(3)]] if bx0 <= X <= bx1 and by0 <= Y <= by1 else []
                want_labels = [list(clamp(px(lx), py(ly))) for lx, ly in labels]
                drawn = court_elements(group)
                for texts, values in zip(drawn, (want_lines, want_dots, want_labels), strict=True):
                    assert len(texts) == len(values), (number, texts, values)
                    for written, exact in zip(texts, values):
                        checked += assert_written(written, exact, number)
    return checked


def figures_kwargs(flags: list[str]) -> dict:
    """The build_basketball_ladder arguments of `figures FLAGS`."""
    args = build_parser().parse_args(["figures", *flags])
    scenario = load_scenario(args.scenario)
    given = {k: v for k in PARAM_FIELDS.values() if (v := getattr(args, k)) is not None}
    kwargs = dict(
        params=scenario.params.replace(**given),
        velocities=scenario.velocities,
        altitudes=scenario.altitudes,
        d_grid=scenario.d_grid,
    )
    return {name: value for name, value in kwargs.items() if value is not None}


def audit_directory(directory: Path, flags: list[str]) -> str:
    """Audit figures 2-7 in a directory that `figures --out` wrote with
    these flags; one line of what was checked."""
    kwargs = figures_kwargs(flags)
    svgs = {n: (directory / f"figure_{n:02d}.svg").read_text() for n in range(1, 8)}
    court = audit_court(svgs, kwargs)
    paths = audit(svgs, kwargs)
    values, worst = audit_curve(svgs, kwargs)
    optima, optimum_worst = audit_optimum(svgs, kwargs)
    return (
        f"{directory}: {court + paths + values + optima} values exact; the exact "
        f"required-speed curve within {worst:.4f} px of its drawn segments, the exact "
        f"optimum curves within {optimum_worst:.4f} px of their chords vertically"
    )


def test_the_golden_trajectories_are_exact():
    svgs = {n: (GOLDEN / f"figure_{n:02d}.svg").read_text() for n in (2, 3)}
    # 5 + 5 curves, unclipped: 6 values each
    assert audit(svgs, {}) == 60


def test_the_pinned_fan_trajectories_are_exact():
    kwargs = PINNED_SETS["fan-leaves-the-court"][0]
    _, scenes = build_basketball_ladder(**kwargs)
    svgs = {n: render_svg(scenes[n - 1]).decode() for n in (2, 3)}
    # 13 + 13 curves, the two fastest of each fan cut at the top edge
    assert audit(svgs, kwargs) == 156


def test_the_golden_court_is_exact():
    svgs = {n: (GOLDEN / f"figure_{n:02d}.svg").read_text() for n in (1, 2, 3)}
    # in each of 4 panels: 4 lines of 4 values, the dot's 3 and 3 labels of 2
    assert audit_court(svgs, {}) == 4 * (4 * 4 + 3 + 3 * 2)


@pytest.mark.parametrize("kwargs", [kw for kw, _ in PINNED_SETS.values()], ids=PINNED_SETS)
def test_the_pinned_courts_are_exact(kwargs):
    _, scenes = build_basketball_ladder(**kwargs)
    svgs = {n: render_svg(scenes[n - 1]).decode() for n in (1, 2, 3)}
    assert audit_court(svgs, kwargs) > 0


def test_the_golden_required_speed_curve_is_exact():
    _, scenes = build_basketball_ladder()
    (curve,) = [m for m in scenes[3].panels[0].marks if m.kind == MarkKind.POLYLINE]
    assert len(curve.xs) <= 70
    # 60 vertices in each of 3 panels, 4 dots and 5 lines
    svgs = {n: (GOLDEN / f"figure_{n:02d}.svg").read_text() for n in (4, 5)}
    checked, worst = audit_curve(svgs, {})
    assert checked == 3 * 2 * 60 + 4 * 2 + 5 * 4
    assert worst <= Decimal("0.1")


@pytest.mark.parametrize("kwargs", [kw for kw, _ in PINNED_SETS.values()], ids=PINNED_SETS)
def test_the_pinned_required_speed_curves_are_exact(kwargs):
    _, scenes = build_basketball_ladder(**kwargs)
    svgs = {n: render_svg(scenes[n - 1]).decode() for n in (4, 5)}
    checked, worst = audit_curve(svgs, kwargs)
    assert checked > 0 and worst <= Decimal("0.1")


def test_a_vertex_beside_90_degrees_is_read_at_its_float_angle():
    # figure 4's high end is the crossing theta = 1.5707963267948948 rad,
    # drawn at x = math.degrees(theta); the real angle x pi/180 is 1e-16 rad
    # away, where the exact speed is over 2 m/s higher, so a vertex the
    # kernel gets right read there would be 21 px off
    params = ShotParams(
        release_altitude=708151016.2457604, distance=6.87248502792331e-09,
        hoop_height=4.719481510566221e-16, gravity=0.1447258350584183,
    )
    _, scenes = build_basketball_ladder(params)
    (curve,) = [m for m in scenes[3].panels[0].marks if m.kind == MarkKind.POLYLINE]
    theta, v = solver.speed_crossings(params, 40.0)[1], curve.ys[-1]
    assert (curve.xs[-1], v) == (math.degrees(theta), solver.required_velocity(params, theta))
    assert ulps(v, decimal_required_velocity(*params, theta)) <= 2
    with localcontext() as ctx:
        ctx.prec = DIGITS
        real = Decimal(curve.xs[-1]) * decimal_pi() / 180
        assert decimal_required_velocity(*params, real) - Decimal(v) > 2
    svgs = {n: render_svg(scenes[n - 1]).decode() for n in (4, 5)}
    checked, worst = audit_curve(svgs, {"params": params})
    assert checked > 0 and worst <= CURVE_SLACK


# two scenarios whose figures `render` writes by its rules at a panel's
# edges: the curve's last vertex is above the top, and the feasibility
# angle is a tiny negative; all of figures 1-7 are audited
EDGE_FLAGS = {
    "curve-end-above-the-top": "--altitude 318.42723076078494 --distance 13738.011810394108 "
    "--hoop-height 2.265212692678821e-13 --gravity 4.0862551445310806e-13",
    "feasibility-line-on-the-left-edge": "--altitude 1.1974532426563518e-14 "
    "--distance 42587.83493831969 --hoop-height 1.5705114235937852e-16 --gravity 21022476857.160667",
}


def test_a_curve_end_beyond_the_top_is_audited_where_render_clips_it(tmp_path):
    # the last vertex is 0.0075 px above the top, and the segment to it is
    # written up to the edge, at y = 28.000
    flags = EDGE_FLAGS["curve-end-above-the-top"].split()
    kwargs = figures_kwargs(flags)
    _, scenes = build_basketball_ladder(**kwargs)
    (curve,) = [m for m in scenes[3].panels[0].marks if m.kind == MarkKind.POLYLINE]
    assert curve.ys[-1] > 40.0 == scenes[3].panels[0].space.y_range[1]
    assert run(["figures", "--out", str(tmp_path), *flags]) == 0
    assert re.search(r'<polyline points="[^"]* 588\.000,28\.000"', (tmp_path / "figure_04.svg").read_text())
    assert "values exact" in audit_directory(tmp_path, flags)


def test_a_line_on_the_edge_and_a_piece_too_short_to_write_are_audited(tmp_path):
    # the feasibility angle, -1.6e-17 degrees, is 1e-16 px left of the
    # viewport, and its float pixel rounds onto the edge, where render
    # writes the line; figure 2's one exact piece spans about 1e-10 px,
    # under the half unit below which render writes none
    flags = EDGE_FLAGS["feasibility-line-on-the-left-edge"].split()
    kwargs = figures_kwargs(flags)
    _, scenes = build_basketball_ladder(**kwargs)
    (line,) = [m for m in scenes[3].panels[0].marks if m.kind == MarkKind.VLINE]
    assert -1e-16 < line.value < 0.0
    assert run(["figures", "--out", str(tmp_path), *flags]) == 0
    assert '<line x1="52.000" y1="28.000" x2="52.000"' in (tmp_path / "figure_04.svg").read_text()
    svg = (tmp_path / "figure_02.svg").read_text()
    assert "<path" not in svg
    angle, rect = launch_speeds(kwargs)[0], clip_rects(svg)[0]
    box = (rect[0], rect[1], rect[0] + rect[2], rect[1] + rect[3])
    with localcontext() as ctx:
        ctx.prec = DIGITS
        controls = exact_controls(kwargs["params"], angle, ONE_SHOT_SPEED, scenes[1].panels[0].space, box)
        (piece,) = exact_pieces(controls, box)
        assert not shown([piece[0:2], piece[2:4], piece[4:6]])
    assert "values exact" in audit_directory(tmp_path, flags)


def test_the_golden_optimum_curves_are_exact():
    # 1 + 3 curves of 23-24 vertices, each in two panels
    svgs = {n: (GOLDEN / f"figure_{n:02d}.svg").read_text() for n in (6, 7)}
    checked, worst = audit_optimum(svgs, {})
    assert checked == 2 * 2 * (24 + 24 + 24 + 23)
    assert worst <= VERTICAL_SLACK


@pytest.mark.parametrize("kwargs", [kw for kw, _ in PINNED_SETS.values()], ids=PINNED_SETS)
def test_the_pinned_optimum_curves_are_exact(kwargs):
    _, scenes = build_basketball_ladder(**kwargs)
    svgs = {n: render_svg(scenes[n - 1]).decode() for n in (6, 7)}
    checked, worst = audit_optimum(svgs, kwargs)
    assert checked > 0 and worst <= VERTICAL_SLACK


def run_audit(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, __file__, *argv], capture_output=True, text=True, env=env
    )


def test_the_audit_runs_on_a_figures_directory(tmp_path):
    # the goldens, and the twelve-speed fan scenario as `figures` writes it
    result = run_audit(str(GOLDEN))
    assert result.returncode == 0 and "within 0.0" in result.stdout, result.stderr
    scenario = tmp_path / "fan.json"
    scenario.write_text(json.dumps(FAN_SCENARIO))
    out_dir = tmp_path / "fan"
    assert run(["figures", "--scenario", str(scenario), "--out", str(out_dir)]) == 0
    result = run_audit(str(out_dir), "--scenario", str(scenario))
    assert result.returncode == 0, result.stderr
    # one curve vertex a thousandth of a pixel off, in figure 1, 4 or 7, fails it
    for name in ("figure_01.svg", "figure_04.svg", "figure_07.svg"):
        figure = out_dir / name
        text = figure.read_text()
        first = re.search(r'<polyline points="(\d+\.\d+),', text)
        moved = f"{Decimal(first[1]) + Decimal('0.001'):f}"
        figure.write_text(text[: first.start(1)] + moved + text[first.end(1):])
        result = run_audit(str(out_dir), "--scenario", str(scenario))
        assert result.returncode == 1 and "audit failed" in result.stderr
        figure.write_text(text)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_golden_audit.py DIR [FIGURES FLAGS]")
    try:
        print(audit_directory(Path(sys.argv[1]), sys.argv[2:]))
    except AssertionError as exc:
        sys.exit(f"audit failed: {exc!r}")
