"""Golden audit of the drawn trajectories: every <path> of figures 2 and 3
recomputed from the model in 50-digit `decimal`.

Each trajectory is the parabola x = vx t, y = a + vy t - g t^2 / 2 from
t = 0 to t_end, the earlier of the hoop plane and the floor, with
(vx, vy) = v (cos, sin) of the float launch angle and speed (the sine and
cosine of `tests/oracles.py`).  As a quadratic Bezier curve its control
points are P0 = (0, a), C = P0 + t_end/2 (vx, vy) and P1 = (vx, vy) t_end
- (0, g t_end^2 / 2) + P0; each panel maps them to pixels by the exact
affine map of its ranges onto its viewport, read from the <clipPath>.
The viewport cuts the curve at the roots of one quadratic in s per edge;
each in-box s-interval [s0, s1] is one drawn piece, its ends on the curve
and its control point the blossom at (s0, s1).  Every `%.3f` written
must be that exact value, correctly rounded, except within TIE of a tie,
where the float computation may round the other way.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from pathlib import Path


from hoopshot import solver
from hoopshot.figures import DEMO_ANGLE, ONE_SHOT_SPEED, build_basketball_ladder
from hoopshot.render import render_svg
from oracles import decimal_sin_cos
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
    bx0, by0, bx1, by1 = map(Decimal, box)
    (xd0, xd1), (yd0, yd1) = (map(Decimal, r) for r in (space.x_range, space.y_range))
    # y grows downward: the data range maps onto the pixels from bottom to top
    return [
        (bx0 + (x - xd0) * (bx1 - bx0) / (xd1 - xd0), by1 + (y - yd0) * (by0 - by1) / (yd1 - yd0))
        for x, y in points
    ]


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
                    want += [(piece, colour) for piece in exact_pieces(controls, box)]
                assert len(drawn) == len(want), (number, len(drawn), len(want))
                for (texts, colour), (exact, want_colour) in zip(drawn, want):
                    assert colour == want_colour
                    for text, value in zip(texts, exact):
                        assert three_places(value) in (text, None), (number, texts, value)
                        checked += 1
    return checked


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
