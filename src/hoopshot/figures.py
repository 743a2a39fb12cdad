"""Builds the basketball figure sequence: the declarative ladder and the
renderer-facing scenes for its seven figures, one stage at a time.

The sequence climbs from a court diagram, through concrete trajectories,
to the hoop-reaching solution, the required-velocity curve with its
optimum, and finally the optimum as a function of distance and release
altitude.  Color roles climb with it: black court, red trajectories,
blue solution, green optimum.
"""

import math
from collections.abc import Sequence

from . import render, solver
from .kinematics import LaunchState, ShotParams, check_distance, trajectory_bezier
from .ladder import ColorRole, LadderSpec, PlotSpace, Stage, StrategyTag
from .render import (
    Dash,
    Panel,
    Scene,
    Style,
    hline,
    point,
    polyline,
    quadratic,
    text,
    vline,
)

DEMO_ANGLE = math.radians(30.0)
ONE_SHOT_SPEED = 15.0
# how far the drawn required-speed curve may stray: cairo's default flattening tolerance
CURVE_TOLERANCE_PX = 0.1
COUNT_WORDS = "zero one two three four five six seven eight nine".split()

BLACK = Style(color_role=ColorRole.BASELINE)
RED = Style(color_role=ColorRole.CONCRETE)
BLUE = Style(color_role=ColorRole.SOLUTION)
GREEN = Style(color_role=ColorRole.OPTIMUM)
BLACK_DASHED = Style(color_role=ColorRole.BASELINE, dash=Dash.DASHED)
GREEN_DOTTED = Style(color_role=ColorRole.OPTIMUM, dash=Dash.DOTTED)


def _court_marks(params: ShotParams, x_max: float) -> tuple:
    a, d, h = params.release_altitude, params.distance, params.hoop_height
    return (
        polyline((0.0, x_max), (0.0, 0.0), BLACK),
        polyline((0.0, 0.0), (0.0, a), BLACK),
        point(0.0, a, BLACK, size=3.0),
        polyline((d, d), (0.0, h), BLACK),
        polyline((d - 0.45, d), (h, h), BLACK),
        text(0.15, a + 0.35, f"a = {a:g} m", BLACK),
        text(d - 2.4, h + 0.35, f"h = {h:g} m", BLACK),
        text(d / 2 - 1.0, 0.45, f"d = {d:g} m", BLACK),
    )


def _trajectory_mark(params: ShotParams, angle: float, speed: float, style: Style):
    return quadratic(*trajectory_bezier(params, LaunchState(angle=angle, speed=speed)), style)


def _speed_bends(beta: float, angle: float) -> tuple[float, float, float]:
    """(w, v'/v, v''/v) of the required speed v at angle, in the phase form
    (README, "Figures 4 and 5"): w = sin(phi) + sin(beta), phi = 2 angle +
    beta, taken as 2 sin(angle + beta) cos(angle), which does not cancel;
    both ratios infinite where w is not positive, within rounding of the
    feasibility angle."""
    w, c = 2.0 * math.sin(angle + beta) * math.cos(angle), math.cos(2.0 * angle + beta)
    if not w > 0.0:
        return w, -math.inf, math.inf
    return w, -c / w, (c * c + 2.0 * (math.cos(beta) ** 2 + math.sin(beta) * w)) / w / w


def _speed_curve(params: ShotParams, space: PlotSpace) -> tuple:
    """v(theta) inside space, from the crossings of its top speed clamped
    to its angles: one polyline within CURVE_TOLERANCE_PX of the exact
    curve in the viewport of a one-panel scene (render.viewports), the
    widest, so in any narrower one, where the renderer drops it if it spans
    under 0.0005 px; none where the softest shot is above the space.  Each
    side of theta* is walked from its end inward, each step h the longest
    with h^2 sy v''(outer)/8 under the tolerance times sqrt(1 + m^2), m the
    pixel slope at its inner end: v'' falls toward theta*, and the convex
    v's chord is steeper than m.  A step at most the tolerance wide, or from
    a vertex that near 0 m/s, is always taken, as its monotone arc lies in
    the box of its ends (the proof is in README, "Figures 4 and 5").  A low
    end with no speed, at the feasibility angle, gives way to the speed
    beside it that bisecting the floats up to the high end finds, above the
    space where it can.  An end within 1e-6 px of the top is written on it.
    v is even about theta*, so where the ends are the crossings only
    theta* up is evaluated, and reflected."""
    (x0, x1), (y0, y1), [(width, height)] = space.x_range, space.y_range, render.viewports([space])
    # no angle where the softest shot is above the space
    crossings = solver.speed_crossings(params, y1) or (math.inf, -math.inf)
    lo, hi = max(math.radians(x0), crossings[0]), min(math.radians(x1), crossings[1])
    if not lo < hi:
        return ()
    # pixels per radian and per m/s in the widest viewport
    sx, sy = width / math.radians(x1 - x0), height / (y1 - y0)
    a, d, h, g = params
    beta, tol8, widest = math.atan2(a - h, d), 8.0 * CURVE_TOLERANCE_PX, CURVE_TOLERANCE_PX / sx

    def speed(angle):  # the kernel's, or None
        return solver._hoop_speed(a, d, h, g, angle)

    def walk(t: float, v: float, inner: float) -> list:  # (angle, speed) from t toward inner
        sign, vertices = math.copysign(1.0, inner - t), [(t, v)]
        while True:
            w, slope, bend = _speed_bends(beta, t)
            step = math.inf if sy * v <= CURVE_TOLERANCE_PX or not bend else widest
            if step < math.inf:  # h^2 sy v'' <= 8 tol sqrt(1 + m^2), m = sy v'/sx, over sy v
                per_px = 1.0 / (sy * v)
                guess = math.sqrt(tol8 * math.hypot(per_px, slope / sx) / bend)
                w_in, slope_in, _ = _speed_bends(beta, t + sign * min(guess, abs(inner - t)))
                if w_in > w:  # the slope at the guess's inner end, whose speed is v sqrt(w/w_in)
                    slope = math.sqrt(w / w_in) * slope_in
                step = max(step, math.sqrt(tol8 * math.hypot(per_px, slope / sx) / bend))
            t += sign * step
            if not (inner - t) * sign > 0.0:
                return vertices
            v = speed(t)
            vertices.append((t, v))

    first, last = (lo, speed(lo)), (hi, speed(hi))
    on_top = [v is not None and abs(sy * (v - y1)) <= 1e-6 for _, v in (first, last)]
    mirror = all(on_top) and (lo, hi) == crossings and hi < math.nextafter(math.pi / 2, 0.0)
    # d tan(theta) + k, the sign of the kernel's denominator, rises with
    # theta, so only the low end can lack a speed
    if first[1] is None and last[1] is not None and last[1] <= y1:
        # bisect the floats from lo to hi by their places in order, a float's
        # bits as a signed integer with a negative one's 63 low bits flipped:
        # at most 64 calls, where halving values walks one binary exponent per call
        from struct import pack, unpack

        def flip(n: int) -> int:  # its own inverse
            return n ^ (n >> 63 & 0x7FFF_FFFF_FFFF_FFFF)
        none, t = (flip(unpack("<q", pack("<d", x))[0]) for x in (lo, hi))
        while (place := (none + t) // 2) > none:
            at = unpack("<d", pack("<q", flip(place)))[0]
            if (beside := speed(at)) is None:
                none = place
            else:
                first, t = (at, beside), place
                if beside > y1:
                    break
    if first[1] is None or last[1] is None:
        return ()
    mid = 0.5 * (lo + hi) if mirror else min(max(0.25 * math.pi - 0.5 * beta, first[0]), hi)
    high = walk(*last, mid)
    # 2 theta* - theta as lo + (hi - t), hi - t exact for t >= hi/2: one rounding
    low = [(lo + (hi - t), v) for t, v in high] if mirror else walk(*first, mid)
    kept = low + high[::-1]
    # a vertex at mid, but where the chord of those beside it keeps the
    # vertical bound (v'' is largest at one of them) or both are that near 0 m/s
    (t0, v0), (t1, v1) = low[-1], high[-1]
    bend = sy * max(v0 * _speed_bends(beta, t0)[2], v1 * _speed_bends(beta, t1)[2])
    if t0 < mid < t1 and (t1 - t0) ** 2 * bend > tol8 and sy * max(v0, v1) > CURVE_TOLERANCE_PX:
        kept.insert(len(low), (mid, speed(mid)))
    for i in (0, -1):
        kept[i] = (kept[i][0], y1) if on_top[i] else kept[i]
    ts, vs = zip(*kept)
    return (polyline(map(math.degrees, ts), vs, BLUE),)


def _optimum_distances(k: float, g: float, lo: float, hi: float, scales) -> list[float]:
    """Distances from lo to hi whose chords draw theta*(d) and v*(d),
    k = h - a, within CURVE_TOLERANCE_PX of both, scales being their pixels
    per radian and per m/s and v*'s panel height, from render.viewports.  A
    chord of a C2 curve f over a step h strays at most h^2 max|f''|/8, so a
    step is sqrt(8 tol/(s M)), M the larger of |f''| at its start and at
    any peak ahead.  With r = hypot(d, k), |theta*''| = |k| d/r^4 rises to
    a peak at d = |k|/sqrt(3) and falls after it; |v*''| = v* |2k - r|/(4 r^3)
    falls to 0 at r = 2k for k > 0, rises to a peak at r = k(1 + sqrt 5), or
    at r = |k|(sqrt 5 - 1) for k < 0, and falls after it, or throughout for
    k = 0.  As m = s r^2 |f''| (pixels) is at most s/2 and 3/4 of the
    panel's height (v* is below its top), each step, r sqrt(8 tol/m), is
    over 8 % of d (bar a subnormal d's rounding): at most
    2 + ln(hi/lo)/ln(1.08) vertices, and an overflowed r ends it."""
    theta_scale, speed_scale, speed_height = scales
    root_g, tol8, hypot, sqrt = math.sqrt(g), 8.0 * CURVE_TOLERANCE_PX, math.hypot, math.sqrt

    def pixels(d: float) -> tuple[float, float, float]:  # r, and m of theta* and of v*
        r = hypot(d, k)
        kr, v = k / r, root_g * (sqrt(r + k) if k >= 0 else d / sqrt(r - k))
        # the min holds only an overflowed v* to the panel's top
        speed = min(speed_scale * v, speed_height) * abs(2.0 * kr - 1.0) / 4.0
        return r, theta_scale * abs(kr) * (d / r), speed

    def step(r: float, m: float) -> float:
        return r * sqrt(tol8 / m) if m > 0 else math.inf

    # the peak of |theta*''|, then of |v*''|, each with the least step at it or after
    limits = []
    if k:
        peaks = abs(k) / sqrt(3.0), abs(k) * sqrt(5.0 + math.copysign(2.0 * sqrt(5.0), k))
        (r0, m_theta, _), (r1, _, m_speed) = map(pixels, peaks)
        speed_step = step(r1, m_speed)
        limits = [(peaks[0], min(step(r0, m_theta), speed_step)), (peaks[1], speed_step)]
    distances, d = [lo], lo
    while True:
        while limits and limits[0][0] <= d:  # passed: |f''| falls after its peak
            del limits[0]
        r, m_theta, m_speed = pixels(d)
        h = step(r, max(m_theta, m_speed))
        if limits and limits[0][1] < h:
            h = limits[0][1]
        # h > 0, but a subnormal d's step may round away
        d = d + h if d + h > d else math.nextafter(d, math.inf)
        if not d < hi:
            break
        distances.append(d)
    distances.append(hi)
    return distances


def _optimum_marks(a: float, h: float, g: float, lo: float, hi: float, scales, label_dys):
    """theta*(d) in degrees and v*(d) from lo to hi at release altitude a:
    two green polylines through one list of distances, with the values of
    one `solver._optima` pass, as the marks of the angle panel and of the
    speed panel; with label_dys, each is labelled with a near its end."""
    distances = _optimum_distances(h - a, g, lo, hi, scales)
    angles, speeds = solver._optima(a, h, g, distances)
    marks = (polyline(distances, map(math.degrees, angles), GREEN),
             polyline(distances, speeds, GREEN))
    if label_dys is None:
        return [(mark,) for mark in marks]
    label = f"a = {a:g}"
    return [
        (mark, text(mark.xs[-1] - 1.6, mark.ys[-1] + dy, label, GREEN))
        for mark, dy in zip(marks, label_dys)
    ]


def _range(low: float, high: float, lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), widened to whole units where low..high leaves it."""
    return min(lo, float(math.floor(low))), max(hi, float(math.ceil(high)))


def _count(n: int, noun: str) -> str:
    """'one altitude', 'three altitudes', '12 altitudes': n in words below 10."""
    word = COUNT_WORDS[n] if n < len(COUNT_WORDS) else str(n)
    return f"{word} {noun}{'' if n == 1 else 's'}"


def _stage_2_caption(demo: float, velocities: Sequence[float], v_solution: float) -> str:
    """Whether the one shot misses high or falls short, and whether the
    fan brackets the hoop-reaching speed: the height at the hoop plane
    rises with the launch speed, so each compares a speed with v_solution."""
    if ONE_SHOT_SPEED > v_solution:
        shot = "misses high"
    elif ONE_SHOT_SPEED < v_solution:
        shot = "falls short"
    else:
        shot = "reaches the hoop"
    if max(velocities) < v_solution:
        fan = "stays below"
    elif min(velocities) > v_solution:
        fan = "stays above"
    else:
        fan = "brackets"
    return (
        f"One shot at {math.degrees(demo):g} deg and {ONE_SHOT_SPEED:g} m/s "
        f"{shot}; a fan of launch speeds {fan} the hoop-reaching speed."
    )


def build_basketball_ladder(
    params: ShotParams | None = None,
    velocities: Sequence[float] | None = None,
    altitudes: Sequence[float] | None = None,
    d_grid: tuple[float, float, int] = solver.d_grid(),
) -> tuple[LadderSpec, list[Scene]]:
    """The five-stage ladder and its seven figure scenes.

    Stages: (1) court diagram, (2) one and several trajectories,
    (3) the hoop-reaching trajectory in context, (4) required speed vs
    angle and its minimum, (5) the optimum vs distance, then per
    release altitude.  Each is one `climb` call with its figures, tags
    and caption.  The returned spec validates with zero violations.

    The stage-2/3 shots are drawn at DEMO_ANGLE, or at the optimal angle
    where DEMO_ANGLE is not above the feasibility angle.
    """
    params = params or ShotParams()
    velocities = solver.DEFAULT_VELOCITIES if velocities is None else tuple(velocities)
    altitudes = solver.DEFAULT_ALTITUDES if altitudes is None else tuple(altitudes)
    lo, step, n = d_grid
    lo, hi = lo + 0 * step, lo + (n - 1) * step  # points 0 and n - 1 as `sweep` builds them
    if n < 2 or not lo < hi:
        raise ValueError(
            f"figures need a d_grid of at least 2 points from lo < hi, got {n} point(s)"
        )
    # for n <= MAX_GRID_POINTS two points in a row, lo + fl(i * step) exactly, differ by over
    # step * (1 - 1e-10), and two reals more than one float spacing apart never round to one
    # float: only a step of at most two spacings at max(-lo, hi), their largest size, can stall
    if step <= 2.0 * math.ulp(max(-lo, hi)):
        solver._check_order([lo + i * step for i in range(n)])
    check_distance(lo)  # the points rise from lo to hi, so these two
    check_distance(hi)  # raise as a sweep's first bad point does

    feasibility = solver.feasibility_angle(params)
    optimum = solver.optimal_angle(params)
    demo = DEMO_ANGLE if DEMO_ANGLE > feasibility else optimum.angle
    demo_deg = math.degrees(demo)

    court_space = PlotSpace(
        x_var=("horizontal position", "m"),
        y_var=("height", "m"),
        x_range=(0.0, params.distance * 1.1),
        y_range=(0.0, 7.0),
    )
    court = _court_marks(params, court_space.x_range[1])

    # stage 2: one concrete shot, then a fan of launch speeds, each labelled
    # where it is drawn: a concave parabola with both ends above the court stays above it
    one_shot = _trajectory_mark(params, demo, ONE_SHOT_SPEED, RED)
    fan = []
    for v in velocities:
        mark = _trajectory_mark(params, demo, v, RED)
        fan.append(mark)
        if min(mark.ys[0], mark.ys[-1]) <= court_space.y_range[1]:
            fan.append(text(mark.xs[-1] + 0.1, mark.ys[-1] + 0.1, f"{v:g}", RED))
    fan = tuple(fan)

    # stage 3: the speed that exactly reaches the hoop
    v_solution = solver.required_velocity(params, demo)
    solution_mark = _trajectory_mark(params, demo, v_solution, BLUE)

    # stage 4: required speed as a function of angle
    angle_space = PlotSpace(
        ("launch angle", "deg"), ("required speed", "m/s"), (0.0, 90.0), (0.0, 40.0)
    )
    opt_deg = math.degrees(optimum.angle)
    curve_panel = Panel(angle_space, (
        *_speed_curve(params, angle_space),
        vline(math.degrees(feasibility), BLACK_DASHED),
        point(demo_deg, v_solution, BLUE, size=4.0),
    ), "Required speed vs angle")
    optimum_marks = curve_panel.marks + (
        vline(opt_deg, GREEN_DOTTED),
        hline(optimum.speed, GREEN_DOTTED),
        point(opt_deg, optimum.speed, GREEN, size=4.0),
    )

    # stage 5: optimum as a function of distance, then per altitude, drawn
    # from the closed form between the grid's ends.  theta* and v* are
    # monotone in d, so each space's range comes from the ends of its
    # curves, widened only where an optimum would leave it
    a, _, h, g = params
    # each altitude checked as ShotParams checks it
    shot_altitudes = [a, *(params.replace(release_altitude=x).release_altitude for x in altitudes)]
    ends = [solver._optima(alt, h, g, (lo, hi)) for alt in shot_altitudes]
    angles = [theta for column, _ in ends for theta in column]
    speeds = [v for _, column in ends for v in column]
    x_var, x_range = ("distance", "m"), (lo, hi)
    # degrees is monotone: these are the extremes of the plotted angles
    theta_y = _range(math.degrees(min(angles)), math.degrees(max(angles)), 40.0, 80.0)
    theta_space = PlotSpace(x_var, ("optimal angle", "deg"), x_range, theta_y)
    speed_y = _range(min(speeds), max(speeds), 0.0, 14.0)
    speed_space = PlotSpace(x_var, ("optimal speed", "m/s"), x_range, speed_y)
    # pixels per radian and per m/s, in the two stacked panels, and v*'s panel height
    (_, theta_height), (_, speed_height) = render.viewports([theta_space, speed_space])
    scales = (theta_height / math.radians(theta_y[1] - theta_y[0]),
              speed_height / (speed_y[1] - speed_y[0]), speed_height)

    def distance_scene(altitudes, label_dys, title: str) -> Scene:
        per_curve = [_optimum_marks(alt, h, g, lo, hi, scales, label_dys) for alt in altitudes]
        theta_marks, speed_marks = (sum(panel, ()) for panel in zip(*per_curve))
        return Scene((Panel(theta_space, theta_marks, title), Panel(speed_space, speed_marks)))

    stages, scenes = [], []

    def climb(rung: list[Scene], tags: Sequence[str], caption: str) -> None:
        """Add the stage that rung, its figures, draws: the last figure holds
        its panels, and its roles are BASELINE (frames, ticks) and every mark's."""
        roles = {ColorRole.BASELINE}.union(
            m.style.color_role for s in rung for p in s.panels for m in p.marks
        )
        panels = tuple(p.space for p in rung[-1].panels)
        stages.append(Stage(panels, frozenset(roles), frozenset(tags), caption))
        scenes.extend(rung)

    climb([Scene((Panel(court_space, court, "The court"),))], [StrategyTag.DEFINE_ABSTRACT_SPACE],
          f"A shooter {params.distance:g} m from the hoop, releasing at "
          f"{params.release_altitude:g} m; the hoop is {params.hoop_height:g} m high.")
    climb([Scene((Panel(court_space, court + (one_shot,), "One shot"),
                  Panel(court_space, court + fan, "Several launch speeds")))],
          [StrategyTag.EXPAND_SAMPLING], _stage_2_caption(demo, velocities, v_solution))
    climb([Scene((Panel(court_space, court + fan + (solution_mark,), "The hoop-reaching shot"),))],
          [StrategyTag.MODELED_OR_OPTIMIZED_VALUES],
          f"The shot at {demo_deg:g} deg reaches the hoop at "
          f"{v_solution:.1f} m/s, shown against the other speeds.")
    climb([Scene((curve_panel,)),
           Scene((curve_panel, Panel(angle_space, optimum_marks, "The softest shot")))],
          [StrategyTag.DEFINE_ABSTRACT_SPACE, StrategyTag.MODELED_OR_OPTIMIZED_VALUES,
           StrategyTag.UNFIX_PARAMETER],
          f"Required speed as a function of launch angle; it is minimized at "
          f"{opt_deg:.1f} deg, where {optimum.speed:.1f} m/s suffices.")
    climb([distance_scene(shot_altitudes[:1], None, "Optimum vs distance"),
           distance_scene(shot_altitudes[1:], (1.5, -0.5),
                          "Optimum vs distance and release altitude")],
          [StrategyTag.UNFIX_PARAMETER, StrategyTag.EXPAND_SAMPLING,
           StrategyTag.DEFINE_ABSTRACT_SPACE],
          "Optimal angle and speed as the distance varies, then for "
          f"{_count(len(altitudes), 'release altitude')}.")
    return LadderSpec(tuple(stages)), scenes
