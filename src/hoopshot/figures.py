"""Builds the basketball figure sequence: the declarative ladder and the
renderer-facing scenes for its seven figures.

The sequence climbs from a court diagram, through concrete trajectories,
to the hoop-reaching solution, the required-velocity curve with its
optimum, and finally the optimum as a function of distance and release
altitude.  Color roles climb with it: black court, red trajectories,
blue solution, green optimum.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import solver
from .kinematics import LaunchState, ShotParams, height_at_plane, sample_trajectory
from .ladder import ColorRole, LadderSpec, PlotSpace, Stage, StrategyTag
from .render import (
    Dash,
    Layout,
    Panel,
    Scene,
    Style,
    hline,
    point,
    polyline,
    text,
    vline,
)

DEMO_ANGLE = math.radians(30.0)
ONE_SHOT_SPEED = 15.0
TRAJECTORY_SAMPLES = 200
ANGLE_CURVE_POINTS = 400
COUNT_WORDS = "zero one two three four five six seven eight nine".split()

BLACK = Style(color_role=ColorRole.BASELINE)
RED = Style(color_role=ColorRole.CONCRETE)
BLUE = Style(color_role=ColorRole.SOLUTION)
GREEN = Style(color_role=ColorRole.OPTIMUM)
BLACK_DASHED = Style(color_role=ColorRole.BASELINE, dash=Dash.DASHED)
GREEN_DOTTED = Style(color_role=ColorRole.OPTIMUM, dash=Dash.DOTTED)

# each stage's figures (numbered from 1) and strategy tags; the rest of
# its Stage is what those figures draw (see _ladder)
STAGES = (
    ((1,), (StrategyTag.DEFINE_ABSTRACT_SPACE,)),
    ((2,), (StrategyTag.EXPAND_SAMPLING,)),
    ((3,), (StrategyTag.MODELED_OR_OPTIMIZED_VALUES,)),
    (
        (4, 5),
        (
            StrategyTag.DEFINE_ABSTRACT_SPACE,
            StrategyTag.MODELED_OR_OPTIMIZED_VALUES,
            StrategyTag.UNFIX_PARAMETER,
        ),
    ),
    (
        (6, 7),
        (
            StrategyTag.UNFIX_PARAMETER,
            StrategyTag.EXPAND_SAMPLING,
            StrategyTag.DEFINE_ABSTRACT_SPACE,
        ),
    ),
)


def _court_marks(params: ShotParams) -> tuple:
    a, d, h = params.release_altitude, params.distance, params.hoop_height
    x_max = d * 1.1
    return (
        polyline([(0.0, 0.0), (x_max, 0.0)], BLACK),
        polyline([(0.0, 0.0), (0.0, a)], BLACK),
        point(0.0, a, BLACK, size=3.0),
        polyline([(d, 0.0), (d, h)], BLACK),
        polyline([(d - 0.45, h), (d, h)], BLACK),
        text(0.15, a + 0.35, f"a = {a:g} m", BLACK),
        text(d - 2.4, h + 0.35, f"h = {h:g} m", BLACK),
        text(d / 2 - 1.0, 0.45, f"d = {d:g} m", BLACK),
    )


def _trajectory_mark(params: ShotParams, angle: float, speed: float, style: Style):
    traj = sample_trajectory(
        params, LaunchState(angle=angle, speed=speed), n=TRAJECTORY_SAMPLES
    )
    return polyline([(x, y) for _, x, y in traj.samples], style), traj


def _angle_curve_polyline(params: ShotParams):
    curve = solver.angle_curve(
        params, 0.0, math.radians(89.9), ANGLE_CURVE_POINTS
    )
    pts = [
        (math.degrees(p.angle), p.speed) for p in curve.points if p.feasible
    ]
    return polyline(pts, BLUE)


def _optimum_marks(curves, y_of, label_dy: float | None) -> tuple:
    """One green polyline of y_of(optimum) over distance per curve; with a
    label_dy, each is labelled with its release altitude near its end."""
    marks = []
    for curve in curves:
        pts = [(d, y_of(o)) for d, o in curve.entries]
        marks.append(polyline(pts, GREEN))
        if label_dy is not None:
            x, y = pts[-1]
            label = f"a = {curve.release_altitude:g}"
            marks.append(text(x - 1.6, y + label_dy, label, GREEN))
    return tuple(marks)


def _range(low: float, high: float, lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), widened to whole units where low..high leaves it."""
    return min(lo, float(math.floor(low))), max(hi, float(math.ceil(high)))


def _theta_deg(optimum: solver.Optimum) -> float:
    return math.degrees(optimum.angle)


def _speed(optimum: solver.Optimum) -> float:
    return optimum.speed


def _count(n: int, noun: str) -> str:
    """'one altitude', 'three altitudes', '12 altitudes': n in words below 10."""
    word = COUNT_WORDS[n] if n < len(COUNT_WORDS) else str(n)
    return f"{word} {noun}{'' if n == 1 else 's'}"


def _stage_2_caption(
    params: ShotParams, demo: float, velocities: Sequence[float], v_solution: float
) -> str:
    """Whether the one shot misses high or falls short, and whether the
    fan brackets the hoop-reaching speed, from the model itself."""
    height = height_at_plane(params, LaunchState(angle=demo, speed=ONE_SHOT_SPEED))
    if height > params.hoop_height:
        shot = "misses high"
    elif height < params.hoop_height:
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


def _ladder(scenes: Sequence[Scene], captions: Sequence[str]) -> LadderSpec:
    """The STAGES as their figures draw them.  A stage's last figure
    draws it in full, so that figure's panels give the stage's panels;
    its roles are BASELINE (every frame, axis label and tick is black)
    plus the color of every mark in its figures; its parent is the stage
    before it."""
    stages = []
    for n, ((figures, tags), caption) in enumerate(zip(STAGES, captions, strict=True), 1):
        drawn = [scenes[f - 1] for f in figures]
        roles = {ColorRole.BASELINE}.union(
            m.style.color_role for s in drawn for p in s.panels for m in p.marks
        )
        panels = tuple(p.space for p in drawn[-1].panels)
        stages.append(
            Stage(n, panels, frozenset(roles), frozenset(tags), caption, n - 1 or None)
        )
    return LadderSpec(tuple(stages))


def build_basketball_ladder(
    params: ShotParams | None = None,
    velocities: Sequence[float] | None = None,
    altitudes: Sequence[float] | None = None,
    d_grid: Sequence[float] | None = None,
) -> tuple[LadderSpec, list[Scene]]:
    """The five-stage ladder and its seven figure scenes.

    Stages: (1) court diagram, (2) one and several trajectories,
    (3) the hoop-reaching trajectory in context, (4) required speed vs
    angle and its minimum, (5) the optimum vs distance, then per
    release altitude.  The returned spec validates with zero violations.

    The stage-2/3 shots are drawn at DEMO_ANGLE, or at the optimal angle
    where DEMO_ANGLE is not above the feasibility angle.
    """
    params = params or ShotParams()
    velocities = solver.DEFAULT_VELOCITIES if velocities is None else tuple(velocities)
    altitudes = solver.DEFAULT_ALTITUDES if altitudes is None else tuple(altitudes)
    d_grid = solver.default_d_grid() if d_grid is None else list(d_grid)
    if len(d_grid) < 2 or not d_grid[0] < d_grid[-1]:
        raise ValueError(
            f"figures need a d_grid of at least 2 points from lo < hi, "
            f"got {len(d_grid)} point(s)"
        )

    court = _court_marks(params)
    feasibility = solver.feasibility_angle(params)
    optimum = solver.optimal_angle(params)
    demo = DEMO_ANGLE if DEMO_ANGLE > feasibility else optimum.angle
    demo_deg = math.degrees(demo)

    # stage 2: one concrete shot, then a fan of launch speeds
    one_shot, _ = _trajectory_mark(params, demo, ONE_SHOT_SPEED, RED)
    fan = []
    for v in velocities:
        mark, traj = _trajectory_mark(params, demo, v, RED)
        _, x_end, y_end = traj.samples[-1]
        fan += [mark, text(x_end + 0.1, y_end + 0.1, f"{v:g}", RED)]
    fan = tuple(fan)

    # stage 3: the speed that exactly reaches the hoop
    v_solution = solver.required_velocity(params, demo)
    solution_mark, _ = _trajectory_mark(params, demo, v_solution, BLUE)

    # stage 4: required speed as a function of angle
    curve_mark = _angle_curve_polyline(params)
    feas_deg = math.degrees(feasibility)
    opt_deg = math.degrees(optimum.angle)
    curve_panel_marks = (
        curve_mark,
        vline(feas_deg, BLACK_DASHED),
        point(demo_deg, v_solution, BLUE, size=4.0),
    )
    optimum_panel_marks = curve_panel_marks + (
        vline(opt_deg, GREEN_DOTTED),
        hline(optimum.speed, GREEN_DOTTED),
        point(opt_deg, optimum.speed, GREEN, size=4.0),
    )

    # stage 5: optimum as a function of distance, then per altitude; one
    # range per space, widened only where an optimum would leave it
    base_curve = solver.sweep_distance(params, d_grid)
    alt_curves = solver.sweep_altitudes(params, altitudes, d_grid)
    angles, speeds = zip(*[o for c in (base_curve, *alt_curves) for _, o in c.entries])
    x_var, x_range = ("distance", "m"), (d_grid[0], d_grid[-1])
    # degrees is monotone: these are the extremes of the plotted angles
    theta_y = _range(math.degrees(min(angles)), math.degrees(max(angles)), 40.0, 80.0)
    theta_space = PlotSpace(x_var, ("optimal angle", "deg"), x_range, theta_y)
    speed_y = _range(min(speeds), max(speeds), 0.0, 14.0)
    speed_space = PlotSpace(x_var, ("optimal speed", "m/s"), x_range, speed_y)

    court_space = PlotSpace(
        x_var=("horizontal position", "m"),
        y_var=("height", "m"),
        x_range=(0.0, params.distance * 1.1),
        y_range=(0.0, 7.0),
    )
    angle_space = PlotSpace(
        x_var=("launch angle", "deg"),
        y_var=("required speed", "m/s"),
        x_range=(0.0, 90.0),
        y_range=(0.0, 40.0),
    )
    curve_panel = Panel(angle_space, curve_panel_marks, "Required speed vs angle")

    def distance_scene(curves, theta_dy, speed_dy, title: str) -> Scene:
        return Scene(
            (
                Panel(theta_space, _optimum_marks(curves, _theta_deg, theta_dy), title),
                Panel(speed_space, _optimum_marks(curves, _speed, speed_dy)),
            ),
            Layout.STACKED_SHARED_X,
        )

    scenes = [
        Scene((Panel(court_space, court, "The court"),)),
        Scene(
            (
                Panel(court_space, court + (one_shot,), "One shot"),
                Panel(court_space, court + fan, "Several launch speeds"),
            ),
            Layout.SIDE_BY_SIDE,
        ),
        Scene((Panel(court_space, court + fan + (solution_mark,), "The hoop-reaching shot"),)),
        Scene((curve_panel,)),
        Scene(
            (curve_panel, Panel(angle_space, optimum_panel_marks, "The softest shot")),
            Layout.SIDE_BY_SIDE,
        ),
        distance_scene([base_curve], None, None, "Optimum vs distance"),
        distance_scene(alt_curves, 1.5, -0.5, "Optimum vs distance and release altitude"),
    ]
    captions = (
        f"A shooter {params.distance:g} m from the hoop, releasing at "
        f"{params.release_altitude:g} m; the hoop is {params.hoop_height:g} m high.",
        _stage_2_caption(params, demo, velocities, v_solution),
        f"The shot at {demo_deg:g} deg reaches the hoop at "
        f"{v_solution:.1f} m/s, shown against the other speeds.",
        f"Required speed as a function of launch angle; it is minimized at "
        f"{opt_deg:.1f} deg, where {optimum.speed:.1f} m/s suffices.",
        "Optimal angle and speed as the distance varies, then for "
        f"{_count(len(altitudes), 'release altitude')}.",
    )
    return _ladder(scenes, captions), scenes
