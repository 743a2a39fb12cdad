import hashlib
import json
import math
import re
import tempfile

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hoopshot import figures, solver
from hoopshot.figures import STAGES, _speed_bends, _speed_curve, build_basketball_ladder
from hoopshot.kinematics import Infeasible, ShotParams, VerticalShot
from hoopshot.ladder import (
    ROLE_RANKS, ColorRole, PlotSpace, StrategyTag, ladder_to_json, validate_ladder,
)
from hoopshot.render import MarkKind, render_svg
from hoopshot.solver import optimal_angle, required_velocity, speed_crossings
from oracles import check_figures_grid, default_d_grid
from test_cli import ANY_VALUE, PARAM_FLAGS, run_captured
from test_render import SIDE_BY_SIDE, STACKED, _pixel, clip_rects


@pytest.fixture(scope="module")
def built():
    return build_basketball_ladder()


class TestLadderStructure:
    def test_five_stages_eight_panels(self, built):
        spec, _ = built
        assert len(spec.stages) == 5
        assert [len(s.panels) for s in spec.stages] == [1, 2, 1, 2, 2]

    def test_seven_scenes(self, built):
        _, scenes = built
        assert len(scenes) == 7

    def test_validates_clean(self, built):
        spec, _ = built
        assert validate_ladder(spec) == []

    def test_every_stage_tagged(self, built):
        spec, _ = built
        for stage in spec.stages:
            assert stage.tags

    def test_expansion_and_unfixing_tags(self, built):
        spec, _ = built
        assert StrategyTag.EXPAND_SAMPLING in spec.stages[1].tags
        assert StrategyTag.UNFIX_PARAMETER in spec.stages[4].tags

    def test_role_introduction_ranks_climb(self, built):
        spec, _ = built
        introduced = []
        seen = set()
        for stage in spec.stages:
            new = stage.roles_used - seen
            introduced.extend(sorted(ROLE_RANKS.index(r) for r in new))
            seen |= stage.roles_used
        assert introduced == [0, 1, 2, 3]

    def test_captions_present(self, built):
        spec, _ = built
        for stage in spec.stages:
            assert stage.caption.strip()

    def test_stage_2_caption_when_the_fan_is_too_fast(self):
        # 12.2 m/s reaches the hoop at 30 deg, below the whole fan
        spec, _ = build_basketball_ladder(velocities=[15.0, 20.0], d_grid=(2.0, 1.0, 2))
        assert spec.stages[1].caption.endswith(
            "a fan of launch speeds stays above the hoop-reaching speed."
        )


class TestStagesFromFigures:
    @settings(max_examples=40, deadline=None)
    @given(
        altitude=st.floats(0.0, 6.0),  # the hoop is at 3.05 m
        distance=st.floats(2.0, 14.0),
        velocities=st.lists(st.floats(2.0, 30.0), min_size=1, max_size=12, unique=True),
        lo=st.floats(0.5, 3.0),
        span=st.floats(2.0, 15.0),
        step=st.floats(0.2, 2.0),
    )
    @example(altitude=1.7, distance=10.0, velocities=[5.0], lo=1.0, span=14.0, step=0.1)
    @example(altitude=4.5, distance=6.0, velocities=[8.0], lo=1.0, span=3.0, step=1.0)
    def test_each_stage_is_what_its_figures_draw(
        self, altitude, distance, velocities, lo, span, step
    ):
        params = ShotParams(release_altitude=altitude, distance=distance)
        d_grid = solver.d_grid(lo, lo + span, step)
        spec, scenes = build_basketball_ladder(params, velocities, d_grid=d_grid)
        figures = [n for numbers, _ in STAGES for n in numbers]
        assert figures == list(range(1, len(scenes) + 1)) == list(range(1, 8))
        for stage, (numbers, _) in zip(spec.stages, STAGES, strict=True):
            drawn = [scenes[n - 1] for n in numbers]
            colors = {m.style.color_role for s in drawn for p in s.panels for m in p.marks}
            assert stage.roles_used == {ColorRole.BASELINE} | colors
            assert stage.panels == tuple(p.space for p in drawn[-1].panels)
        assert validate_ladder(spec) == []


class TestSceneContent:
    def test_layouts(self, built):
        # each panel's viewport (x, y, width, height), read from its <clipPath>
        _, scenes = built
        whole = [(52.0, 28.0, 536.0, 384.0)]
        rects = [clip_rects(render_svg(s).decode()) for s in scenes]
        assert rects == [whole, SIDE_BY_SIDE, whole, whole, SIDE_BY_SIDE, STACKED, STACKED]

    def test_velocity_fan_labels_at_path_ends(self, built):
        _, scenes = built
        fan_panel = scenes[1].panels[1]
        labels = [m for m in fan_panel.marks if m.kind == MarkKind.TEXT]
        label_texts = {m.text for m in labels}
        assert {"5", "10", "15", "20"} <= label_texts

    def test_cross_stage_annotation_dot(self, built):
        # the hoop-reaching trajectory of stage 3 appears as a single
        # blue dot at 30 degrees on the required-speed curve
        _, scenes = built
        v_solution = required_velocity(ShotParams(), math.radians(30.0))
        for scene in (scenes[3], scenes[4]):
            panel = scene.panels[0]
            dots = [
                m
                for m in panel.marks
                if m.kind == MarkKind.POINT
                and m.style.color_role == ColorRole.SOLUTION
            ]
            assert len(dots) == 1
            x, y = dots[0].points[0]
            assert x == pytest.approx(30.0)
            assert y == pytest.approx(v_solution, rel=1e-12)

    def test_optimum_marked_in_green_dotted(self, built):
        _, scenes = built
        right = scenes[4].panels[1]
        green = [
            m
            for m in right.marks
            if m.style.color_role == ColorRole.OPTIMUM
        ]
        kinds = {m.kind for m in green}
        assert MarkKind.VLINE in kinds
        assert MarkKind.HLINE in kinds
        assert MarkKind.POINT in kinds

    def test_altitude_scene_has_three_curves_per_panel(self, built):
        _, scenes = built
        for panel in scenes[6].panels:
            curves = [m for m in panel.marks if m.kind == MarkKind.POLYLINE]
            assert len(curves) == 3

    def test_stacked_scenes_share_x(self, built):
        _, scenes = built
        for scene in (scenes[5], scenes[6]):
            spaces = [p.space for p in scene.panels]
            assert spaces[0].x_var == spaces[1].x_var
            assert spaces[0].x_range == spaces[1].x_range


class TestCustomInputs:
    def test_custom_grid_sets_distance_range(self):
        spec, _ = build_basketball_ladder(d_grid=(2.0, 1.0, 3))
        top_space = spec.stages[4].panels[0]
        assert top_space.x_range == (2.0, 4.0)

    @pytest.mark.parametrize(
        "altitudes, count",
        [
            ([1.7], "one release altitude"),
            ([1.2, 3.5], "two release altitudes"),
            ([1.2, 1.7, 2.2], "three release altitudes"),
        ],
    )
    def test_stage_5_caption_counts_the_altitudes(self, altitudes, count):
        spec, _ = build_basketball_ladder(altitudes=altitudes, d_grid=(2.0, 1.0, 2))
        assert spec.stages[4].caption == (
            f"Optimal angle and speed as the distance varies, then for {count}."
        )

    def test_custom_velocities_label_fan(self):
        _, scenes = build_basketball_ladder(velocities=[6.0, 9.0])
        fan_panel = scenes[1].panels[1]
        labels = {m.text for m in fan_panel.marks if m.kind == MarkKind.TEXT}
        assert {"6", "9"} <= labels


# the space of figures 4 and 5
ANGLE_SPACE = PlotSpace(("launch angle", "deg"), ("required speed", "m/s"), (0.0, 90.0), (0.0, 40.0))
# the points of each piece of the blue required-speed curve, as written
BLUE_POLYLINE = r'<polyline points="([^"]*)" stroke="#0000CC"'


class TestRequiredSpeedCurveVertices:
    """Figures 4 and 5 write no two consecutive vertices of the required-
    speed curve as the same point, and draw it from at most 200 vertices;
    at subnormal scales halving once left about a thousand vertices on
    one pixel."""

    @pytest.mark.parametrize(
        "params",
        [
            ShotParams(),
            ShotParams(release_altitude=3.5),
            # a = h: the crossing of 40 m/s lies near 1e-323 rad
            ShotParams(1.155166468069634e-11, 1.0, 1.155166468069634e-11, 4.752e-320),
            ShotParams(9.1e16, 1.0, 9.1e16, 3.8e-314),
            ShotParams(3.05, 10.0, 3.05, 1e-310),
            ShotParams(1e-300, 1e-300, 1e-300, 1e-300),
        ],
        ids=["defaults", "release-above-the-hoop", "g-4.752e-320", "a-h-9.1e16", "g-1e-310", "1e-300"],
    )
    def test_no_vertex_written_twice_in_a_row(self, params):
        # one altitude, the scenario's: an optimum at another may be vertical
        _, scenes = build_basketball_ladder(params, altitudes=[params.release_altitude])
        (curve,) = [m for m in scenes[3].panels[0].marks if m.kind == MarkKind.POLYLINE]
        assert len(curve.xs) <= 200
        for scene in scenes[3:5]:
            pieces = re.findall(BLUE_POLYLINE, render_svg(scene).decode())
            assert pieces
            for points in pieces:
                points = points.split()
                assert all(p != q for p, q in zip(points, points[1:])), points

    @pytest.mark.parametrize(
        "params",
        [
            ShotParams(1.03e-39, 4.98e-23, 6.67e-16, 1.34e-283),
            ShotParams(0.0, 5.823613571281543e-14, 3.816141263429737e-06, 2.8250650007359308e-12),
        ],
        ids=["two-points", "three-points"],
    )
    def test_no_curve_written_as_one_point(self, params):
        # the whole curve lies within 1e-5 deg below 90 deg and 1e-3 m/s
        # above 0, under 0.0005 px either way: it was written as 2 or 3
        # copies of 588.000,412.000 (288.000 in figure 5's first half)
        _, scenes = build_basketball_ladder(params, altitudes=[params.release_altitude])
        for scene in scenes[3:5]:
            for points in re.findall(BLUE_POLYLINE, render_svg(scene).decode()):
                assert len(set(points.split())) > 1, points


class TestRequiredSpeedCurveStepRule:
    """The step rule over TestExitContract's parameters: the walk ends,
    each vertex lies inside figure 4's panel, and the curve's ends are the
    crossings of 40 m/s, clamped to 0-90 deg."""

    @settings(deadline=None, max_examples=300)
    @given(values=st.dictionaries(st.sampled_from(PARAM_FLAGS), ANY_VALUE, min_size=2))
    @example(values={"--altitude": 1.7, "--distance": 0.001})
    @example(values={"--altitude": 3.5, "--distance": 10.0})
    @example(values={"--altitude": 1.155166468069634e-11, "--hoop-height": 1.155166468069634e-11,
                     "--distance": 1.0, "--gravity": 4.752e-320})
    def test_the_walk_ends_inside_the_panel_on_the_crossings_or_the_clamps(self, values):
        fields = dict(zip(PARAM_FLAGS, ShotParams._fields))
        try:
            params = ShotParams(**{fields[flag]: v for flag, v in values.items()})
            marks = _speed_curve(params, ANGLE_SPACE)
        except ValueError:  # the exit contract's one-line errors
            return
        if not marks:
            return
        (curve,) = marks
        lo, hi = speed_crossings(params, 40.0)
        ends = [max(lo, 0.0), min(hi, math.pi / 2)]
        angles, speeds = curve.xs, curve.ys
        assert len(angles) <= 200
        assert all(0.0 <= a < b <= 90.0 for a, b in zip(angles, angles[1:]))
        assert all(0.0 < v <= 40.0 for v in speeds[1:-1])

        def at_most_the_top(angle, v):
            # the kernel's speed at a crossing of 40 m/s strays from it by
            # TestSpeedCrossings's bound; at a clamp it is below 40 m/s
            slope = v * abs(_speed_bends(math.atan2(params[0] - params[2], params[1]), angle)[1])
            return 0.0 < v <= 40.0 + 4 * (slope * math.ulp(max(angle, 1.0)) + math.ulp(40.0))

        assert angles[-1] == math.degrees(ends[1]) and at_most_the_top(ends[1], speeds[-1])
        if solver._hoop_speed(*params, ends[0]) is None:
            # a low end with no speed gives way to the nearest found with
            # one, above the panel where the halving finds such a speed
            assert angles[0] >= math.degrees(ends[0]) and speeds[0] > 0.0
        else:
            assert angles[0] == math.degrees(ends[0]) and at_most_the_top(ends[0], speeds[0])


class TestRequiredSpeedCurveInItsPanel:
    """Figure 4's curve at court scale: no vertex above the panel's top,
    and, where it spans the two crossings of 40 m/s, its vertices pair up
    about the optimum's pixel column, each pair written at one height (a
    vertex at the optimum pairs with itself)."""

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 4.0), d=st.floats(0.5, 20.0), h=st.floats(0.0, 4.0))
    @example(a=1.9, d=9.3, h=3.05)  # the first vertex was 4e-13 px above the top
    @example(a=1.7, d=10.0, h=3.05)
    @example(a=4.0, d=0.5, h=0.0)  # the low crossing is below 0 deg
    def test_inside_the_top_and_mirrored_about_the_optimum(self, a, d, h):
        params = ShotParams(a, d, h)
        _, scenes = build_basketball_ladder(params, [5.0], [a], (1.0, 1.0, 2))
        panel = scenes[3].panels[0]
        (curve,) = [m for m in panel.marks if m.kind == MarkKind.POLYLINE]
        space = panel.space
        left, top, width, height = clip_rects(render_svg(scenes[3]).decode())[0]
        px = [_pixel(v, space.x_range, (left, left + width)) for v in curve.xs]
        py = [_pixel(v, space.y_range, (top + height, top)) for v in curve.ys]
        assert min(py) >= top
        if speed_crossings(params, space.y_range[1])[0] > 0:
            theta = math.degrees(optimal_angle(params).angle)
            center = _pixel(theta, space.x_range, (left, left + width))
            for i in range((len(px) + 1) // 2):
                j = len(px) - 1 - i
                assert abs(px[i] + px[j] - 2.0 * center) <= 0.001, (i, px[i], px[j], center)
                assert f"{py[i]:.3f}" == f"{py[j]:.3f}"


def stage_5_vertices(scenes):
    """(x, y, space) of every polyline vertex of figures 6 and 7."""
    for scene in scenes[5:]:
        for panel in scene.panels:
            for mark in panel.marks:
                if mark.kind == MarkKind.POLYLINE:
                    for x, y in mark.points:
                        yield x, y, panel.space


class TestStage5PanelsHoldTheirData:
    """The optimum curves of figures 6 and 7 are never clipped: a range
    widens where the optima leave it, and otherwise keeps its default."""

    @pytest.mark.parametrize(
        "kwargs, count",
        [
            (dict(d_grid=solver.d_grid(1, 40, 0.5)), 240),  # speeds above 14 m/s
            (dict(altitudes=[3.5]), 86),  # angles below 40 deg
        ],
        ids=["long-grid", "release-above-the-hoop"],
    )
    def test_every_vertex_inside_its_panel(self, kwargs, count):
        spec, scenes = build_basketball_ladder(**kwargs)
        vertices = list(stage_5_vertices(scenes))
        assert len(vertices) == count
        outside = [
            (x, y)
            for x, y, space in vertices
            if not (
                space.x_range[0] <= x <= space.x_range[1]
                and space.y_range[0] <= y <= space.y_range[1]
            )
        ]
        assert outside == []
        assert validate_ladder(spec) == []

    def test_figures_6_and_7_share_each_space(self):
        _, scenes = build_basketball_ladder(altitudes=[3.5], d_grid=solver.d_grid(1, 40, 0.5))
        assert [p.space for p in scenes[5].panels] == [p.space for p in scenes[6].panels]

    def test_default_ranges_kept(self, built):
        spec, _ = built
        assert [s.y_range for s in spec.stages[4].panels] == [(40.0, 80.0), (0.0, 14.0)]


def run_on_grid(directory: str, lo, hi, step) -> list[tuple[int, str, str]]:
    """The exit code, stdout and stderr of `sweep`, then of `figures`
    writing to directory/out, on a scenario file whose d_grid is lo, hi
    and step."""
    scenario = f"{directory}/grid.json"
    with open(scenario, "w", encoding="utf-8") as file:
        json.dump({"d_grid": {"lo": lo, "hi": hi, "step": step}}, file)
    return [
        run_captured([*argv, "--scenario", scenario])
        for argv in (["sweep"], ["figures", "--out", f"{directory}/out"])
    ]


def run_on_points(directory: str, lo, hi, step) -> list[tuple[int, str, str]]:
    """`run_on_grid` as the list path ran it: `sweep` over the points of
    `oracles.default_d_grid`, with `cli.run`'s exit codes, and `figures`
    with those points checked one by one by `oracles.check_figures_grid`
    and the shape's own order and distance checks switched off."""
    try:
        points = default_d_grid(lo, hi, step)
        sweep = (0, solver.sweep_csv([solver.sweep_distance(ShotParams(), points)]), "")
    except ValueError as exc:
        sweep = (1 if isinstance(exc, (VerticalShot, Infeasible)) else 2, "", f"{exc}\n")
    build = figures.build_basketball_ladder

    def build_from_points(params, velocities, altitudes, d_grid):
        check_figures_grid(points)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_check_order", lambda d_grid: None)
            patch.setattr(figures, "check_distance", lambda d: None)
            return build(params, velocities, altitudes, d_grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(figures, "build_basketball_ladder", build_from_points)
        return [sweep, run_on_grid(directory, lo, hi, step)[1]]


class TestStage5FromTheClosedForm:
    """Figures 6 and 7 draw theta*(d) and v*(d) between the grid's ends
    from the closed form, so the grid's step shapes only the sweep CSV."""

    def test_the_step_does_not_move_figures_6_and_7(self):
        drawn = set()
        for step in (0.1, 0.35, 1.0):  # each grid's last point is 15.0
            lo, step, n = d_grid = solver.d_grid(1.0, 15.0, step)
            assert lo + (n - 1) * step == 15.0
            _, scenes = build_basketball_ladder(altitudes=[1.2, 2.6], d_grid=d_grid)
            drawn.add(tuple(render_svg(s) for s in scenes[5:]))
        assert len(drawn) == 1

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((2.0**53, 2.0**53 + 4.0, 1.0), "d_grid must be strictly increasing"),
            ((1e307, 1.7e308, 1.79e308), "distance must be finite, got inf"),
            ((0.0, 2.0, 1.0), "distance must be positive, got 0.0"),
            ((-2.0, 1.0, 3.0), "distance must be positive, got -2.0"),
        ],
        ids=["not-increasing", "last-overflows", "zero", "negative"],
    )
    def test_a_bad_grid_is_rejected_as_the_sweep_rejects_it(self, tmp_path, grid, message):
        # a scenario file's lo, hi and step: both commands exit 2 with one message
        assert run_on_grid(str(tmp_path), *grid) == [(2, "", f"{message}\n")] * 2

    @settings(deadline=None, max_examples=150)
    @given(
        values=st.dictionaries(st.sampled_from(PARAM_FLAGS), ANY_VALUE, min_size=2),
        ends=st.just((2.0, 4.0)) | st.tuples(st.floats(1e-300, 1e300), st.floats(1.0, 1e300)),
    )
    @example(values={"--altitude": 0.0, "--hoop-height": 1.35}, ends=(1e-300, 1e300))
    def test_the_step_rule_ends_within_its_bound(self, values, ends):
        # TestExitContract's parameters, on small.json's grid ends or others:
        # each step is over 8 % of where it starts, so each curve has at
        # most 2 + ln(hi/lo)/ln(1.08) vertices
        lo, hi = ends[0], ends[0] * ends[1]
        assume(lo < hi < math.inf)
        step = hi - lo
        hi = lo + step  # the last point of the 2-point grid
        fields = dict(zip(PARAM_FLAGS, ShotParams._fields))
        try:
            params = ShotParams(**{fields[flag]: v for flag, v in values.items()})
            _, scenes = build_basketball_ladder(params, d_grid=(lo, step, 2))
        except ValueError:  # the exit contract's one-line errors
            return
        bound = 2 + math.log(hi / lo) / math.log(1.08)
        for scene in scenes[5:]:
            for mark in scene.panels[0].marks:
                if mark.kind == MarkKind.POLYLINE:
                    xs = mark.xs
                    assert xs[0] == lo and xs[-1] == hi and len(xs) <= bound
                    assert all(x1 > 1.08 * x0 for x0, x1 in zip(xs, xs[1:-1]))


@st.composite
def scenario_grids(draw):
    """A scenario file's d_grid (lo, hi, step) of 1 to 41 points, or one
    that `solver.d_grid` rejects: points on the court, a last point past
    the largest float, or a step of 0.25 to 4 ulp of |lo| from 2**40 to
    2**60, where lo + i * step can round to a point already made."""
    zone = draw(st.sampled_from(["court", "overflow", "stall"]))
    if zone == "court":
        lo = draw(st.floats(-20.0, 20.0) | st.sampled_from([0.0, -0.0, 5e-324, 1e-300]))
        step = draw(st.floats(1e-3, 10.0))
    elif zone == "overflow":
        lo = draw(st.floats(1e306, 1e308))
        step = draw(st.floats(1e307, 1.79e308))
    else:
        lo = draw(st.floats(2.0**40, 2.0**60)) * draw(st.sampled_from([1.0, -1.0]))
        step = draw(st.floats(0.25, 4.0)) * math.ulp(lo)
    intervals = draw(st.integers(0, 2) | st.integers(0, 40)) + draw(st.floats(-0.5, 0.5))
    hi = lo + intervals * step
    if zone == "overflow":  # a last point from rounding up past hi
        hi = min(hi, 1.7976931348623157e308)
    elif zone == "court" and draw(st.booleans()):  # more than MAX_GRID_POINTS
        hi = lo + draw(st.floats(1e5, 1e9)) * step
    assume(math.isfinite(hi))
    return lo, hi, step


class TestTheGridIsItsShape:
    """A scenario's d_grid is its shape (lo, step, n) from load to use:
    only `sweep` builds the points, and the figures check the grid from
    its ends, building its points only where they can stall."""

    @settings(deadline=None, max_examples=300)
    @given(grid=scenario_grids())
    @example(grid=(2.0**53, 2.0**53 + 4.0, 1.0))  # stalls: 2**53 + 1 rounds to 2**53
    @example(grid=(2.0**53, 2.0**53 + 16.0, 4.0))  # in the stall zone, but exact
    @example(grid=(1e307, 1.7e308, 1.79e308))  # the last point overflows
    @example(grid=(1.0, 1.0, 0.1))  # one point
    def test_figures_and_sweep_read_a_grid_as_the_list_path_did(self, grid):
        lo, hi, step = grid
        try:
            points = default_d_grid(lo, hi, step)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                solver.d_grid(lo, hi, step)
        else:
            assert solver.d_grid(lo, hi, step) == (lo, step, len(points))
        with tempfile.TemporaryDirectory() as directory:
            assert run_on_grid(directory, *grid) == run_on_points(directory, *grid)

    @pytest.mark.parametrize(
        "step, code, stderr",
        [(1.0, 2, "d_grid must be strictly increasing\n"), (4.0, 0, "")],
        ids=["stalls", "exact"],
    )
    def test_a_grid_at_2_to_the_53(self, tmp_path, step, code, stderr):
        # the spacing of floats there is 2: a step of 1 stalls, 4 does not
        results = run_on_grid(str(tmp_path), 2.0**53, 2.0**53 + 4.0 * step, step)
        assert [(c, e) for c, _, e in results] == [(code, stderr)] * 2

    def test_a_fine_grid_costs_the_figures_no_point(self, tmp_path, monkeypatch):
        # 99,994 points from 1 m to 15.00002 m: no order check, and the
        # kernel calls of the default set, which come from figures 4-5
        counts = {"_check_order": 0, "_hoop_speed": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(solver, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(solver, name, counted)
        assert run_captured(["figures", "--out", str(tmp_path / "default")])[0] == 0
        default = dict(counts)
        assert default["_check_order"] == 0 and default["_hoop_speed"] > 0
        scenario = tmp_path / "fine.json"
        scenario.write_text(json.dumps({"d_grid": {"lo": 1, "hi": 15, "step": 0.00014001}}))
        assert solver.d_grid(1, 15, 0.00014001)[2] == 99_994
        argv = ["figures", "--scenario", str(scenario), "--out", str(tmp_path / "fine")]
        assert run_captured(argv)[0] == 0
        assert counts == {"_check_order": 0, "_hoop_speed": 2 * default["_hoop_speed"]}


# four non-default figure sets, each file pinned by its SHA-256
PINNED_SETS = {
    # its two fastest shots rise above the 7 m court and are clipped
    "fan-leaves-the-court": (
        dict(
            params=ShotParams(release_altitude=2.5, distance=16.0),
            velocities=[5.0, 6.5, 8.0, 9.5, 11.0, 12.5, 14.0, 15.5, 17.0, 18.5, 20.0, 22.0],
            d_grid=solver.d_grid(1.0, 15.0, 0.5),
        ),
        {
            "figure_01.svg": "2103d3b79315953158a85f111c5324a77cac1360ef6c3ee104cc88f7722704cd",
            "figure_02.svg": "c2761575967ede73fac59b52562e0952969bb40d0dd6bc0851f8aa8d207d8e95",
            "figure_03.svg": "2070026ac7e7c8f7f261194c0532705cb0d5af022ffccd714f61bc5d1ccac644",
            "figure_04.svg": "dd547dbe2683fbf9797890ef45c32520433195389d01c6dfc218664fb2ab3075",
            "figure_05.svg": "4536106c06d378c4e1ed46823fd796ece8f307cdba814875cec3d0a886e4e8e7",
            "figure_06.svg": "fc406c2c4a1f5a49fe3bfaf3aea9d2127daed2038defa3f9e9d045f23363567e",
            "figure_07.svg": "a9180dd78d12a75ff07f256b63eedb3ecc0a40ff7640876edeb0cf2b9cca0278",
            "ladder.json": "dcc5ee8b796adadb3d267efbe4662e8c83e0cac45c0dea48651f15c09b66c60a",
        },
    ),
    "release-above-the-hoop": (
        dict(params=ShotParams(release_altitude=3.5)),
        {
            "figure_01.svg": "e3698099efdca1837dba1639d8f1fb292b7da48260e2457e9dd578ad5d18ba1d",
            "figure_02.svg": "c29ea5d8050dbf8af321efb0838984656596c24808c421ef85a6c973cb50b988",
            "figure_03.svg": "66a068da030f884bbf3e853bcb90649ad6c5e35f4dcaf3dc1f536320471b2ad9",
            "figure_04.svg": "bfcc76e6c318dc2841ee1ff7251a0e5cabf82f79cf5217796de4b9bd5e9216b5",
            "figure_05.svg": "1624fdb3348837edfefcb49b4f8409e0236396af6527420f62a22008cca49264",
            "figure_06.svg": "874b927ab50b6306a468cbddb793aafe251de96558f6c230c4cd5cdcea5d1b01",
            "figure_07.svg": "2a7b7527a1ab233a650b01fe45263a69db2d1bf9b38795bbc0ff3a620aa3c59b",
            "ladder.json": "ffc2860ad2e5bec56df6b811edc6a71d970f8fc36bbc04ed637cc38423566fc3",
        },
    ),
    "three-altitudes-on-a-1-m-grid": (
        dict(altitudes=[1.0, 2.0, 3.0], d_grid=solver.d_grid(1.0, 15.0, 1.0)),
        {
            "figure_01.svg": "abb315bef136173e48e545cb0ed27f3036232af90596222878689288a88dc948",
            "figure_02.svg": "c2122e3b3a7b51afa811117036917ab47aa495f11c77b4c3091d4d469807d9ad",
            "figure_03.svg": "e66883812ec4ac3582d4d393bcf05c18dc5a5dacf3428aa31be02ec7d9e48181",
            "figure_04.svg": "963888f30b677dcd64c74bd8b09baf7137c1d244b2900cc4ad529eab764962ca",
            "figure_05.svg": "944710781f0eaf9923b0c32da966888c52207757c5115f59d2204bec0f1eca35",
            "figure_06.svg": "71074d4b8dee162933a4deac31072f87acb44bd476a5628313fd0d55965d3c33",
            "figure_07.svg": "96447a4230593d5bef45bcf11fc34076800b3c1e1e09b9fe17df8564123601c1",
            "ladder.json": "d169c8572ca01e7379b0d141a019ba3c8b407c0c8c58a729059c98f681d2fb72",
        },
    ),
    # its required-speed curve is 0.04 deg wide, within 0.05 deg below 90 deg
    "the-curve-at-a-millimetre": (
        dict(params=ShotParams(distance=0.001)),
        {
            "figure_01.svg": "6cb20c486fd9d808ce908d17f89249101588b6a6f4cfd3aa5e46a6ecb80f4050",
            "figure_02.svg": "7898d53cf8f6d8eb8db288e54e0eef7bbdc83b804a922d52724cccbae53274b4",
            "figure_03.svg": "c919bf0a5b972c4ab56ac1c8269bf499feac66c57f52d82333d768845836f3e2",
            "figure_04.svg": "ecd72a4cbe52e5ab730dbb3af4c17bb382da82c972cee54c32ae0c3be6a95a59",
            "figure_05.svg": "5f25ea68449985738026045e0bcc4038d406cca66777c7fcf9b015e402f090aa",
            "figure_06.svg": "71074d4b8dee162933a4deac31072f87acb44bd476a5628313fd0d55965d3c33",
            "figure_07.svg": "a9180dd78d12a75ff07f256b63eedb3ecc0a40ff7640876edeb0cf2b9cca0278",
            "ladder.json": "e3d6f732ed9aefd59b80aed42e254191a18e441f2169874b04d2b2cc2506a62d",
        },
    ),
}


@pytest.mark.parametrize("kwargs, digests", PINNED_SETS.values(), ids=PINNED_SETS)
def test_non_default_figure_sets_are_byte_pinned(kwargs, digests):
    spec, scenes = build_basketball_ladder(**kwargs)
    files = {f"figure_{i:02d}.svg": render_svg(s) for i, s in enumerate(scenes, 1)}
    files["ladder.json"] = ladder_to_json(spec).encode()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == digests


# the start, control point and end of each <path> piece, by panel
PATH = r'<path d="M(\S+),(\S+) Q(\S+),(\S+) (\S+),(\S+)"'


def panel_paths(scene, index: int) -> list[tuple[str, ...]]:
    """The six written numbers of each <path> in panel index of scene."""
    group = render_svg(scene).decode().split(f'<g clip-path="url(#panel-{index})">')[1]
    return re.findall(PATH, group.split("</g>")[0])


def test_the_pinned_fan_is_clipped():
    # the two fastest of its twelve shots end above the 7 m court; each is
    # drawn as one piece from the release point to the top edge
    kwargs, _ = PINNED_SETS["fan-leaves-the-court"]
    scene = build_basketball_ladder(**kwargs)[1][1]
    top = scene.panels[1].space.y_range[1]
    curves = [m for m in scene.panels[1].marks if m.kind == MarkKind.QUADRATIC]
    assert [m.ys[-1] > top for m in curves] == [False] * 10 + [True] * 2
    ends = [piece[5] for piece in panel_paths(scene, 1)]
    assert len(ends) == 12 and ends[10:] == ["28.000", "28.000"] and "28.000" not in ends[:10]


class TestTrajectoryPieces:
    """How many <path> pieces a trajectory is drawn as: one where it
    stays in the court, two where it leaves the top and comes back, none
    where it never enters."""

    def test_a_shot_that_leaves_the_top_and_comes_back_is_two_pieces(self):
        # 22 m/s at 30 deg from 1.7 m peaks at 7.87 m, 21 m out, and is
        # back below 7 m at the 30 m hoop plane
        scene = build_basketball_ladder(params=ShotParams(distance=30.0), velocities=[22.0])[1][1]
        (rise, fall) = panel_paths(scene, 1)
        assert rise[5] == fall[1] == "28.000"
        assert float(rise[4]) < float(fall[0])

    def test_a_release_above_the_court(self):
        # from 9 m the 15 m/s shot stays above the 7 m court up to the hoop
        # plane, so the one-shot panel draws no <path>; the 5 m/s shot of
        # the fan falls into the court by its top edge and ends on the floor
        scene = build_basketball_ladder(params=ShotParams(release_altitude=9.0))[1][1]
        assert panel_paths(scene, 0) == []
        pieces = panel_paths(scene, 1)
        assert len(pieces) == 1 and (pieces[0][1], pieces[0][5]) == ("28.000", "412.000")

    def test_only_drawn_fan_shots_are_labelled(self):
        # from 9 m the 10, 15 and 20 m/s shots stay above the court and are
        # not drawn, so their labels are not written either: once they
        # piled up where the viewport's edge clamps their end points
        scene = build_basketball_ladder(params=ShotParams(release_altitude=9.0))[1][1]
        labels = [m.text for m in scene.panels[1].marks if m.kind == MarkKind.TEXT]
        assert labels == ["a = 9 m", "h = 3.05 m", "d = 10 m", "5"]
        assert len(re.findall(r'fill="#CC0000">', render_svg(scene).decode())) == 1

    def test_the_pinned_fan_keeps_its_clamped_labels(self):
        # the two shots that leave the top are drawn, so they are labelled,
        # each at its end point clamped onto the top edge
        kwargs, _ = PINNED_SETS["fan-leaves-the-court"]
        scene = build_basketball_ladder(**kwargs)[1][1]
        svg = render_svg(scene).decode().split('<g clip-path="url(#panel-1)">')[1]
        clamped = re.findall(r'y="28.000" [^>]*fill="#CC0000">([^<]*)<', svg)
        assert clamped == ["20", "22"]
        assert len(re.findall(r'fill="#CC0000">', svg)) == 12

    def test_a_shot_that_ends_on_the_floor(self):
        # the default 5 m/s shot lands 3.9 m out: its end is on the floor
        _, scenes = build_basketball_ladder()
        curve = next(m for m in scenes[1].panels[1].marks if m.kind == MarkKind.QUADRATIC)
        assert curve.ys[-1] == pytest.approx(0.0, abs=1e-12)
        assert panel_paths(scenes[1], 1)[0][4:] == ("435.331", "412.000")
