import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hoopshot.figures import STAGES, build_basketball_ladder
from hoopshot.kinematics import ShotParams
from hoopshot.ladder import ColorRole, StrategyTag, validate_ladder
from hoopshot.render import Layout, MarkKind
from hoopshot.solver import default_d_grid, required_velocity


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

    def test_linear_parent_chain(self, built):
        spec, _ = built
        assert [s.parent for s in spec.stages] == [None, 1, 2, 3, 4]

    def test_every_stage_tagged(self, built):
        spec, _ = built
        for stage in spec.stages:
            assert stage.tags

    def test_expansion_and_unfixing_tags(self, built):
        spec, _ = built
        assert StrategyTag.EXPAND_SAMPLING in spec.stage(2).tags
        assert StrategyTag.UNFIX_PARAMETER in spec.stage(5).tags

    def test_role_introduction_ranks_climb(self, built):
        spec, _ = built
        introduced = []
        seen = set()
        for stage in spec.stages:
            new = stage.roles_used - seen
            introduced.extend(sorted(r.rank for r in new))
            seen |= stage.roles_used
        assert introduced == [0, 1, 2, 3]

    def test_captions_present(self, built):
        spec, _ = built
        for stage in spec.stages:
            assert stage.caption.strip()

    def test_stage_2_caption_when_the_fan_is_too_fast(self):
        # 12.2 m/s reaches the hoop at 30 deg, below the whole fan
        spec, _ = build_basketball_ladder(velocities=[15.0, 20.0], d_grid=[2.0, 3.0])
        assert spec.stage(2).caption.endswith(
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
        d_grid = default_d_grid(lo, lo + span, step)
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
        _, scenes = built
        assert [s.layout for s in scenes] == [
            Layout.SINGLE,
            Layout.SIDE_BY_SIDE,
            Layout.SINGLE,
            Layout.SINGLE,
            Layout.SIDE_BY_SIDE,
            Layout.STACKED_SHARED_X,
            Layout.STACKED_SHARED_X,
        ]

    def test_velocity_fan_labels_at_path_ends(self, built):
        _, scenes = built
        fan_panel = scenes[1].panels[1]
        labels = [m for m in fan_panel.marks if m.kind is MarkKind.TEXT]
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
                if m.kind is MarkKind.POINT
                and m.style.color_role is ColorRole.SOLUTION
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
            if m.style.color_role is ColorRole.OPTIMUM
        ]
        kinds = {m.kind for m in green}
        assert MarkKind.VLINE in kinds
        assert MarkKind.HLINE in kinds
        assert MarkKind.POINT in kinds

    def test_altitude_scene_has_three_curves_per_panel(self, built):
        _, scenes = built
        for panel in scenes[6].panels:
            curves = [m for m in panel.marks if m.kind is MarkKind.POLYLINE]
            assert len(curves) == 3

    def test_stacked_scenes_share_x(self, built):
        _, scenes = built
        for scene in (scenes[5], scenes[6]):
            spaces = [p.space for p in scene.panels]
            assert spaces[0].x_var == spaces[1].x_var
            assert spaces[0].x_range == spaces[1].x_range


class TestCustomInputs:
    def test_custom_grid_sets_distance_range(self):
        spec, _ = build_basketball_ladder(d_grid=[2.0, 3.0, 4.0])
        top_space = spec.stage(5).panels[0]
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
        spec, _ = build_basketball_ladder(altitudes=altitudes, d_grid=[2.0, 3.0])
        assert spec.stage(5).caption == (
            f"Optimal angle and speed as the distance varies, then for {count}."
        )

    def test_custom_velocities_label_fan(self):
        _, scenes = build_basketball_ladder(velocities=[6.0, 9.0])
        fan_panel = scenes[1].panels[1]
        labels = {m.text for m in fan_panel.marks if m.kind is MarkKind.TEXT}
        assert {"6", "9"} <= labels
