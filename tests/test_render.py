import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from hoopshot.ladder import ColorRole, PlotSpace
from hoopshot.render import (
    DEFAULT_SIZE,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    Dash,
    Layout,
    LayoutError,
    LinearScale,
    Panel,
    Scene,
    Style,
    export_figures,
    point,
    polyline,
    render_svg,
    scale_map,
    text,
    _clip_segment,
    _fmt,
    _stroke_attrs,
)

BLACK = Style(color_role=ColorRole.BASELINE)


def unit_space(x_range=(0.0, 10.0), y_range=(0.0, 10.0), x_name="x"):
    return PlotSpace(
        x_var=(x_name, "m"),
        y_var=("y", "m"),
        x_range=x_range,
        y_range=y_range,
    )


def one_panel_scene(marks, space=None, size=DEFAULT_SIZE):
    return Scene(
        panels=(
            Panel(
                space=space or unit_space(),
                marks=tuple(marks),
                title="test",
            ),
        ),
        layout=Layout.SINGLE,
        size=size,
    )


class TestScaleMap:
    def test_midpoint(self):
        assert scale_map(LinearScale((0.0, 1.0), (0.0, 100.0)), 0.5) == 50.0

    def test_identity_when_domain_equals_range(self):
        scale = LinearScale((2.0, 7.0), (2.0, 7.0))
        assert scale_map(scale, 4.25) == 4.25

    def test_affine_evaluation(self):
        assert scale_map(LinearScale((0.0, 15.0), (40.0, 760.0)), 10.0) == 520.0

    @given(x=st.floats(-1e6, 1e6))
    def test_invertible(self, x):
        forward = LinearScale((0.0, 15.0), (40.0, 760.0))
        backward = LinearScale((40.0, 760.0), (0.0, 15.0))
        round_tripped = scale_map(backward, scale_map(forward, x))
        assert round_tripped == pytest.approx(x, rel=1e-9, abs=1e-9)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            LinearScale((1.0, 1.0), (0.0, 10.0))
        with pytest.raises(ValueError):
            LinearScale((0.0, 1.0), (5.0, 5.0))


class TestRenderSvg:
    def test_empty_scene(self):
        svg = render_svg(Scene(panels=(), layout=Layout.SINGLE)).decode()
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and "</svg>" in svg
        assert 'fill="#FFFFFF"' in svg

    def test_polyline_coordinates_hand_computed(self):
        space = unit_space()
        scene = one_panel_scene([polyline([(0.0, 0.0), (10.0, 10.0)], BLACK)], space)
        svg = render_svg(scene).decode()

        w, h = scene.size
        vx0, vx1 = MARGIN_LEFT, w - MARGIN_RIGHT
        vy0, vy1 = MARGIN_TOP, h - MARGIN_BOTTOM
        # (0,0) maps to bottom-left, (10,10) to top-right of the viewport
        expected = (
            f'points="{vx0:.3f},{vy1:.3f} {vx1:.3f},{vy0:.3f}"'
        )
        assert expected in svg

    def test_byte_identical_across_runs(self):
        scene = one_panel_scene(
            [polyline([(1.0, 2.0), (3.0, 4.0), (5.0, 1.0)], BLACK)]
        )
        assert render_svg(scene) == render_svg(scene)

    def test_three_decimal_formatting(self):
        scene = one_panel_scene([point(1.23456, 7.6543, BLACK)])
        svg = render_svg(scene).decode()
        for match in re.finditer(r'(?:cx|cy|x1|y1|x2|y2)="([^"]+)"', svg):
            assert re.fullmatch(r"-?\d+\.\d{3}", match.group(1))

    def test_color_palette(self):
        marks = [
            polyline([(0.0, 0.0), (1.0, 1.0)], Style(color_role=role))
            for role in ColorRole
        ]
        svg = render_svg(one_panel_scene(marks)).decode()
        for hex_color in ("#000000", "#CC0000", "#0000CC", "#00AA00"):
            assert hex_color in svg

    def test_dash_patterns_distinct(self):
        from hoopshot.render import Dash

        dashed = polyline(
            [(0.0, 0.0), (1.0, 1.0)],
            Style(color_role=ColorRole.BASELINE, dash=Dash.DASHED),
        )
        dotted = polyline(
            [(0.0, 0.0), (1.0, 2.0)],
            Style(color_role=ColorRole.BASELINE, dash=Dash.DOTTED),
        )
        svg = render_svg(one_panel_scene([dashed, dotted])).decode()
        assert 'stroke-dasharray="6.000,4.000"' in svg
        assert 'stroke-dasharray="1.500,3.000"' in svg

    def test_marks_clipped_to_viewport(self):
        # a line shooting far outside the domain must be clipped
        wild = polyline([(5.0, 5.0), (500.0, 5000.0)], BLACK)
        scene = one_panel_scene([wild])
        svg = render_svg(scene).decode()
        w, h = scene.size
        for match in re.finditer(r'points="([^"]+)"', svg):
            for pair in match.group(1).split():
                x, y = map(float, pair.split(","))
                assert MARGIN_LEFT - 1e-6 <= x <= w - MARGIN_RIGHT + 1e-6
                assert MARGIN_TOP - 1e-6 <= y <= h - MARGIN_BOTTOM + 1e-6

    def test_point_outside_viewport_dropped(self):
        scene = one_panel_scene([point(50.0, 50.0, BLACK)])
        svg = render_svg(scene).decode()
        assert "<circle" not in svg

    def test_stacked_requires_shared_x(self):
        top = Panel(space=unit_space(x_range=(0.0, 10.0)), marks=())
        bottom = Panel(space=unit_space(x_range=(0.0, 12.0)), marks=())
        scene = Scene(panels=(top, bottom), layout=Layout.STACKED_SHARED_X)
        with pytest.raises(LayoutError):
            render_svg(scene)

    def test_stacked_requires_same_x_var(self):
        top = Panel(space=unit_space(), marks=())
        bottom = Panel(space=unit_space(x_name="other"), marks=())
        scene = Scene(panels=(top, bottom), layout=Layout.STACKED_SHARED_X)
        with pytest.raises(LayoutError):
            render_svg(scene)

    def test_axis_labels_from_the_space(self):
        space = PlotSpace(
            x_var=("launch angle", "deg"),
            y_var=("a < b", "m/s"),
            x_range=(0.0, 90.0),
            y_range=(0.0, 40.0),
        )
        svg = render_svg(one_panel_scene([], space)).decode()
        assert ">launch angle (deg)</text>" in svg
        assert ">a &lt; b (m/s)</text>" in svg

    def test_text_escaped(self):
        scene = one_panel_scene([text(5.0, 5.0, "a < b & c", BLACK)])
        svg = render_svg(scene).decode()
        assert "a &lt; b &amp; c" in svg

    def test_mark_invariants(self):
        with pytest.raises(ValueError):
            polyline([(0.0, 0.0)], BLACK)
        with pytest.raises(ValueError):
            point(0.0, 0.0, BLACK, size=0.0)
        with pytest.raises(ValueError):
            Style(color_role=ColorRole.BASELINE, width=0.0)


SPACE = unit_space(x_range=(-2.0, 8.0), y_range=(0.0, 5.0))


def reference_polylines(mark, size):
    """The <polyline> elements of one mark in a single-panel scene of this
    size, built segment by segment from scale_map, _clip_segment and _fmt."""
    w, h = size
    vx0, vy0 = MARGIN_LEFT, MARGIN_TOP
    vx1, vy1 = w - MARGIN_RIGHT, h - MARGIN_BOTTOM
    xs = LinearScale(domain=SPACE.x_range, range=(vx0, vx1))
    ys = LinearScale(domain=SPACE.y_range, range=(vy1, vy0))
    pixels = [(scale_map(xs, x), scale_map(ys, y)) for x, y in mark.points]
    segs = []
    for p0, p1 in zip(pixels, pixels[1:]):
        clipped = _clip_segment(p0, p1, (vx0, vy0, vx1, vy1))
        if clipped is None:
            continue
        if segs and segs[-1][-1] == clipped[0]:
            segs[-1].append(clipped[1])
        else:
            segs.append(list(clipped))
    return [
        f'<polyline points="{" ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in seg)}" '
        f"{_stroke_attrs(mark.style)}/>"
        for seg in segs
    ]


def coordinate(lo, hi):
    span = hi - lo
    near = 0.01 * span
    return st.one_of(
        st.sampled_from([lo, hi]),  # on the box edge
        st.floats(lo - near, lo + near),  # next to it
        st.floats(hi - near, hi + near),
        st.floats(lo, hi),  # inside
        st.floats(lo - 2 * span, hi + 2 * span),  # crossing or outside
        st.floats(),  # anything, NaN and +-inf included
    )


vertices = st.lists(
    # a repeated vertex makes a zero-length segment
    st.tuples(coordinate(*SPACE.x_range), coordinate(*SPACE.y_range), st.booleans()),
    min_size=1,
    max_size=12,
).map(lambda drawn: [(x, y) for x, y, twice in drawn for _ in range(1 + twice)])


class TestPolylineMatchesSegmentwiseReference:
    @settings(max_examples=400, deadline=None)
    @given(
        pts=vertices.filter(lambda pts: len(pts) >= 2),
        dash=st.sampled_from(Dash),
        # the default canvas, a small one, one too small for its margins,
        # and an infinite one, whose box admits infinite vertices
        size=st.sampled_from(
            [DEFAULT_SIZE, (150.0, 120.0), (40.0, 30.0), (math.inf, math.inf)]
        ),
    )
    @example(  # box edges, a repeated vertex, corner to corner, then inside
        pts=[(-2.0, 0.0), (-2.0, 0.0), (8.0, 0.0), (8.0, 5.0), (-2.0, 5.0), (3.0, 2.5)],
        dash=Dash.SOLID,
        size=DEFAULT_SIZE,
    )
    def test_points_byte_equal(self, pts, dash, size):
        mark = polyline(pts, Style(color_role=ColorRole.CONCRETE, dash=dash))
        svg = render_svg(one_panel_scene([mark], SPACE, size)).decode()
        assert re.findall(r"<polyline [^\n]*", svg) == reference_polylines(mark, size)
        assert not NON_FINITE.search(" ".join(polyline_points(svg)))

    @pytest.mark.parametrize(
        "pts, count",
        [
            ([(0.0, 1.0), (1.0, 2.0), (2.5, 3.0), (6.0, 4.0)], 1),
            # these x map to pixels 460.5821241974569 and 53.12884459619533;
            # the in-box end of that segment is 53.128844596195336, so the
            # mark splits there
            ([(5.62280082457942, 1.0), (-1.978939466488893, 1.0), (3.0, 2.0)], 2),
        ],
        ids=["joined", "end-off-the-next-vertex"],
    )
    def test_all_inside(self, pts, count):
        mark = polyline(pts, BLACK)
        svg = render_svg(one_panel_scene([mark], SPACE)).decode()
        polylines = re.findall(r"<polyline [^\n]*", svg)
        assert polylines == reference_polylines(mark, DEFAULT_SIZE)
        assert len(polylines) == count


def polyline_points(svg):
    return re.findall(r'<polyline points="([^"]*)"', svg)


NON_FINITE = re.compile(r"nan|inf", re.IGNORECASE)


class TestNonFiniteVertices:
    """A NaN or infinite vertex leaves a gap: its two segments are not
    drawn, the finite ones on either side are."""

    FINITE = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_gap_instead_of_non_finite_points(self, bad, axis):
        pts = list(self.FINITE)
        pts[2] = (bad, 3.0) if axis == "x" else (3.0, bad)
        svg = render_svg(one_panel_scene([polyline(pts, BLACK)])).decode()
        assert not NON_FINITE.search(" ".join(polyline_points(svg)))
        expected = [
            polyline_points(render_svg(one_panel_scene([polyline(part, BLACK)])).decode())[0]
            for part in (self.FINITE[:2], self.FINITE[3:])
        ]
        assert polyline_points(svg) == expected

    @pytest.mark.parametrize(
        "pts",
        [[(1.0, 1.0), (math.nan, 2.0), (3.0, 3.0)], [(1.0, 1.0), (3.0, math.inf)]],
    )
    def test_no_finite_segment_draws_nothing(self, pts):
        svg = render_svg(one_panel_scene([polyline(pts, BLACK)])).decode()
        assert polyline_points(svg) == []

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf])
    def test_infinite_canvas(self, bad):
        pts = list(self.FINITE)
        if bad is not None:
            pts[2] = (bad, 3.0)
        scene = one_panel_scene([polyline(pts, BLACK)], size=(math.inf, math.inf))
        assert not NON_FINITE.search(" ".join(polyline_points(render_svg(scene).decode())))


class TestExportFigures:
    def test_naming_and_order(self, tmp_path):
        scenes = [one_panel_scene([]) for _ in range(3)]
        paths = export_figures(scenes, tmp_path)
        assert [p.name for p in paths] == [
            "figure_01.svg",
            "figure_02.svg",
            "figure_03.svg",
        ]
        for p in paths:
            assert p.exists()

    def test_empty_list(self, tmp_path):
        assert export_figures([], tmp_path) == []

    def test_unwritable_directory(self, tmp_path):
        target = tmp_path / "missing" / "nested"
        with pytest.raises(OSError) as excinfo:
            export_figures([one_panel_scene([])], target)
        assert str(target) in str(excinfo.value)

    def test_scene_permutation_only_permutes_contents(self, tmp_path):
        a = one_panel_scene([point(1.0, 1.0, BLACK)])
        b = one_panel_scene([point(2.0, 2.0, BLACK)])
        dir1 = tmp_path / "ab"
        dir2 = tmp_path / "ba"
        dir1.mkdir()
        dir2.mkdir()
        export_figures([a, b], dir1)
        export_figures([b, a], dir2)
        assert (dir1 / "figure_01.svg").read_bytes() == (
            dir2 / "figure_02.svg"
        ).read_bytes()
        assert (dir1 / "figure_02.svg").read_bytes() == (
            dir2 / "figure_01.svg"
        ).read_bytes()
