import html
import math
import os
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hoopshot.ladder import ColorRole, PlotSpace
from hoopshot.render import (
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    SIZE,
    Dash,
    LayoutError,
    Panel,
    Scene,
    Style,
    export_figures,
    hline,
    point,
    polyline,
    quadratic,
    render_svg,
    text,
    vline,
    _clip_quadratic,
    _clip_segment,
    _fmt,
    _STROKES,
)

BLACK = Style(color_role=ColorRole.BASELINE)
W, H = SIZE


def _pixel(v, domain, pixels):
    """The affine map of an axis's range onto its pixels, extrapolated, in
    the operand order the renderer inlines for every mark and tick label."""
    (d0, d1), (p0, p1) = domain, pixels
    return p0 + (v - d0) * (p1 - p0) / (d1 - d0)


def unit_space(x_range=(0.0, 10.0), y_range=(0.0, 10.0), x_name="x"):
    return PlotSpace(
        x_var=(x_name, "m"),
        y_var=("y", "m"),
        x_range=x_range,
        y_range=y_range,
    )


def one_panel_scene(marks, space=None):
    return Scene(
        panels=(
            Panel(
                space=space or unit_space(),
                marks=tuple(marks),
                title="test",
            ),
        ),
    )


def other_y(space):
    """space with another y variable: the same x axis, another quantity."""
    return space.replace(y_var=("z", "m"))


# where a panel is drawn, as (the space of the panel before it, or None
# where it is the only one, and its rectangle (x, y, width, height)): a
# single panel; the right-hand one of two in one space, side by side,
# whose viewport starts half the width across; and the lower one of two
# on one x axis with different y variables, stacked, whose viewport
# starts half the height down
PLACES = {
    "single": (None, (0.0, 0.0, W, H)),
    "right": (lambda space: space, (W / 2, 0.0, W / 2, H)),
    "lower": (other_y, (0.0, H / 2, W, H / 2)),
}


def placed_scene(marks, space, place):
    """A scene with marks in the panel at place, and that panel's rectangle."""
    before, rect = PLACES[place]
    panels = [Panel(before(space), ())] if before else []
    return Scene((*panels, Panel(space, tuple(marks)))), rect


# the viewports of two panels side by side, and of two stacked
SIDE_BY_SIDE = [(52.0, 28.0, 236.0, 384.0), (352.0, 28.0, 236.0, 384.0)]
STACKED = [(52.0, 28.0, 536.0, 159.0), (52.0, 253.0, 536.0, 159.0)]


def clip_rects(svg: str) -> list[tuple[float, float, float, float]]:
    """Each panel's viewport (x, y, width, height), from its <clipPath>."""
    rect = r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)"/>'
    return [tuple(map(float, m)) for m in re.findall(r'<clipPath id="panel-\d+">' + rect, svg)]


def viewport(rect):
    """The plotting box (x0, y0, x1, y1) of a panel rectangle."""
    px, py, pw, ph = rect
    return px + MARGIN_LEFT, py + MARGIN_TOP, px + pw - MARGIN_RIGHT, py + ph - MARGIN_BOTTOM


BOX = viewport((0.0, 0.0, W, H))


def row(n, stacked, marks=()):
    """n panels in one space, or, stacked, on one x axis with two y variables."""
    second = other_y(unit_space()) if stacked else unit_space()
    return Scene((Panel(unit_space(), marks),) + (Panel(second, marks),) * (n - 1))


class TestScaleMap:
    """`_pixel(v, domain, pixels)`: the affine map of an axis's range onto
    its pixels, extrapolated outside the range."""

    def test_midpoint(self):
        assert _pixel(0.5, (0.0, 1.0), (0.0, 100.0)) == 50.0

    def test_identity_when_domain_equals_range(self):
        assert _pixel(4.25, (2.0, 7.0), (2.0, 7.0)) == 4.25

    def test_affine_evaluation(self):
        assert _pixel(10.0, (0.0, 15.0), (40.0, 760.0)) == 520.0

    @given(x=st.floats(-1e6, 1e6))
    def test_invertible(self, x):
        round_tripped = _pixel(_pixel(x, (0.0, 15.0), (40.0, 760.0)), (40.0, 760.0), (0.0, 15.0))
        assert round_tripped == pytest.approx(x, rel=1e-9, abs=1e-9)

    def test_degenerate_inputs_rejected(self):
        # an axis is mapped only from a range lo < hi, which PlotSpace
        # checks, onto a viewport of positive size, which the layout checks
        with pytest.raises(ValueError):
            unit_space(x_range=(1.0, 1.0))
        with pytest.raises(LayoutError):
            render_svg(Scene((Panel(unit_space(), ()),) * 10))


class TestRenderSvg:
    def test_empty_scene(self):
        svg = render_svg(Scene(panels=())).decode()
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and "</svg>" in svg
        assert 'fill="#FFFFFF"' in svg

    def test_polyline_coordinates_hand_computed(self):
        space = unit_space()
        scene = one_panel_scene([polyline((0.0, 10.0), (0.0, 10.0), BLACK)], space)
        svg = render_svg(scene).decode()

        vx0, vy0, vx1, vy1 = BOX
        # (0,0) maps to bottom-left, (10,10) to top-right of the viewport
        expected = (
            f'points="{vx0:.3f},{vy1:.3f} {vx1:.3f},{vy0:.3f}"'
        )
        assert expected in svg

    def test_byte_identical_across_runs(self):
        scene = one_panel_scene(
            [polyline((1.0, 3.0, 5.0), (2.0, 4.0, 1.0), BLACK)]
        )
        assert render_svg(scene) == render_svg(scene)

    def test_three_decimal_formatting(self):
        scene = one_panel_scene([point(1.23456, 7.6543, BLACK)])
        svg = render_svg(scene).decode()
        for match in re.finditer(r'(?:cx|cy|x1|y1|x2|y2)="([^"]+)"', svg):
            assert re.fullmatch(r"-?\d+\.\d{3}", match.group(1))

    def test_color_palette(self):
        marks = [
            polyline((0.0, 1.0), (0.0, 1.0), Style(color_role=role))
            for role in ColorRole
        ]
        svg = render_svg(one_panel_scene(marks)).decode()
        for hex_color in ("#000000", "#CC0000", "#0000CC", "#00AA00"):
            assert hex_color in svg

    def test_dash_patterns_distinct(self):
        from hoopshot.render import Dash

        dashed = polyline(
            (0.0, 1.0),
            (0.0, 1.0),
            Style(color_role=ColorRole.BASELINE, dash=Dash.DASHED),
        )
        dotted = polyline(
            (0.0, 1.0),
            (0.0, 2.0),
            Style(color_role=ColorRole.BASELINE, dash=Dash.DOTTED),
        )
        svg = render_svg(one_panel_scene([dashed, dotted])).decode()
        assert 'stroke-dasharray="6.000,4.000"' in svg
        assert 'stroke-dasharray="1.500,3.000"' in svg

    def test_marks_clipped_to_viewport(self):
        # a line shooting far outside the domain must be clipped
        wild = polyline((5.0, 500.0), (5.0, 5000.0), BLACK)
        scene = one_panel_scene([wild])
        svg = render_svg(scene).decode()
        for match in re.finditer(r'points="([^"]+)"', svg):
            for pair in match.group(1).split():
                x, y = map(float, pair.split(","))
                assert BOX[0] - 1e-6 <= x <= BOX[2] + 1e-6
                assert BOX[1] - 1e-6 <= y <= BOX[3] + 1e-6

    def test_segment_beyond_one_edge_is_not_drawn(self):
        # both ends lie above the viewport, yet the clip's rounding alone
        # made them a zero-length segment at (100, 32), inside it
        assert _clip_segment((100.0, -1e17), (100.0, 27.9), BOX) is None
        # these map to the pixels (100, -1e17) and (100, 27.9) up to rounding
        space = unit_space(x_range=(52.0, 588.0), y_range=(0.0, 384.0))
        mark = polyline((100.0, 100.0), (1e17, 384.1), BLACK)
        assert polyline_points(render_svg(one_panel_scene([mark], space)).decode()) == []

    def test_point_outside_viewport_dropped(self):
        scene = one_panel_scene([point(50.0, 50.0, BLACK)])
        svg = render_svg(scene).decode()
        assert "<circle" not in svg

    @pytest.mark.parametrize(
        "second, stacked",
        [
            # one space: side by side, so the panels can be compared
            (unit_space(), False),
            # one x axis, another y variable: stacked, so the x axes line up
            (other_y(unit_space()), True),
            # another x range, by far less than 1e-9: side by side
            (other_y(unit_space(x_range=(0.0, 10.0 + 1e-12))), False),
        ],
        ids=["one space", "shared x", "other x range"],
    )
    def test_placement_rule(self, second, stacked):
        svg = render_svg(Scene((Panel(unit_space(), ()), Panel(second, ())))).decode()
        assert clip_rects(svg) == (STACKED if stacked else SIDE_BY_SIDE)

    def test_stacked_requires_shared_x(self):
        # x ranges 2e-10 apart at one end: not one axis, however small the gap
        top = unit_space(x_range=(1e-10, 2e-10))
        bottom = other_y(unit_space(x_range=(1e-10, 4e-10)))
        svg = render_svg(Scene((Panel(top, ()), Panel(bottom, ())))).decode()
        assert clip_rects(svg) == SIDE_BY_SIDE

    def test_stacked_requires_same_x_var(self):
        bottom = other_y(unit_space(x_name="other"))
        svg = render_svg(Scene((Panel(unit_space(), ()), Panel(bottom, ())))).decode()
        assert clip_rects(svg) == SIDE_BY_SIDE

    @pytest.mark.parametrize(
        "layout, n, size",
        [("side_by_side", 10, "-4.000 x 384.000"), ("stacked_shared_x", 7, "536.000 x -1.714")],
    )
    def test_too_many_panels_raise(self, layout, n, size):
        # the margins of each panel would leave a viewport of negative size
        with pytest.raises(LayoutError) as raised:
            render_svg(row(n, stacked=layout == "stacked_shared_x"))
        assert str(raised.value) == f"{n} {layout} panels leave a {size} px viewport"

    @pytest.mark.parametrize("layout, n", [("side_by_side", 9), ("stacked_shared_x", 6)])
    def test_most_panels_that_fit_render(self, layout, n):
        mark = polyline((1.0, 9.0), (1.0, 9.0), BLACK)
        svg = render_svg(row(n, stacked=layout == "stacked_shared_x", marks=(mark,))).decode()
        assert len(polyline_points(svg)) == n
        assert not re.search(r'(?:width|height)="-', svg)

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
            polyline((0.0,), (0.0,), BLACK)
        with pytest.raises(ValueError):
            point(0.0, 0.0, BLACK, size=0.0)
        with pytest.raises(ValueError, match="^quadratic needs exactly 3 control points$"):
            quadratic((0.0, 1.0), (0.0, 1.0), BLACK)
        for anchored in (point(0.0, 0.0, BLACK), text(0.0, 0.0, "t", BLACK)):
            with pytest.raises(ValueError, match=f"^{anchored.kind.value} needs exactly 1 anchor"):
                anchored._replace(xs=(0.0, 1.0), ys=(0.0, 1.0))

    def test_points_pairs_the_columns(self):
        mark = polyline((0.0, 1.0, 2.0), (3.0, 4.0, 5.0), BLACK)
        assert mark.points == tuple(zip(mark.xs, mark.ys)) == ((0.0, 3.0), (1.0, 4.0), (2.0, 5.0))
        assert point(1.0, 2.0, BLACK).points == text(1.0, 2.0, "t", BLACK).points == ((1.0, 2.0),)


SPACE = unit_space(x_range=(-2.0, 8.0), y_range=(0.0, 5.0))


def _pixels(x, y, vx0, vy0, vx1, vy1):
    """The pixel of the data point (x, y) of SPACE in the viewport."""
    return _pixel(x, SPACE.x_range, (vx0, vx1)), _pixel(y, SPACE.y_range, (vy1, vy0))


def shown(points) -> bool:
    """Whether points (pixels) span 0.0005 px, half a printed unit, one
    way or the other: the renderer writes no piece that does not."""
    return any(max(column) - min(column) >= 0.0005 for column in zip(*points))


def reference_polylines(mark, rect):
    """The <polyline> elements of one mark in a panel of SPACE drawn in
    rect = (x, y, width, height), built segment by segment from _pixel,
    _clip_segment and _fmt; a piece whose points span under 0.0005 px,
    half a printed unit, both ways is not written."""
    vx0, vy0, vx1, vy1 = viewport(rect)
    pixels = [_pixels(x, y, vx0, vy0, vx1, vy1) for x, y in mark.points]
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
        f"{_STROKES[mark.style]}/>"
        for seg in segs
        if shown(seg)
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

# long marks: runs of up to 50 vertices inside the box (a mapped vertex
# is inside exactly when its data point is, and a data edge maps onto
# the pixel edge), vertices exactly on an edge, and the vertices above,
# so a run starts and ends on an edge, at a crossing or at a gap
inside = st.tuples(st.floats(*SPACE.x_range), st.floats(*SPACE.y_range))
on_edge = st.one_of(
    st.tuples(st.sampled_from(SPACE.x_range), st.floats(*SPACE.y_range)),
    st.tuples(st.floats(*SPACE.x_range), st.sampled_from(SPACE.y_range)),
)
long_marks = st.lists(
    st.one_of(st.lists(inside, min_size=1, max_size=50), st.lists(on_edge, max_size=2), vertices),
    min_size=1,
    max_size=6,
).map(lambda pieces: [xy for piece in pieces for xy in piece]).filter(lambda pts: len(pts) >= 2)


class TestPolylineMatchesSegmentwiseReference:
    @settings(max_examples=600, deadline=None)
    @given(
        pts=st.one_of(vertices.filter(lambda pts: len(pts) >= 2), long_marks),
        dash=st.sampled_from(Dash),
        place=st.sampled_from(list(PLACES)),
    )
    @example(  # box edges, a repeated vertex, corner to corner, then inside
        pts=[(-2.0, 0.0), (-2.0, 0.0), (8.0, 0.0), (8.0, 5.0), (-2.0, 5.0), (3.0, 2.5)],
        dash=Dash.SOLID,
        place="single",
    )
    @example(  # a run from the left edge to the top edge, out, back in on the right edge
        pts=[(-2.0, 1.0), *[(0.1 * i, 1.0 + 0.05 * i) for i in range(60)], (5.0, 5.0),
             (9.0, 6.0), (8.0, 2.0), (3.0, 2.0), (3.0, 0.0)],
        dash=Dash.SOLID,
        place="right",
    )
    @example(  # in the lower panel, a run from the top edge out of the bottom one, then in
        pts=[(3.0, 5.0), *[(0.1 * i, 5.0 - 0.05 * i) for i in range(60)], (4.0, -1.0),
             (8.0, 0.0), (2.0, 3.0)],
        dash=Dash.SOLID,
        place="lower",
    )
    def test_points_byte_equal(self, pts, dash, place):
        mark = polyline(*zip(*pts), Style(color_role=ColorRole.CONCRETE, dash=dash))
        scene, rect = placed_scene([mark], SPACE, place)
        svg = render_svg(scene).decode()
        assert re.findall(r"<polyline [^\n]*", svg) == reference_polylines(mark, rect)
        assert not NON_FINITE.search(" ".join(polyline_points(svg)))

    @pytest.mark.parametrize(
        "pts, count",
        [
            ([(0.0, 1.0), (1.0, 2.0), (2.5, 3.0), (6.0, 4.0)], 1),
            # these x map to pixels 460.5821241974569 and 53.12884459619533,
            # where x0 + (x1 - x0) gives 53.128844596195336: the vertex, not
            # that sum, ends the segment, so the mark does not split there
            ([(5.62280082457942, 1.0), (-1.978939466488893, 1.0), (3.0, 2.0)], 1),
        ],
        ids=["joined", "end-off-the-next-vertex"],
    )
    def test_all_inside(self, pts, count):
        mark = polyline(*zip(*pts), BLACK)
        svg = render_svg(one_panel_scene([mark], SPACE)).decode()
        polylines = re.findall(r"<polyline [^\n]*", svg)
        assert polylines == reference_polylines(mark, (0.0, 0.0, W, H))
        assert len(polylines) == count

    @settings(max_examples=300, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(st.floats(*SPACE.x_range), st.floats(*SPACE.y_range)),
            min_size=2,
            max_size=40,
        ),
        place=st.sampled_from(list(PLACES)),
    )
    @example(
        pts=[(5.62280082457942, 1.0), (-1.978939466488893, 1.0), (3.0, 2.0)],
        place="single",
    )
    def test_every_pixel_inside_is_one_polyline_of_the_vertices(self, pts, place):
        scene, rect = placed_scene([polyline(*zip(*pts), BLACK)], SPACE, place)
        vx0, vy0, vx1, vy1 = viewport(rect)
        pixels = [_pixels(x, y, vx0, vy0, vx1, vy1) for x, y in pts]
        assume(all(vx0 <= x <= vx1 and vy0 <= y <= vy1 for x, y in pixels))
        svg = render_svg(scene).decode()
        written = [" ".join(f"{x:.3f},{y:.3f}" for x, y in pixels)] if shown(pixels) else []
        assert polyline_points(svg) == written


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
        svg = render_svg(one_panel_scene([polyline(*zip(*pts), BLACK)])).decode()
        assert not NON_FINITE.search(" ".join(polyline_points(svg)))
        expected = [
            polyline_points(render_svg(one_panel_scene([polyline(*zip(*part), BLACK)])).decode())[0]
            for part in (self.FINITE[:2], self.FINITE[3:])
        ]
        assert polyline_points(svg) == expected

    @pytest.mark.parametrize(
        "pts",
        [[(1.0, 1.0), (math.nan, 2.0), (3.0, 3.0)], [(1.0, 1.0), (3.0, math.inf)]],
    )
    def test_no_finite_segment_draws_nothing(self, pts):
        svg = render_svg(one_panel_scene([polyline(*zip(*pts), BLACK)])).decode()
        assert polyline_points(svg) == []

    @pytest.mark.parametrize("anchor", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_text_anchor_is_dropped(self, anchor):
        # as a NaN POINT is; the clamp to the viewport would keep a NaN
        svg = render_svg(one_panel_scene([text(*anchor, "label", BLACK)])).decode()
        assert "label" not in svg
        assert not NON_FINITE.search(svg)

    @pytest.mark.parametrize(
        "anchor, axis, edge",
        [
            ((math.inf, 1.0), 0, 588.0),
            ((-math.inf, 1.0), 0, 52.0),
            ((1.0, math.inf), 1, 28.0),
            ((1.0, -math.inf), 1, 412.0),
        ],
    )
    def test_infinite_text_anchor_is_clamped_to_the_edge(self, anchor, axis, edge):
        svg = render_svg(one_panel_scene([text(*anchor, "label", BLACK)])).decode()
        xy = re.search(r'<text x="([^"]*)" y="([^"]*)"[^>]*>label<', svg).groups()
        assert float(xy[axis]) == edge


class TestExportFigures:
    def test_naming_and_order(self, tmp_path):
        # str paths in, str paths out, joined by os.path.join
        scenes = [one_panel_scene([]) for _ in range(3)]
        paths = export_figures(scenes, str(tmp_path))
        assert paths == [os.path.join(str(tmp_path), f"figure_0{i}.svg") for i in (1, 2, 3)]
        for p in paths:
            assert os.path.exists(p)

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


pixels = st.tuples(coordinate(BOX[0], BOX[2]), coordinate(BOX[1], BOX[3]))


def squared_distance(point, p0, p1):
    """The exact squared distance from point to the segment p0-p1."""
    (x, y), (x0, y0), (x1, y1) = (map(Fraction, p) for p in (point, p0, p1))
    dx, dy = x1 - x0, y1 - y0
    length = dx * dx + dy * dy
    t = min(max(((x - x0) * dx + (y - y0) * dy) / length, 0), 1) if length else 0
    return (x0 + t * dx - x) ** 2 + (y0 + t * dy - y) ** 2


class TestClipSegment:
    """A clipped end lies in the box; an end the clip moves lies exactly
    on a box edge and within half a printed unit (0.0005 px) of the
    exact segment between the two float vertices."""

    @pytest.mark.parametrize(
        "p0, p1, clipped",
        [
            # y0 + t*dy cancelled against the far vertex: the clip began at y = 32
            ((263.665, -1e17), (263.665, 288.642), ((263.665, 28.0), (263.665, 288.642))),
            # both vertices far away: the line y = x enters at x = 52, leaves at y = 412
            ((-1e17, -1e17), (1e17, 1e17), ((52.0, 52.0), (412.0, 412.0))),
            ((1e300, 1e300), (-1e300, -1e300), ((412.0, 412.0), (52.0, 52.0))),
        ],
    )
    def test_moved_end_on_the_edge_that_moved_it(self, p0, p1, clipped):
        assert _clip_segment(p0, p1, BOX) == clipped

    @settings(max_examples=1000, deadline=None)
    @given(p0=pixels, p1=pixels)
    @example(p0=(263.665, -1e17), p1=(263.665, 288.642))
    @example(p0=(-1e17, -1e17 + 3.0), p1=(1e17, 1e17))
    @example(p0=(0.0, 0.0), p1=(600.0, 440.0))  # through the corner (588, 431.2)
    def test_clipped_ends_in_box_and_on_segment(self, p0, p1):
        clipped = _clip_segment(p0, p1, BOX)
        if clipped is None:
            return
        assert all(map(math.isfinite, p0 + p1))
        x0, y0, x1, y1 = BOX
        for end, vertex in zip(clipped, (p0, p1)):
            x, y = end
            assert x0 <= x <= x1 and y0 <= y <= y1, (end, vertex)
            if end is not vertex:
                assert x in (x0, x1) or y in (y0, y1)
                assert squared_distance(end, p0, p1) <= Fraction(1, 2000) ** 2

    @settings(max_examples=300, deadline=None)
    @given(
        pts=vertices.filter(lambda pts: len(pts) >= 2),
        dots=st.lists(st.tuples(coordinate(*SPACE.x_range), coordinate(*SPACE.y_range))),
        rules=st.lists(st.tuples(st.booleans(), coordinate(*SPACE.x_range))),
        place=st.sampled_from(list(PLACES)),
    )
    def test_every_drawn_coordinate_in_the_viewport(self, pts, dots, rules, place):
        marks = [polyline(*zip(*pts), BLACK), *(point(x, y, BLACK) for x, y in dots)]
        marks += [(vline if v else hline)(at, BLACK) for v, at in rules]
        scene, rect = placed_scene(marks, SPACE, place)
        svg = render_svg(scene).decode()
        x0, y0, x1, y1 = viewport(rect)
        xy = [tuple(pair.split(",")) for pts in polyline_points(svg) for pair in pts.split()]
        xy += re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)
        for line in re.findall(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"', svg):
            xy += [line[:2], line[2:]]
        # a %.3f text is within half a printed unit of its value
        for x, y in xy:
            assert x0 - 0.0005 <= float(x) <= x1 + 0.0005, (x, y)
            assert y0 - 0.0005 <= float(y) <= y1 + 0.0005, (x, y)


class TestPolylineCoordinates:
    """No <polyline> coordinate is negative, so the writer needs no
    "-0.000" rule: each vertex it writes lies in a viewport, and every
    viewport lies in [52, 588] x [28, 412]."""

    @settings(max_examples=300, deadline=None)
    @given(
        pts=st.one_of(vertices.filter(lambda pts: len(pts) >= 2), long_marks),
        place=st.sampled_from(list(PLACES)),
    )
    @example(  # a gap at each non-finite vertex, then a segment clipped at two edges
        pts=[(-2.0, 0.0), (math.nan, 1.0), (3.0, 2.0), (math.inf, 4.0), (-1e300, -1e300), (8.0, 5.0)],
        place="lower",
    )
    def test_no_coordinate_starts_with_a_minus(self, pts, place):
        scene, _ = placed_scene([polyline(*zip(*pts), BLACK)], SPACE, place)
        coords = re.split("[ ,]", " ".join(polyline_points(render_svg(scene).decode())))
        assert [c for c in coords if c.startswith("-")] == []


# each <path>: the start, control point and end of one quadratic Bezier piece
PATH = re.compile(r'<path d="M(\S+),(\S+) Q(\S+),(\S+) (\S+),(\S+)"')


def exact_blossom(u, s0, s1):
    """The blossom at (s0, s1) of the float coordinates u, exactly."""
    u0, uc, u1 = map(Fraction, u)
    return (1 - s0) * (1 - s1) * u0 + ((1 - s0) * s1 + s0 * (1 - s1)) * uc + s0 * s1 * u1


def parameter(t):
    """The s of a clip parameter t = (s, 1 - s), from the smaller of the two."""
    s, r = t
    return Fraction(s) if s <= 0.5 else 1 - Fraction(r)


# a box (x0, y0, x1, y1), and a point as fractions of its width and height,
# exactly on an edge, near it, or anywhere from 3 widths before to 3 after
boxes = st.tuples(
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-2, 1e3), st.floats(1e-2, 1e3)
).map(lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))
fraction = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(-0.01, 0.01), st.floats(0.99, 1.01), st.floats(-3.0, 4.0)
)


class TestClipQuadratic:
    """The pieces of a quadratic Bezier curve in a box: each end is in the
    box; an end at s = 0 or 1 is the first or last control point, or lies
    on an edge, as every end the clip moves does, on the exact curve at
    its parameter; each control point is the exact blossom at the piece's
    (s0, s1); the pieces cover every part of the curve inside the box.  A
    trajectory (x linear in s) is cut into at most two pieces.  Tolerances
    are 2^-40 of the largest coordinate."""

    @settings(max_examples=500, deadline=None)
    @given(box=boxes, fractions=st.lists(fraction, min_size=6, max_size=6), trajectory=st.booleans())
    @example(  # leaves the top edge (y = 1) and comes back in: two pieces
        box=(0.0, 0.0, 1.0, 1.0), fractions=[0.0, 0.5, 0.5, 2.0, 1.0, 0.5], trajectory=True
    )
    @example(  # touches the top edge at its apex, s = 1/2: one piece
        box=(0.0, 0.0, 1.0, 1.0), fractions=[0.0, 0.0, 0.5, 2.0, 1.0, 0.0], trajectory=True
    )
    @example(  # enters by the top edge at s = 1/2, taken as 0.5000000000000001 in s and 0.5 in 1 - s
        box=(0.0, 32.63986627461668, 1.0, 1032.2292492596594),
        fractions=[0.0, 4.0, 1.0, 0.0, 0.0, 0.0],
        trajectory=False,
    )
    def test_pieces(self, box, fractions, trajectory):
        x0, y0, x1, y1 = box
        xs = [x0 + f * (x1 - x0) for f in fractions[0::2]]
        ys = [y0 + f * (y1 - y0) for f in fractions[1::2]]
        if trajectory:
            xs[1] = 0.5 * (xs[0] + xs[2])
        p0, c, p1 = zip(xs, ys)
        pieces = _clip_quadratic(p0, c, p1, box)
        tol = Fraction(max(map(abs, xs + ys + list(box)))) / 2**40
        last = -1
        for t0, t1, start, control, end in pieces:
            s0, s1 = parameter(t0), parameter(t1)
            assert last < s0 < s1 <= 1 or last < s0 == 0 < s1 <= 1
            last = s1
            for s, point, first in ((s0, start, p0), (s1, end, p1)):
                x, y = point
                assert x0 <= x <= x1 and y0 <= y <= y1, (point, box)
                if point != first or s not in (0.0, 1.0):
                    assert x in (x0, x1) or y in (y0, y1), (point, box)
                    assert abs(x - exact_blossom(xs, s, s)) <= tol
                    assert abs(y - exact_blossom(ys, s, s)) <= tol
            assert abs(control[0] - exact_blossom(xs, s0, s1)) <= tol
            assert abs(control[1] - exact_blossom(ys, s0, s1)) <= tol
        if trajectory:
            assert len(pieces) <= 2
        # every parameter whose point lies inside the box, by more than tol,
        # is drawn; every one drawn lies inside, within tol
        for i in range(33):
            s = Fraction(i, 32)
            x, y = exact_blossom(xs, s, s), exact_blossom(ys, s, s)
            drawn = any(parameter(t0) <= s <= parameter(t1) for t0, t1, *_ in pieces)
            if x0 + tol < x < x1 - tol and y0 + tol < y < y1 - tol:
                assert drawn, (s, pieces)
            if drawn:
                assert x0 - tol <= x <= x1 + tol and y0 - tol <= y <= y1 + tol

    def test_a_curve_in_the_box_is_its_control_points(self):
        assert _clip_quadratic((60.0, 400.0), (300.0, 30.0), (580.0, 200.0), BOX) == [
            ((0.0, 1.0), (1.0, 0.0), (60.0, 400.0), (300.0, 30.0), (580.0, 200.0))
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(6))
    def test_a_non_finite_control_point_writes_nothing(self, bad, index):
        values = [1.0, 1.0, 5.0, 9.0, 9.0, 1.0]
        values[index] = bad
        mark = quadratic(values[0::2], values[1::2], BLACK)
        svg = render_svg(one_panel_scene([mark])).decode()
        assert "<path" not in svg and not NON_FINITE.search(svg)

    def test_a_huge_curve_is_cut_where_it_leaves_and_comes_back(self):
        # the squares of these pixels overflow, so the roots are taken at a
        # power-of-two scale; the curve leaves the box within about 1e-300
        # of s = 0 and comes back as near s = 1, which only 1 - s resolves:
        # two straight pieces, each with its control point halfway
        mark = quadratic((1.0, 5.0, 9.0), (5.0, 1e300, 2.0), BLACK)
        rise, fall = PATH.findall(render_svg(one_panel_scene([mark])).decode())
        x0, x1 = (_pixel(x, (0.0, 10.0), BOX[0::2]) for x in (1.0, 9.0))
        y0, y1 = (_pixel(y, (0.0, 10.0), BOX[3:0:-2]) for y in (5.0, 2.0))
        top = BOX[1]
        assert rise == tuple(f"{v:.3f}" for v in (x0, y0, x0, (y0 + top) / 2, x0, top))
        assert fall == tuple(f"{v:.3f}" for v in (x1, top, x1, (y1 + top) / 2, x1, y1))

    def test_the_path_writes_each_piece(self):
        # the parabola y = 4s(1 - s) * 20 over x = 10 s rises out of the
        # 0-10 box at y = 10 and falls back in: two pieces, ends on the top edge
        mark = quadratic((0.0, 5.0, 10.0), (0.0, 40.0, 0.0), BLACK)
        pieces = PATH.findall(render_svg(one_panel_scene([mark])).decode())
        assert len(pieces) == 2
        (sx, sy, _, _, ex, ey), (sx2, sy2, *_), = pieces
        top, bottom = f"{BOX[1]:.3f}", f"{BOX[3]:.3f}"
        assert (sx, sy, ey, sy2) == (f"{BOX[0]:.3f}", bottom, top, top)
        assert float(ex) < float(sx2)


def reference_text(x, y, content, size, anchor="middle", fill="#000000", turn=False):
    """One <text> element, written on its own; with turn, rotated -90
    degrees about (x, y).  html.escape is the oracle of the escaping."""
    rotate = f' transform="rotate(-90.000 {x:.3f} {y:.3f})"' if turn else ""
    return (
        f'<text x="{x:.3f}" y="{y:.3f}" font-family="sans-serif" font-size="{size:.3f}" '
        f'text-anchor="{anchor}"{rotate} fill="{fill}">{html.escape(content, quote=False)}</text>'
    )


def reference_frame(panel, rect, clip_id):
    """The lines of a panel's frame in a panel rectangle, element by element
    from reference_text, _pixel and _fmt: its viewport's outline, its title
    if it has one, the axis labels, the end-of-axis tick labels of x and of
    y, and the opener of its clipped group."""
    px, py = rect[:2]
    vx0, vy0, vx1, vy1 = box = viewport(rect)
    space = panel.space
    mid_x, mid_y = (vx0 + vx1) / 2, (vy0 + vy1) / 2
    lines = [
        f'<rect x="{vx0:.3f}" y="{vy0:.3f}" width="{vx1 - vx0:.3f}" height="{vy1 - vy0:.3f}"'
        ' stroke="#000000" stroke-width="1.000" fill="none"/>'
    ]
    if panel.title:
        lines.append(reference_text(mid_x, py + 18.0, panel.title, 13.0))
    (x_name, x_unit), (y_name, y_unit) = space.x_var, space.y_var
    lines.append(reference_text(mid_x, vy1 + 30.0, f"{x_name} ({x_unit})", 11.0))
    lines.append(reference_text(px + 14.0, mid_y, f"{y_name} ({y_unit})", 11.0, turn=True))
    for v, anchor in zip(space.x_range, ("start", "end")):
        x = _pixel(v, space.x_range, box[0::2])
        lines.append(reference_text(x, vy1 + 14.0, _fmt(v), 9.0, anchor))
    for v in space.y_range:
        y = _pixel(v, space.y_range, box[3::-2])
        lines.append(reference_text(vx0 - 4.0, y + 3.0, _fmt(v), 9.0, "end"))
    return [*lines, f'<g clip-path="url(#{clip_id})">']


# range ends of every sign and size: +-0.0, subnormal, near the float range
frame_ends = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, -2.5]),
)
frame_ranges = st.tuples(frame_ends, frame_ends).map(sorted).filter(lambda r: r[0] < r[1])
# what XML escapes, and non-ASCII text, besides any text
frame_words = st.one_of(
    st.text(st.sampled_from("a Z&<>\"'é–✓😀;"), max_size=8),
    st.text(max_size=6),
)


class TestFrameMatchesReference:
    """A panel's frame, written through one template, equals the frame
    written element by element, byte for byte, and so does the document's
    head."""

    @settings(max_examples=200, deadline=None)
    @given(
        x_range=frame_ranges,
        y_range=frame_ranges,
        words=st.lists(frame_words, min_size=5, max_size=5),
        place=st.sampled_from(list(PLACES)),
    )
    @example(
        x_range=(-1e300, 1e300),  # the range's span overflows: a tick at nan
        y_range=(-0.0, 5e-324),
        words=["a & b", "<m>", "é – ✓", "s > 0", ""],
        place="single",
    )
    def test_the_frame_of_any_space_and_words(self, x_range, y_range, words, place):
        x_name, x_unit, y_name, y_unit, title = words
        space = PlotSpace((x_name, x_unit), (y_name, y_unit), tuple(x_range), tuple(y_range))
        # other_y stacks the lower panel under one with the y variable ("z", "m")
        assume(place != "lower" or space.y_var != ("z", "m"))
        scene, rect = placed_scene([], space, place)
        scene = scene._replace(panels=(*scene.panels[:-1], scene.panels[-1]._replace(title=title)))
        clip_id = f"panel-{len(scene.panels) - 1}"
        svg = render_svg(scene).decode()
        frame = "\n".join(reference_frame(scene.panels[-1], rect, clip_id))
        opener = f'<g clip-path="url(#{clip_id})">'
        end = svg.index(opener) + len(opener)  # an escaped word holds no "<"
        assert svg[end - len(frame) : end + 5] == frame + "\n</g>"

    def test_the_head_and_background(self):
        lines = render_svg(one_panel_scene([])).decode().split("\n")
        assert lines[:3] == [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{W:.3f}" '
            f'height="{H:.3f}" viewBox="0.000 0.000 {W:.3f} {H:.3f}">',
            "<defs>",
        ]
        assert lines[4:6] == [
            "</defs>",
            f'<rect x="0.000" y="0.000" width="{W:.3f}" height="{H:.3f}" fill="#FFFFFF" stroke="none"/>',
        ]
