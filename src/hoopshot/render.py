"""Deterministic SVG rendering of scenes.

Output is a pure function of the scene: fixed palette, fixed dash
patterns, all numeric attributes formatted to exactly 3 decimal places
with a locale-independent decimal point, so repeated renders are
byte-identical and golden-file tests are stable.

Style constants (golden-file contract):
  colors   BASELINE #000000, CONCRETE #CC0000, SOLUTION #0000CC,
           OPTIMUM #00AA00
  dashes   DASHED "6.000,4.000", DOTTED "1.500,3.000"
  canvas   600x450 per scene by default; side-by-side panels split the
           width, stacked panels split the height equally
  margins  left 52, right 12, top 28, bottom 38 pixels per panel
  text     sans-serif: title 13, axis labels 11, TEXT marks 10 and the
           end-of-axis tick labels 9 pixels, black but for TEXT marks
  labels   "name (unit)" of each axis variable of the panel's PlotSpace
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from pathlib import Path

from .kinematics import checked_record
from .ladder import RANGE_TOL, ColorRole, PlotSpace

PALETTE = {
    ColorRole.BASELINE: "#000000",
    ColorRole.CONCRETE: "#CC0000",
    ColorRole.SOLUTION: "#0000CC",
    ColorRole.OPTIMUM: "#00AA00",
}

DEFAULT_SIZE = (600.0, 450.0)
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


class MarkKind(enum.Enum):
    POLYLINE = "polyline"
    POINT = "point"
    TEXT = "text"
    VLINE = "vline"
    HLINE = "hline"


class Dash(enum.Enum):
    SOLID = "solid"
    DASHED = "dashed"
    DOTTED = "dotted"


# the stroke-dasharray attribute of each dash, "" for a solid stroke
DASH_PATTERNS = {
    Dash.SOLID: "",
    Dash.DASHED: ' stroke-dasharray="6.000,4.000"',
    Dash.DOTTED: ' stroke-dasharray="1.500,3.000"',
}


class Style(checked_record("Style", "color_role dash width", (Dash.SOLID, 1.5))):
    __slots__ = ()

    def _check(self) -> None:
        if self.width <= 0:
            raise ValueError(f"stroke width must be positive, got {self.width}")


class Mark(checked_record("Mark", "kind style points value text size", ((), 0.0, "", 3.0))):
    """One drawable element, in the panel's data coordinates.  value is
    the x position of a VLINE and the y position of an HLINE; size is the
    radius of a POINT in pixels."""

    __slots__ = ()

    def _check(self) -> None:
        if self.kind is MarkKind.POLYLINE and len(self.points) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        if self.kind in (MarkKind.POINT, MarkKind.TEXT) and len(self.points) != 1:
            raise ValueError(f"{self.kind.value} needs exactly 1 anchor point")
        if self.kind is MarkKind.POINT and self.size <= 0:
            raise ValueError(f"point size must be positive, got {self.size}")


def polyline(pts, style: Style) -> Mark:
    return Mark(kind=MarkKind.POLYLINE, points=tuple(pts), style=style)


def point(x: float, y: float, style: Style, size: float = 3.0) -> Mark:
    return Mark(kind=MarkKind.POINT, points=((x, y),), style=style, size=size)


def text(x: float, y: float, label: str, style: Style) -> Mark:
    return Mark(kind=MarkKind.TEXT, points=((x, y),), text=label, style=style)


def vline(x: float, style: Style) -> Mark:
    return Mark(kind=MarkKind.VLINE, value=x, style=style)


def hline(y: float, style: Style) -> Mark:
    return Mark(kind=MarkKind.HLINE, value=y, style=style)


Panel = namedtuple("Panel", "space marks title", defaults=("",))


class Layout(enum.Enum):
    SINGLE = "single"
    SIDE_BY_SIDE = "side_by_side"
    STACKED_SHARED_X = "stacked_shared_x"


Scene = namedtuple("Scene", "panels layout size", defaults=(Layout.SINGLE, DEFAULT_SIZE))


class LinearScale(checked_record("LinearScale", "domain range")):
    __slots__ = ()

    def _check(self) -> None:
        if not self.domain[0] < self.domain[1]:
            raise ValueError(f"bad domain {self.domain}")
        if self.range[0] == self.range[1]:
            raise ValueError(f"degenerate range {self.range}")


def scale_map(scale: LinearScale, x: float) -> float:
    """Affine data-to-pixel map; extrapolates outside the domain."""
    d0, d1 = scale.domain
    r0, r1 = scale.range
    return r0 + (x - d0) * (r1 - r0) / (d1 - d0)


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _clip_segment(p0, p1, box):
    """Liang-Barsky clip of segment p0-p1 to box=(x0,y0,x1,y1).
    Returns the clipped segment, or None if it is fully outside or an
    end is not finite (a NaN or infinite vertex leaves a gap)."""
    x0, y0 = p0
    x1, y1 = p1
    bx0, by0, bx1, by1 = box
    dx = x1 - x0
    dy = y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - bx0),
        (dx, bx1 - x0),
        (-dy, y0 - by0),
        (dy, by1 - y0),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    clipped = (x0 + t0 * dx, y0 + t0 * dy), (x0 + t1 * dx, y0 + t1 * dy)
    if not all(map(math.isfinite, clipped[0] + clipped[1])):
        return None
    return clipped


def _stroke_attrs(style: Style) -> str:
    return (
        f'stroke="{PALETTE[style.color_role]}" '
        f'stroke-width="{_fmt(style.width)}" fill="none"'
        f"{DASH_PATTERNS[style.dash]}"
    )


# one writer per element kind written in more than one place
def _text(x, y, content: str, size: float, anchor="middle", fill="#000000", turn=False):
    """A <text> element; with turn, rotated -90 degrees about (x, y)."""
    rotate = f' transform="rotate(-90.000 {_fmt(x)} {_fmt(y)})"' if turn else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="{FONT_FAMILY}" '
        f'font-size="{_fmt(size)}" text-anchor="{anchor}"{rotate} '
        f'fill="{fill}">{_escape(content)}</text>'
    )


def _rect(box, attrs: str = "") -> str:
    x0, y0, x1, y1 = box
    return (
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y1 - y0)}"{attrs}/>'
    )


def _line(x1: float, y1: float, x2: float, y2: float, style: Style) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
        f'y2="{_fmt(y2)}" {_stroke_attrs(style)}/>'
    )


def _panel_rects(scene: Scene) -> list[tuple[float, float, float, float]]:
    w, h = scene.size
    n = len(scene.panels)
    if n == 0:
        return []
    if scene.layout is Layout.SINGLE or n == 1:
        return [(0.0, 0.0, w, h)] * n
    if scene.layout is Layout.SIDE_BY_SIDE:
        cw = w / n
        return [(i * cw, 0.0, cw, h) for i in range(n)]
    # stacked: equal heights, shared x checked by the caller
    ch = h / n
    return [(0.0, i * ch, w, ch) for i in range(n)]


def _viewport(rect) -> tuple[float, float, float, float]:
    """The plotting box (x0, y0, x1, y1): panel rectangle less margins."""
    px, py, pw, ph = rect
    return px + MARGIN_LEFT, py + MARGIN_TOP, px + pw - MARGIN_RIGHT, py + ph - MARGIN_BOTTOM


def _check_stacked(scene: Scene) -> None:
    first = scene.panels[0].space
    for panel in scene.panels[1:]:
        s = panel.space
        if s.x_var != first.x_var:
            raise LayoutError(
                f"stacked panels must share the x variable: {s.x_var} vs {first.x_var}"
            )
        if any(abs(a - b) > RANGE_TOL for a, b in zip(s.x_range, first.x_range)):
            raise LayoutError(
                f"stacked panels must share the x range: {s.x_range} vs {first.x_range}"
            )


def _render_panel(out: list[str], panel: Panel, rect, clip_id: str) -> None:
    px, py = rect[:2]
    box = vx0, vy0, vx1, vy1 = _viewport(rect)
    space = panel.space
    xs = LinearScale(domain=space.x_range, range=(vx0, vx1))
    ys = LinearScale(domain=space.y_range, range=(vy1, vy0))
    mid_x, mid_y = (vx0 + vx1) / 2, (vy0 + vy1) / 2

    out.append(_rect(box, ' stroke="#000000" stroke-width="1.000" fill="none"'))
    if panel.title:
        out.append(_text(mid_x, py + 18.0, panel.title, 13.0))
    x_label, y_label = (f"{name} ({unit})" for name, unit in (space.x_var, space.y_var))
    out.append(_text(mid_x, vy1 + 30.0, x_label, 11.0))
    out.append(_text(px + 14.0, mid_y, y_label, 11.0, turn=True))
    # end-of-axis tick labels
    for dv, anchor in zip(space.x_range, ("start", "end")):
        out.append(_text(scale_map(xs, dv), vy1 + 14.0, _fmt(dv), 9.0, anchor))
    for dv in space.y_range:
        out.append(_text(vx0 - 4.0, scale_map(ys, dv) + 3.0, _fmt(dv), 9.0, "end"))

    out.append(f'<g clip-path="url(#{clip_id})">')
    for mark in panel.marks:
        _render_mark(out, mark, xs, ys, box)
    out.append("</g>")


def _render_mark(out: list[str], mark: Mark, xs, ys, box) -> None:
    vx0, vy0, vx1, vy1 = box
    if mark.kind is MarkKind.POLYLINE:
        # scale_map inlined, with its operand order, so the bits match
        (xd0, xd1), (xr0, xr1) = xs.domain, xs.range
        (yd0, yd1), (yr0, yr1) = ys.domain, ys.range
        xk, xw, yk, yw = xr1 - xr0, xd1 - xd0, yr1 - yr0, yd1 - yd0
        pixels = [
            (xr0 + (x - xd0) * xk / xw, yr0 + (y - yd0) * yk / yw)
            for x, y in mark.points
        ]
        # an infinite box (an infinite scene) admits infinite vertices
        inside = (
            [vx0 <= x <= vx1 and vy0 <= y <= vy1 for x, y in pixels]
            if all(map(math.isfinite, box))
            else [False] * len(pixels)
        )
        # emit clipped segments so no coordinate escapes the viewport
        # every vertex inside and each in-box end (below) the next vertex:
        # the segments would all join, so the mark is one polyline of pixels
        if all(inside) and pixels[1:] == [
            (x0 + (x1 - x0), y0 + (y1 - y0))
            for (x0, y0), (x1, y1) in zip(pixels, pixels[1:])
        ]:
            segs = [pixels]
        else:
            segs = []
            for p0, p1, in0, in1 in zip(pixels, pixels[1:], inside, inside[1:]):
                if in0 and in1:
                    # Liang-Barsky's t0 = 0 and t1 = 1 are exact here: rounded
                    # subtraction and division are monotone, so every q/p is
                    # >= 1 for p > 0 and <= 0 for p < 0.  Its start x0 + 0*dx
                    # is p0 up to the sign of a zero, which == and _fmt ignore;
                    # its end x0 + 1*dx need not equal p1, and decides the join.
                    (x0, y0), (x1, y1) = p0, p1
                    clipped = (p0, (x0 + (x1 - x0), y0 + (y1 - y0)))
                else:
                    clipped = _clip_segment(p0, p1, box)
                    if clipped is None:
                        continue
                if segs and segs[-1][-1] == clipped[0]:
                    segs[-1].append(clipped[1])
                else:
                    segs.append([clipped[0], clipped[1]])
        attrs = _stroke_attrs(mark.style)
        for seg in segs:
            # every number has 3 decimals and a delimiter on each side, so
            # replacing "-0.000" applies _fmt's rule to whole numbers only
            coords = " ".join(["%.3f,%.3f" % xy for xy in seg])
            coords = coords.replace("-0.000", "0.000")
            out.append(f'<polyline points="{coords}" {attrs}/>')
    elif mark.kind is MarkKind.POINT:
        x = scale_map(xs, mark.points[0][0])
        y = scale_map(ys, mark.points[0][1])
        if vx0 <= x <= vx1 and vy0 <= y <= vy1:
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(mark.size)}" '
                f'fill="{PALETTE[mark.style.color_role]}" stroke="none"/>'
            )
    elif mark.kind is MarkKind.TEXT:
        x = min(max(scale_map(xs, mark.points[0][0]), vx0), vx1)
        y = min(max(scale_map(ys, mark.points[0][1]), vy0), vy1)
        out.append(_text(x, y, mark.text, 10.0, "start", PALETTE[mark.style.color_role]))
    elif mark.kind is MarkKind.VLINE:
        x = scale_map(xs, mark.value)
        if vx0 <= x <= vx1:
            out.append(_line(x, vy0, x, vy1, mark.style))
    elif mark.kind is MarkKind.HLINE:
        y = scale_map(ys, mark.value)
        if vy0 <= y <= vy1:
            out.append(_line(vx0, y, vx1, y, mark.style))


def render_svg(scene: Scene) -> bytes:
    """Render a scene to a standalone SVG 1.1 document."""
    if scene.layout is Layout.STACKED_SHARED_X and len(scene.panels) > 1:
        _check_stacked(scene)
    w, h = scene.size
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0.000 0.000 {_fmt(w)} {_fmt(h)}">'
    )
    rects = _panel_rects(scene)
    out.append("<defs>")
    for i, rect in enumerate(rects):
        out.append(f'<clipPath id="panel-{i}">{_rect(_viewport(rect))}</clipPath>')
    out.append("</defs>")
    out.append(_rect((0.0, 0.0, w, h), ' fill="#FFFFFF" stroke="none"'))
    for i, (panel, rect) in enumerate(zip(scene.panels, rects)):
        _render_panel(out, panel, rect, f"panel-{i}")
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def export_figures(scenes, directory) -> list[Path]:
    """Write scenes as figure_01.svg, figure_02.svg, ... in order."""
    directory = Path(directory)
    paths = []
    for i, scene in enumerate(scenes, start=1):
        path = directory / f"figure_{i:02d}.svg"
        try:
            path.write_bytes(render_svg(scene))
        except OSError as exc:
            raise OSError(f"cannot write figure to {path}: {exc}") from exc
        paths.append(path)
    return paths
