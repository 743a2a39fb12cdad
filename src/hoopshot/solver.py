"""Required launch velocity, feasibility boundary, optimal angle, sweeps.

The hoop-reaching speed for a given angle has the closed form

    v = sqrt(0.5*g*d^2 / (cos(theta)^2 * (d*tan(theta) + a - h)))

which is defined only above the feasibility angle atan((h-a)/d); at or
below it the ball passes under the hoop no matter how hard it is thrown.

The softest shot also has a closed form, which `optimal_angle` uses;
the tests check it against golden-section search and a grid scan.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .kinematics import MAX_GRID_POINTS, Infeasible, ShotParams, check_distance

DEFAULT_VELOCITIES = (5.0, 10.0, 15.0, 20.0)
DEFAULT_ALTITUDES = (1.2, 1.7, 2.2)


class InfeasibleAngle(Infeasible):
    """No finite speed reaches the hoop at this angle."""


class VelocityRequirement(namedtuple("VelocityRequirement", "angle speed")):
    """Required speed at one angle; speed is None when infeasible."""

    __slots__ = ()

    @property
    def feasible(self) -> bool:
        return self.speed is not None


# points: a VelocityRequirement per grid angle
AngleCurve = namedtuple("AngleCurve", "params points")


class Optimum(namedtuple("Optimum", "angle speed")):
    """Angle minimizing the required speed, and that minimal speed."""

    __slots__ = ()


# entries: (distance, Optimum) pairs
OptimumCurve = namedtuple("OptimumCurve", "release_altitude entries")


def required_velocity(params: ShotParams, angle: float) -> float:
    """Initial speed for which the ball's height at the hoop plane equals
    the hoop height.  Raises InfeasibleAngle at or below the feasibility
    angle, where the denominator of the closed form is non-positive, and
    ValueError when the speed overflows to a non-finite value."""
    return _hoop_speed(*params, angle)


def _hoop_speed(a: float, d: float, h: float, g: float, angle: float) -> float:
    """The closed form in the module docstring, with its checks; every
    hoop-reaching speed in this module comes from here."""
    if not angle < math.pi / 2:
        raise ValueError(f"angle must be below pi/2, got {angle}")
    c = math.cos(angle)
    denom = c * c * (d * math.tan(angle) + a - h)
    if denom <= 0:
        raise InfeasibleAngle(
            f"angle {math.degrees(angle):.3f} deg is at or below the "
            f"feasibility angle {math.degrees(_feasibility(a, d, h)):.3f} deg"
        )
    v = math.sqrt(0.5 * g * d * d / denom)
    if not math.isfinite(v):
        raise ValueError(f"required speed at angle {angle} rad is not finite: {v}")
    return v


def feasibility_angle(params: ShotParams) -> float:
    """atan((h-a)/d); negative when releasing above the hoop."""
    a, d, h, _ = params
    return _feasibility(a, d, h)


def _feasibility(a: float, d: float, h: float) -> float:
    return math.atan((h - a) / d)


def angle_curve(
    params: ShotParams, angle_lo: float, angle_hi: float, n: int
) -> AngleCurve:
    """Required velocity on an even angle grid.  Infeasible grid points
    are carried as markers, not dropped, so the curve can render the
    infeasible region."""
    if not angle_lo < angle_hi:
        raise ValueError(f"need angle_lo < angle_hi, got {angle_lo}, {angle_hi}")
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n}")
    points = []
    for i in range(n):
        angle = angle_lo + (angle_hi - angle_lo) * i / (n - 1)
        try:
            speed: float | None = _hoop_speed(*params, angle)
        except InfeasibleAngle:
            speed = None
        points.append(VelocityRequirement(angle, speed))
    return AngleCurve(params, tuple(points))


def optimal_angle(params: ShotParams) -> Optimum:
    """Angle requiring the softest hoop-reaching shot: pi/4 + phi/2, phi
    the feasibility angle, where v^2 = g*(sqrt(d^2 + (h-a)^2) + (h-a))
    (Brancazio, Am. J. Phys. 49, 356, 1981)."""
    return _optimum(*params)


def _optimum(a: float, d: float, h: float, g: float) -> Optimum:
    angle = math.pi / 4 + _feasibility(a, d, h) / 2
    return Optimum(angle, _hoop_speed(a, d, h, g, angle))


def default_d_grid(lo: float = 1.0, hi: float = 15.0, step: float = 0.1) -> list[float]:
    """Distances lo, lo + step, ... up to hi (the count rounded to the
    nearest step).  Raises ValueError for a non-finite bound or step, a
    non-positive step, lo > hi, or more than MAX_GRID_POINTS points."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"d_grid values must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise ValueError(f"d_grid.step must be positive, got {step}")
    if lo > hi:
        raise ValueError(f"d_grid.lo must not exceed d_grid.hi, got {lo} > {hi}")
    # round(intervals) + 1 points; compared before rounding, since
    # hi - lo may overflow to inf
    intervals = (hi - lo) / step
    if not intervals < MAX_GRID_POINTS - 0.5:
        raise ValueError(
            f"d_grid has more than {MAX_GRID_POINTS} points: {lo}..{hi} step {step}"
        )
    return [lo + i * step for i in range(round(intervals) + 1)]


def sweep_distance(params: ShotParams, d_grid: Sequence[float]) -> OptimumCurve:
    """Optimal angle and speed at each distance in d_grid, the other
    parameters taken from params.  Each distance is validated once, by
    the same check and message as `ShotParams.distance`, and no
    `ShotParams` is built per point: the result is `optimal_angle` of
    params at that distance, bit for bit."""
    if any(b <= a for a, b in zip(d_grid, d_grid[1:])):
        raise ValueError("d_grid must be strictly increasing")
    a, h, g = params.release_altitude, params.hoop_height, params.gravity
    entries = []
    for d in d_grid:
        check_distance(d)
        entries.append((d, _optimum(a, d, h, g)))
    return OptimumCurve(a, tuple(entries))


def sweep_altitudes(
    params: ShotParams, altitudes: Sequence[float], d_grid: Sequence[float]
) -> list[OptimumCurve]:
    """One distance sweep per release altitude, all on the same d_grid."""
    return [
        sweep_distance(params.replace(release_altitude=alt), d_grid)
        for alt in altitudes
    ]


def sweep_csv(curves: Sequence[OptimumCurve]) -> str:
    """CSV export: d,theta_opt_deg,v_opt,altitude with 6 decimal places."""
    rows = ["d,theta_opt_deg,v_opt,altitude\n"]
    for curve in curves:
        altitude = ",%.6f\n" % curve.release_altitude
        rows += [
            "%.6f,%.6f,%.6f%s" % (d, math.degrees(opt.angle), opt.speed, altitude)
            for d, opt in curve.entries
        ]
    return "".join(rows)
