"""Required launch velocity, feasibility boundary, optimal angle, sweeps.

The hoop-reaching speed for a given angle has the closed form

    v = sqrt(0.5*g*d^2 / (cos(theta)^2 * (d*tan(theta) + a - h)))

which is defined only above the feasibility angle atan((h-a)/d); at or
below it the ball passes under the hoop no matter how hard it is thrown.

The softest shot has a closed form too, with k = h - a and
r = sqrt(d^2 + k^2): tan(theta*) = (r + k)/d and v*^2 = g*(r + k), where
r + k = d^2/(r - k) when k < 0.  `optimal_angle` and the sweeps compute
it directly, not through the speed formula above; the tests check it
against golden-section search, a grid scan and a 50-digit oracle.
"""

import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from math import atan, atan2, cos, degrees, hypot, inf, isfinite, sqrt, tan
from operator import le

from .kinematics import MAX_GRID_POINTS, Infeasible, ShotParams, VerticalShot, check_distance

DEFAULT_VELOCITIES = (5.0, 10.0, 15.0, 20.0)
DEFAULT_ALTITUDES = (1.2, 1.7, 2.2)
_HALF_PI = math.pi / 2
_QUARTER_PI = math.pi / 4
_TINY = sys.float_info.min  # the least normal float
_EPS = sys.float_info.epsilon
# the most that the rounding of d*tan(theta) + (a - h) may move a required
# speed: half the printed unit of `velocity` and the stage-3 caption (%.1f),
# or, for a speed whose ulp is larger, the 64 ulp that bounds the speed
# from 1 deg above the feasibility angle (README)
SPEED_TOLERANCE = 0.05
_SPEED_ULPS = 64.0


class InfeasibleAngle(Infeasible):
    """No finite speed reaches the hoop at this angle."""


class Optimum(namedtuple("Optimum", "angle speed")):
    """Angle minimizing the required speed, and that minimal speed."""

    __slots__ = ()


# one tuple per column: the Optimum at distances[i] is (angles[i], speeds[i])
OptimumCurve = namedtuple("OptimumCurve", "release_altitude distances angles speeds")


def required_velocity(params: ShotParams, angle: float) -> float:
    """Initial speed for which the ball's height at the hoop plane equals
    the hoop height.  Raises InfeasibleAngle at or below the feasibility
    angle, where the denominator of the closed form is non-positive,
    Infeasible just above it, where the rounding of d*tan(angle) + (a - h)
    may move the speed by more than SPEED_TOLERANCE and 64 ulp, and
    ValueError when the speed overflows to a non-finite value."""
    a, d, h, g = params
    v = _hoop_speed(a, d, h, g, angle)
    if v is None:
        raise InfeasibleAngle(
            f"angle {degrees(angle):.3f} deg is at or below the "
            f"feasibility angle {degrees(feasibility_angle(params)):.3f} deg"
        )
    # tan is within an ulp and d*tan, a - h and their sum each round once,
    # so the float sum s is within 2*eps*(|d tan| + |a - h|) of the exact
    # one (bounded here at twice that); v ~ s^-1/2 then moves by at most
    # v*bound/(2(s - bound))
    t, k = d * tan(angle), a - h
    s, bound = t + k, 4.0 * _EPS * (abs(t) + abs(k))
    allowed = max(SPEED_TOLERANCE, _SPEED_ULPS * math.ulp(v))
    if not (s > bound and bound / (s - bound) <= 2.0 * allowed / v):
        raise Infeasible(
            f"required speed at angle {angle!r} rad is not certain to {SPEED_TOLERANCE:g} m/s "
            f"so near the feasibility angle {feasibility_angle(params)!r} rad"
        )
    return v


def _hoop_speed(a: float, d: float, h: float, g: float, angle: float) -> float | None:
    """The closed form in the module docstring at angle, with
    u = cos^2 theta (d tan theta + k) its denominator and k = a - h:
    None where u is non-positive (an infeasible angle),
    ValueError for an angle outside [-pi/2, pi/2) or a speed that is not
    finite, and Infeasible for a speed that underflows to 0."""
    if not -_HALF_PI <= angle < _HALF_PI:
        raise ValueError(f"angle must be in [-pi/2, pi/2) rad, got {angle}")
    c, k = cos(angle), a - h
    # a - h first: exact where a is near h, so only the sum rounds
    u = c * c * (d * tan(angle) + k)
    if u <= 0:
        return None
    num = 0.5 * g * d * d
    radicand = num / u
    if num >= _TINY and radicand >= _TINY:
        v = sqrt(radicand)
    else:  # below the normal range num or radicand has lost bits or is 0
        v = d * (sqrt(0.5 * g) / sqrt(u))
        if v == 0:
            raise Infeasible(f"required speed at angle {angle} rad underflows to 0")
    if not isfinite(v):
        raise ValueError(f"required speed at angle {angle} rad is not finite: {v}")
    return v


def speed_crossings(params: ShotParams, speed: float) -> tuple[float, float] | None:
    """The angles theta* -/+ b where the required speed is speed, the
    second kept below pi/2, or None where even the softest shot needs
    more.  With k = a - h, R = hypot(d, k) and q = g d^2/speed^2, the speed
    is v^2 = g d^2/(R sin(2 theta + atan2(k, d)) + k), so
    tan(b)^2 = (R + k - q)/(R - k + q); of R + k and R - k, the one that
    cancels is taken as d^2 over the other."""
    a, d, h, g = params
    k, r = a - h, hypot(d, a - h)
    big, small = r + abs(k), d * (d / (r + abs(k)))  # R + |k| and R - |k|
    rise, fall = (big, small) if k >= 0 else (small, big)  # R + k and R - k
    q = g * d / speed * (d / speed)
    if not rise >= q:  # NaN too, where r or q overflows
        return None
    b, center = atan2(sqrt(rise - q), sqrt(fall + q)), _QUARTER_PI - atan2(k, d) / 2
    return center - b, min(center + b, math.nextafter(_HALF_PI, 0.0))


def feasibility_angle(params: ShotParams) -> float:
    """atan((h-a)/d); negative when releasing above the hoop."""
    a, d, h, _ = params
    return atan((h - a) / d)


def optimal_angle(params: ShotParams) -> Optimum:
    """Angle requiring the softest hoop-reaching shot: pi/4 + phi/2, phi
    the feasibility angle, where v^2 = g*(sqrt(d^2 + (h-a)^2) + (h-a))
    (Brancazio, Am. J. Phys. 49, 356, 1981).  For a release above the hoop
    (k = h - a < 0) the angle is atan2(d, r - k), r = hypot(d, k): the
    same value, without the cancellation in pi/4 + phi/2 as phi -> -pi/2."""
    a, d, h, g = params
    return Optimum(*[column[0] for column in _optima(a, h, g, (d,))])


def _optima(a: float, h: float, g: float, distances) -> tuple[list, list]:
    """The optimum at each distance, in order, as (angles, speeds)
    columns: the one copy of the optimum, from r = hypot(d, k) with
    k = h - a and no call to the speed kernel.  Each distance is checked
    just before its optimum, so the first bad point raises first; an
    angle that rounds to pi/2 raises VerticalShot and a speed that
    underflows to 0 Infeasible, both domain errors."""
    k = h - a
    angles, speeds = [], []
    for d in distances:
        if not 0 < d < inf:
            check_distance(d)  # raises, with the message of ShotParams
        r = hypot(d, k)
        if k >= 0:
            angle = _QUARTER_PI + atan(k / d) / 2  # phi as in feasibility_angle
            if not angle < _HALF_PI:
                raise VerticalShot(f"angle must be below pi/2, got {angle}")
            w = g * (r + k)  # below the normal range w has lost bits
            v = sqrt(w) if w >= _TINY else sqrt(g) * sqrt(r + k)
        else:  # r + k = d*d/(r - k), which does not cancel
            s, t, root = d, r - k, 1.0
            if t == inf:  # the same ratio s/t at a quarter of the scale
                s, t, root = 0.25 * d, hypot(0.25 * d, 0.25 * k) - 0.25 * k, 2.0
            angle = atan2(s, t)
            q = s / t
            w = g * q * d
            # below the normal range q or w has lost bits; sqrt(r - k) = root*sqrt(t)
            v = sqrt(w) if q >= _TINY and w >= _TINY else d * (sqrt(g) / (root * sqrt(t)))
        if v == inf:
            if k >= 0:  # r may overflow where g*(r + k) does not
                v = sqrt(4.0 * g * (hypot(0.25 * d, 0.25 * k) + 0.25 * k))
            if v == inf:
                raise ValueError(f"required speed at angle {angle} rad is not finite: {v}")
        elif v == 0:
            raise Infeasible(f"required speed at angle {angle} rad underflows to 0")
        angles.append(angle)
        speeds.append(v)
    return angles, speeds


def d_grid(lo: float = 1.0, hi: float = 15.0, step: float = 0.1) -> tuple[float, float, int]:
    """(lo, step, n): the distances lo + i * step, i < n, to hi, n rounded to the nearest step;
    ValueError for a non-finite value, step <= 0, lo > hi or over MAX_GRID_POINTS points."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"d_grid values must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise ValueError(f"d_grid.step must be positive, got {step}")
    if lo > hi:
        raise ValueError(f"d_grid.lo must not exceed d_grid.hi, got {lo} > {hi}")
    # round(intervals) + 1 points, compared before rounding: hi - lo may overflow to inf
    intervals = (hi - lo) / step
    if not intervals < MAX_GRID_POINTS - 0.5:
        raise ValueError(
            f"d_grid has more than {MAX_GRID_POINTS} points: {lo}..{hi} step {step}"
        )
    return lo, step, round(intervals) + 1


def _check_order(d_grid: Sequence[float]) -> None:
    """Raise ValueError unless d_grid is strictly increasing (a sweep's or a figures grid's)."""
    if any(map(le, d_grid[1:], d_grid)):
        raise ValueError("d_grid must be strictly increasing")


def sweep_distance(params: ShotParams, d_grid: Sequence[float]) -> OptimumCurve:
    """Optimal angle and speed at each distance in d_grid, the other
    parameters taken from params: `optimal_angle` of params at that
    distance, bit for bit, with no `ShotParams` or `Optimum` per point."""
    _check_order(d_grid)
    a, h, g = params.release_altitude, params.hoop_height, params.gravity
    return OptimumCurve(a, tuple(d_grid), *map(tuple, _optima(a, h, g, d_grid)))


def sweep_altitudes(
    params: ShotParams, altitudes: Sequence[float], d_grid: Sequence[float]
) -> list[OptimumCurve]:
    """One distance sweep per release altitude, all on the same d_grid."""
    return [
        sweep_distance(params.replace(release_altitude=alt), d_grid)
        for alt in altitudes
    ]


def sweep_csv(curves: Sequence[OptimumCurve]) -> str:
    """CSV export: d,theta_opt_deg,v_opt,altitude with 6 decimal places,
    each curve's rows written by one % over its three columns interleaved."""
    rows = ["d,theta_opt_deg,v_opt,altitude\n"]
    for altitude, distances, angles, speeds in curves:
        if distances:
            flat = [0.0] * (3 * len(distances))
            flat[::3], flat[1::3], flat[2::3] = distances, map(degrees, angles), speeds
            row = "%%.6f,%%.6f,%%.6f,%.6f\n" % altitude  # no % in a formatted float
            rows.append(row * len(distances) % tuple(flat))
    return "".join(rows)
