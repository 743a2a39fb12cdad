"""Test oracles for the closed-form optimum in `hoopshot.solver`.
Nothing in the package imports them.

`minimize_scalar` is golden-section search: derivative-free, robust near
bracket edges where the objective blows up, and with a provable
iteration bound.  `grid_scan` is a brute-force argmin on an even grid,
kept deliberately independent so it can also check the search.
`decimal_optimum` is the optimum in 50-digit `decimal` arithmetic, to
measure the solver's rounding error in ulps (`ulps`), and
`decimal_required_velocity` the hoop-reaching speed at one angle, from
`decimal_sin_cos` (and `decimal_tan`): Taylor series after reducing the
angle by the nearest multiple of pi/2.

`default_d_grid` and `check_figures_grid` are the distance grid as a
list, checked point by point: the path the figures and `sweep` took
before they carried a grid as its shape (lo, step, n).  They are the
oracle of `solver.d_grid` and of the figures' checks of a shape, and
the points of the tests that sweep a grid.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext, localcontext
from operator import le
from typing import Callable, NamedTuple

from hoopshot.kinematics import MAX_GRID_POINTS, Infeasible, check_distance, checked_record

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class InvalidBracket(ValueError):
    pass


class NonFiniteObjective(ValueError):
    pass


class AllInfeasible(ValueError):
    pass


class Bracket(checked_record("Bracket", "lo hi")):
    __slots__ = ()

    def _check(self) -> None:
        if not self.lo < self.hi:
            raise InvalidBracket(f"need lo < hi, got [{self.lo}, {self.hi}]")


class MinResult(NamedTuple):
    """achieved_tolerance is the final bracket width (grid cell for
    grid_scan), not a bound on |x - true minimizer|: where f is flat to
    rounding that error is about sqrt(machine epsilon) * |x|."""

    x: float
    f_at_x: float
    iterations: int
    achieved_tolerance: float


def _eval(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if not math.isfinite(fx):
        raise NonFiniteObjective(f"objective returned {fx!r} at x={x!r}")
    return fx


def minimize_scalar(
    f: Callable[[float], float], bracket: Bracket, tol: float = 1e-9
) -> MinResult:
    """Golden-section search for the minimum of a unimodal f on bracket.

    Contracts the interval by the inverse golden ratio per iteration
    until its width is at most tol, then returns the midpoint.  Never
    evaluates f outside the initial bracket.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo, hi = bracket.lo, bracket.hi
    c = hi - (hi - lo) * INV_PHI
    d = lo + (hi - lo) * INV_PHI
    fc = _eval(f, c)
    fd = _eval(f, d)
    iterations = 0
    while hi - lo > tol:
        iterations += 1
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * INV_PHI
            fc = _eval(f, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * INV_PHI
            fd = _eval(f, d)
    x = 0.5 * (lo + hi)
    return MinResult(
        x=x, f_at_x=_eval(f, x), iterations=iterations, achieved_tolerance=hi - lo
    )


def grid_scan(f: Callable[[float], float], bracket: Bracket, n: int) -> MinResult:
    """Argmin of f over n evenly spaced points including both endpoints.

    Points where f raises Infeasible are skipped; ties break toward the
    smaller x.
    """
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n}")
    lo, hi = bracket.lo, bracket.hi
    best_x = None
    best_f = math.inf
    evaluated = 0
    for i in range(n):
        x = lo + (hi - lo) * i / (n - 1)
        try:
            fx = _eval(f, x)
        except Infeasible:
            continue
        evaluated += 1
        if fx < best_f:
            best_x, best_f = x, fx
    if best_x is None:
        raise AllInfeasible(f"objective infeasible at all {n} grid points")
    return MinResult(
        x=best_x,
        f_at_x=best_f,
        iterations=evaluated,
        achieved_tolerance=(hi - lo) / (n - 1),
    )


def decimal_atan(x: Decimal) -> Decimal:
    """arctan(x) to the precision of the current decimal context: halve
    the angle, atan x = 2 atan(x / (1 + sqrt(1 + x^2))), until |x| is
    below 1e-3, then sum the Taylor series x - x^3/3 + x^5/5 - ..."""
    with localcontext() as ctx:
        ctx.prec += 10
        eps = Decimal(10) ** -ctx.prec
        halvings = 0
        while abs(x) > Decimal("1e-3"):
            x /= 1 + (1 + x * x).sqrt()
            halvings += 1
        total = term = x
        n = 1
        while abs(term) > eps * abs(total):
            term *= -x * x
            n += 2
            total += term / n
        total *= 2**halvings
    return +total


_PI: dict[tuple, Decimal] = {}  # pi by the precision and rounding it was taken to


def decimal_pi() -> Decimal:
    """pi to the precision of the current decimal context, by Machin's
    formula pi = 16 atan(1/5) - 4 atan(1/239), computed once for each
    precision and rounding."""
    key = (getcontext().prec, getcontext().rounding)
    if key not in _PI:
        with localcontext() as ctx:
            ctx.prec += 10
            pi = 16 * decimal_atan(Decimal(1) / 5) - 4 * decimal_atan(Decimal(1) / 239)
        _PI[key] = +pi
    return _PI[key]


def decimal_sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """(sin x, cos x) to the precision of the current decimal context:
    r = x - k pi/2 with k the nearest integer to x/(pi/2), so |r| <= pi/4,
    with pi taken to as many more digits as the subtraction cancels; then
    the Taylor series of sin r and cos r, turned by k quarter turns."""
    prec = getcontext().prec
    extra = 10 + max(0, x.adjusted())
    while True:
        with localcontext() as ctx:
            ctx.prec = prec + extra
            half_pi = decimal_pi() / 2
            k = int((x / half_pi).to_integral_value())
            r = x - k * half_pi
            # digits of k*pi/2 that the subtraction cancels
            lost = (k * half_pi).adjusted() - r.adjusted() if k and r else 0
        if lost + 10 <= extra:
            break
        extra = lost + 20
    with localcontext() as ctx:
        ctx.prec = prec + 10
        eps = Decimal(10) ** -ctx.prec
        sums = []
        # sin r = r - r^3/3! + ..., cos r = 1 - r^2/2! + ...: (first term, its power)
        for total, n in ((r, 1), (Decimal(1), 0)):
            term = total
            while term and abs(term) > eps * abs(total):
                term *= -r * r / ((n + 1) * (n + 2))
                n += 2
                total += term
            sums.append(total)
        sin, cos = sums
        sin, cos = ((sin, cos), (cos, -sin), (-sin, -cos), (-cos, sin))[k % 4]
    return +sin, +cos


def decimal_tan(x: Decimal) -> Decimal:
    """tan x to the precision of the current decimal context."""
    with localcontext() as ctx:
        ctx.prec += 5
        sin, cos = decimal_sin_cos(x)
        tan = sin / cos
    return +tan


def decimal_required_velocity(a: float, d: float, h: float, g: float, angle: float, digits=50):
    """The hoop-reaching speed at the float angle, as a Decimal to `digits`
    digits from the exact float inputs: v^2 = g d^2 / (2 cos(angle)
    (d sin(angle) + (a - h) cos(angle))), the closed form of
    `solver.required_velocity` with cos^2 tan written cos sin."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        a, d, h, g, angle = map(Decimal, (a, d, h, g, angle))
        sin, cos = decimal_sin_cos(angle)
        speed = (g * d * d / (2 * cos * (d * sin + (a - h) * cos))).sqrt()
    with localcontext() as ctx:
        ctx.prec = digits
        return +speed


def decimal_optimum(a: float, d: float, h: float, g: float, digits: int = 50):
    """(theta*, v*) as Decimals to `digits` digits, from the exact float
    inputs: k = h - a, r = sqrt(d^2 + k^2), tan(theta*) = (r + k)/d, which
    is d/(r - k) with no cancellation when k < 0, and v*^2 = g*d*tan(theta*)
    (= g*(r + k))."""
    with localcontext() as ctx:
        ctx.prec = digits
        a, d, h, g = map(Decimal, (a, d, h, g))
        k = h - a
        r = (d * d + k * k).sqrt()
        tan = (r + k) / d if k >= 0 else d / (r - k)
        return decimal_atan(tan), (g * d * tan).sqrt()


def ulps(x: float, exact: Decimal) -> float:
    """|x - exact| in units of the last place of exact rounded to a float."""
    return float(abs(Decimal(x) - exact) / Decimal(math.ulp(float(exact))))


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


def check_figures_grid(d_grid: list[float]) -> None:
    """Raise ValueError unless the figures can draw from d_grid: at
    least 2 points from lo < hi, strictly increasing, and each point a
    distance, the first bad one raising."""
    if len(d_grid) < 2 or not d_grid[0] < d_grid[-1]:
        raise ValueError(
            f"figures need a d_grid of at least 2 points from lo < hi, "
            f"got {len(d_grid)} point(s)"
        )
    if any(map(le, d_grid[1:], d_grid)):
        raise ValueError("d_grid must be strictly increasing")
    for d in d_grid:
        check_distance(d)
