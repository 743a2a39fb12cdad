"""Bracketed scalar minimization: the test oracles for the closed-form
optimum in `hoopshot.solver`.  Nothing in the package imports them.

`minimize_scalar` is golden-section search: derivative-free, robust near
bracket edges where the objective blows up, and with a provable
iteration bound.  `grid_scan` is a brute-force argmin on an even grid,
kept deliberately independent so it can also check the search.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from hoopshot.kinematics import Infeasible, checked_record

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
