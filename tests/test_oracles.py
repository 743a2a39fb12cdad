import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, strategies as st

from oracles import (
    INV_PHI,
    AllInfeasible,
    Bracket,
    Infeasible,
    InvalidBracket,
    NonFiniteObjective,
    decimal_pi,
    decimal_sin_cos,
    decimal_tan,
    grid_scan,
    minimize_scalar,
    ulps,
)


def quadratic(x):
    return (x - 2.0) ** 2


class TestMinimizeScalar:
    def test_quadratic_vertex(self):
        result = minimize_scalar(quadratic, Bracket(0.0, 5.0), tol=1e-8)
        assert result.x == pytest.approx(2.0, abs=1e-8)
        assert result.achieved_tolerance <= 1e-8

    def test_absolute_value_nonsmooth(self):
        result = minimize_scalar(lambda x: abs(x - 1.0), Bracket(-1.0, 3.0), tol=1e-6)
        assert result.x == pytest.approx(1.0, abs=1e-6)

    def test_iteration_bound(self):
        tol = 1e-8
        result = minimize_scalar(quadratic, Bracket(0.0, 5.0), tol=tol)
        bound = math.ceil(math.log(tol / 5.0) / math.log(0.618)) + 2
        assert result.iterations <= bound

    def test_interval_contracts_by_inverse_golden_ratio(self):
        result = minimize_scalar(quadratic, Bracket(0.0, 5.0), tol=1e-8)
        expected_width = 5.0 * INV_PHI**result.iterations
        assert result.achieved_tolerance == pytest.approx(
            expected_width, rel=1e-9
        )

    def test_deterministic(self):
        a = minimize_scalar(quadratic, Bracket(0.0, 5.0), tol=1e-8)
        b = minimize_scalar(quadratic, Bracket(0.0, 5.0), tol=1e-8)
        assert a == b

    def test_never_evaluates_outside_bracket(self):
        probes = []

        def spy(x):
            probes.append(x)
            return quadratic(x)

        minimize_scalar(spy, Bracket(0.0, 5.0), tol=1e-8)
        assert all(0.0 <= x <= 5.0 for x in probes)

    def test_nonfinite_objective(self):
        with pytest.raises(NonFiniteObjective):
            minimize_scalar(lambda x: math.nan, Bracket(0.0, 1.0), tol=1e-6)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracket):
            Bracket(2.0, 2.0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            minimize_scalar(quadratic, Bracket(0.0, 5.0), tol=0.0)

    @given(
        vertex=st.floats(-5.0, 5.0),
        half_width=st.floats(0.5, 20.0),
    )
    def test_matches_grid_scan_on_unimodal(self, vertex, half_width):
        bracket = Bracket(vertex - half_width, vertex + half_width)
        f = lambda x: (x - vertex) ** 2

        tol = 1e-7
        n = 20001
        search = minimize_scalar(f, bracket, tol=tol)
        scan = grid_scan(f, bracket, n=n)
        cell = (bracket.hi - bracket.lo) / (n - 1)
        assert abs(search.x - scan.x) <= tol + cell


class TestGridScan:
    def test_quadratic_on_grid(self):
        result = grid_scan(quadratic, Bracket(0.0, 5.0), n=501)
        assert result.x == 2.0

    def test_cosine(self):
        result = grid_scan(math.cos, Bracket(0.0, 2.0 * math.pi), n=10001)
        spacing = 2.0 * math.pi / 10000
        assert abs(result.x - math.pi) <= spacing

    def test_ties_break_toward_smaller_x(self):
        # constant function: everything ties, first point wins
        result = grid_scan(lambda x: 1.0, Bracket(0.0, 1.0), n=11)
        assert result.x == 0.0

    def test_infeasible_points_skipped(self):
        def partial(x):
            if x < 1.0:
                raise Infeasible("no value below 1")
            return (x - 2.0) ** 2

        result = grid_scan(partial, Bracket(0.0, 5.0), n=501)
        assert result.x == 2.0
        assert result.iterations < 501

    def test_all_infeasible(self):
        def nothing(x):
            raise Infeasible("never")

        with pytest.raises(AllInfeasible):
            grid_scan(nothing, Bracket(0.0, 1.0), n=10)

    def test_nonfinite(self):
        with pytest.raises(NonFiniteObjective):
            grid_scan(lambda x: math.inf, Bracket(0.0, 1.0), n=5)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            grid_scan(quadratic, Bracket(0.0, 1.0), n=1)


# pi to 60 digits, as published
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


class TestDecimalTrig:
    def test_pi(self):
        with localcontext() as ctx:
            ctx.prec = 50
            assert decimal_pi() == +PI_60

    @pytest.mark.parametrize("turns, sin, cos", [(0, 0, 1), (1, 1, 0), (2, 0, -1), (3, -1, 0)])
    def test_quarter_turns_and_a_sixth(self, turns, sin, cos):
        with localcontext() as ctx:
            ctx.prec = 50
            # the angle is rounded to 50 digits, so the values within 1e-48
            s, c = decimal_sin_cos(turns * PI_60 / 2 + PI_60 / 6)
            half, root3_half = Decimal("0.5"), Decimal(3).sqrt() / 2
            assert abs(s - (half * cos + root3_half * sin)) < Decimal("1e-48")
            assert abs(c - (root3_half * cos - half * sin)) < Decimal("1e-48")

    def test_float_nearest_a_multiple_of_half_pi(self):
        # 6381956970095103 * 2**797 is within 2**-61 of a multiple of pi/2,
        # so the reduction cancels 19 digits; the cosine as published
        with localcontext() as ctx:
            ctx.prec = 40
            _, c = decimal_sin_cos(Decimal(6381956970095103 * 2**797))
        assert c == Decimal("-4.687165924254627611122582801963884398778E-19")

    @given(x=st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False))
    @example(x=math.pi / 2)  # cos is 6.1e-17: the reduction cancels 17 digits
    @example(x=5e-324)
    def test_identities_and_the_float_library(self, x):
        with localcontext() as ctx:
            ctx.prec = 50
            s, c = decimal_sin_cos(Decimal(x))
            tan = decimal_tan(Decimal(x))
            assert abs(s * s + c * c - 1) < Decimal("1e-48")
            assert abs(tan * c - s) <= Decimal("1e-48") * abs(s)
        if abs(x) <= 10.0:  # where libm's sin and cos are within an ulp
            assert ulps(math.sin(x), s) <= 1.0
            assert ulps(math.cos(x), c) <= 1.0
