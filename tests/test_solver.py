import math
import random
import sys
from decimal import ROUND_FLOOR, Decimal, localcontext

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hoopshot import solver
from hoopshot.kinematics import (
    Infeasible,
    LaunchState,
    ShotParams,
    VerticalShot,
    height_at_plane,
    time_to_plane,
)
from hoopshot.solver import (
    DEFAULT_ALTITUDES,
    MAX_GRID_POINTS,
    InfeasibleAngle,
    d_grid,
    feasibility_angle,
    optimal_angle,
    required_velocity,
    speed_crossings,
    sweep_altitudes,
    sweep_csv,
    sweep_distance,
)
from hoopshot.figures import _speed_bends, _speed_curve, build_basketball_ladder
from hoopshot.ladder import PlotSpace

from oracles import (
    Bracket,
    decimal_atan,
    decimal_optimum,
    decimal_required_velocity,
    default_d_grid,
    grid_scan,
    minimize_scalar,
    ulps,
)

DEFAULTS = ShotParams()
DEG = math.pi / 180.0
# the space of figures 4 and 5
ANGLE_SPACE = PlotSpace(
    ("launch angle", "deg"), ("required speed", "m/s"), (0.0, 90.0), (0.0, 40.0)
)


def drawn_curve(params):
    """The (angles in degrees, speeds) columns of the required-speed curve
    that figures 4 and 5 draw."""
    (mark,) = _speed_curve(params, ANGLE_SPACE)
    return mark.xs, mark.ys


def kernel_calls(params, draw=lambda params: _speed_curve(params, ANGLE_SPACE)) -> list:
    """Each (angle, speed) at which draw(params), by default drawing the
    required-speed curve, evaluates the speed kernel, in order; the speed
    None where the kernel gives none."""
    calls = []

    def recorded(*args, _kernel=solver._hoop_speed):
        result = _kernel(*args)
        calls.append((args[-1], result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_hoop_speed", recorded)
        draw(params)
    return calls


def speed_bends(params, angle):
    """dv/dtheta and d2v/dtheta2 at angle, in the phase form of the
    figures' step rule, from the speed kernel's speed."""
    a, d, h, _ = params
    _, slope, bend = _speed_bends(math.atan2(a - h, d), angle)
    v = solver._hoop_speed(*params, angle)
    return v * slope, v * bend


def bisect_hoop_speed(params, angle, lo=1e-3, hi=1e4, iterations=200):
    """Independent oracle: bisect on launch speed until the ball's height
    at the hoop plane matches the hoop height.  Relies only on the
    kinematics simulation, never on the closed form."""
    f = lambda v: height_at_plane(params, LaunchState(angle, v)) - params.hoop_height
    assert f(lo) < 0 < f(hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_feasible_case(rng):
    params = ShotParams(
        release_altitude=rng.uniform(0.5, 2.5),
        distance=rng.uniform(2.0, 15.0),
        hoop_height=rng.uniform(2.0, 4.0),
        gravity=rng.uniform(5.0, 15.0),
    )
    feas = feasibility_angle(params)
    angle = rng.uniform(max(feas, 0.0) + 0.05, 85.0 * DEG)
    return params, angle


class TestRequiredVelocity:
    def test_headline_value(self):
        v = required_velocity(DEFAULTS, 30.0 * DEG)
        assert v == pytest.approx(12.2, abs=0.05)
        assert v == pytest.approx(12.153021336394197, rel=1e-12)

    def test_level_release_at_45(self):
        params = ShotParams(release_altitude=3.05, hoop_height=3.05)
        v = required_velocity(params, 45.0 * DEG)
        assert v == pytest.approx(math.sqrt(9.8 * 10.0), rel=1e-12)

    def test_shallow_angle_infeasible(self):
        with pytest.raises(InfeasibleAngle):
            required_velocity(DEFAULTS, 5.0 * DEG)

    def test_matches_bisection_oracle_on_random_cases(self):
        rng = random.Random(20240817)
        for _ in range(50):
            params, angle = random_feasible_case(rng)
            expected = bisect_hoop_speed(params, angle)
            assert required_velocity(params, angle) == pytest.approx(
                expected, rel=1e-6
            )

    def test_hoop_reaching_closure(self):
        rng = random.Random(90210)
        for _ in range(50):
            params, angle = random_feasible_case(rng)
            v = required_velocity(params, angle)
            y = height_at_plane(params, LaunchState(angle, v))
            assert y == pytest.approx(params.hoop_height, rel=1e-9)


def decimal_hoop_speed(params, angle):
    """The closed form at this angle in 50-digit decimal, from the floats
    cos(angle) and tan(angle) taken as exact."""
    a, d, h, g = map(Decimal, params)
    with localcontext() as ctx:
        ctx.prec = 50
        c, t = Decimal(math.cos(angle)), Decimal(math.tan(angle))
        return (Decimal("0.5") * g * d * d / (c * c * (d * t + a - h))).sqrt()


class TestNearTheFeasibilityAngle:
    """Near the feasibility angle d*tan(angle) + (a - h) cancels, and the
    rounding of tan(angle) and of the sum dominates it.  required_velocity
    raises Infeasible where that rounding could move the speed by more than
    SPEED_TOLERANCE (0.05 m/s, half the printed unit) and by more than 64
    ulp; where it answers, the speed is within the larger of the two of
    the exact one at the float angle."""

    def test_one_ulp_above_the_angle(self):
        # the float sum is 4.4e-16, the exact one 4.0e-16: the speed came
        # out as 10,506,405,688.7 m/s for an exact 11,021,710,316.8
        params = ShotParams(release_altitude=1.0, distance=100.0)
        angle = math.nextafter(feasibility_angle(params), 1.0)
        assert math.degrees(angle) == 1.1743989847261913
        with pytest.raises(Infeasible, match=r"is not certain to 0\.05 m/s so near the feasibility angle"):
            required_velocity(params, angle)

    def test_the_default_angle_is_answered(self):
        assert required_velocity(DEFAULTS, 30 * DEG) == pytest.approx(12.2, abs=0.05)

    def test_a_speed_whose_ulp_exceeds_the_tolerance_is_answered(self):
        # a = h: the feasibility angle is 0 and nothing cancels, yet at 7e15
        # m/s the speed's ulp is 1 m/s; 64 ulp, not 0.05 m/s, bounds it there
        params = ShotParams(release_altitude=3.05, distance=10.0)
        v = required_velocity(params, 1e-30)
        assert math.ulp(v) == 1.0
        assert ulps(v, decimal_required_velocity(3.05, 10.0, 3.05, 9.8, 1e-30)) <= 64

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.0, 6.0),
        d=st.floats(0.5, 200.0),
        # the angle, 1 to 2^49 ulps above the feasibility angle (up to 0.1-1 deg here)
        steps=st.integers(0, 48).flatmap(lambda e: st.integers(2**e, 2 ** (e + 1))),
    )
    @example(a=1.0, d=100.0, steps=1)
    @example(a=3.05, d=1.0, steps=1)  # a = h: 1 ulp above 0 rad the speed overflows
    def test_answered_within_the_tolerance(self, a, d, steps):
        params = ShotParams(release_altitude=a, distance=d)
        angle = feasibility_angle(params)
        for _ in range(min(steps, 64)):  # nextafter for the first ulps, then a step
            angle = math.nextafter(angle, 1.0)
        angle += math.ulp(angle) * max(0, steps - 64)
        try:
            v = required_velocity(params, angle)
        except Infeasible as exc:  # InfeasibleAngle where the float sum is not positive
            assert isinstance(exc, InfeasibleAngle) or "0.05 m/s" in str(exc)
            return
        except ValueError as exc:
            assert "is not finite" in str(exc)
            return
        exact = decimal_required_velocity(a, d, 3.05, 9.8, angle)
        assert abs(Decimal(v) - exact) <= Decimal(max(solver.SPEED_TOLERANCE, 64 * math.ulp(v)))


class TestRequiredVelocityAgainstDecimalOracle:
    """required_velocity in ulps of the 50-digit oracle, which takes the
    decimal sine and cosine of the float angle, with the angle from 1 deg
    above the feasibility angle to 89 deg: over a in [0, 6] m, d in
    [1, 15] m, h = 3.05 m, g = 9.8 m/s^2, and over a and h in [0, 1e4] m,
    d in [1e-4, 1e4] m and g in [0.1, 100] m/s^2.  The error grows where
    d*tan(angle) and a - h cancel, most where the feasibility angle is
    near +-45 deg and the angle is lowest: the largest in 284,000 random
    cases, some with a, d, h and g out to 1e-100 and 1e100, was 22.1 ulp."""

    BOUND = 64.0

    def assert_within_bound(self, a, d, angle, h=3.05, g=9.8):
        params = ShotParams(release_altitude=a, distance=d, hoop_height=h, gravity=g)
        v = required_velocity(params, angle)
        assert ulps(v, decimal_required_velocity(a, d, h, g, angle)) <= self.BOUND

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 6.0), d=st.floats(1.0, 15.0), u=st.floats(0.0, 1.0))
    def test_ulp_bound(self, a, d, u):
        lo = feasibility_angle(ShotParams(release_altitude=a, distance=d)) + DEG
        self.assert_within_bound(a, d, lo + (89.0 * DEG - lo) * u)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.0, 1e4),
        d=st.floats(1e-4, 1e4),
        h=st.floats(0.0, 1e4),
        g=st.floats(0.1, 100.0),
        u=st.floats(0.0, 1.0),
    )
    def test_ulp_bound_over_wide_inputs(self, a, d, h, g, u):
        params = ShotParams(release_altitude=a, distance=d, hoop_height=h, gravity=g)
        lo = feasibility_angle(params) + DEG
        assume(lo < 89.0 * DEG)
        self.assert_within_bound(a, d, lo + (89.0 * DEG - lo) * u, h, g)

    @pytest.mark.parametrize(
        "a, d, angle",
        [  # the largest errors found while d*tan(angle) + a was summed
            # first (53.26, 53.21 and 42.61 ulp; now 5.26, 3.21 and 2.61)
            (3.2669983448650854, 1.0006153885587066, -0.19391427205498038),
            (3.249956638924203, 1.0045588301687671, -0.17729832124772896),
            (2.70068755626753, 1.0692051262275606, 0.33678145943586163),
        ],
    )
    def test_largest_errors_found(self, a, d, angle):
        self.assert_within_bound(a, d, angle)

    @pytest.mark.parametrize(
        "a, d, h, angle",
        [  # d*tan(angle) + a rounded to a multiple of ulp(a) before h was taken off
            (8796093022207.0, 10.0, 8796093022207.0, 9.27734375 * DEG),
            (3.049287939770129, 0.007779719154665224, 3.05, 0.19889183061272764),
        ],
    )
    def test_release_near_the_hoop_height(self, a, d, h, angle):
        self.assert_within_bound(a, d, angle, h)


class TestHoopPlaneResidual:
    """|height_at_plane - h| at the required speed, over the domain of the
    speed bound with the angle at least 0, in ulps of the largest term of
    y = a + v*sin(angle)*t - 0.5*g*t*t at the plane.  The terms cancel to
    h, so the residual grows with them: at 89 deg and d = 14.4 m it was
    870 ulp(h) = 3.9e-13 m, 3.4 ulps of the largest term.  The largest in
    1,200,000 random cases, 400,000 of them near a = h, was 9.0 ulps while
    d*tan(angle) + a was summed first; in 284,000 cases since, over the
    wider inputs of the speed bound too, it was 6.6 ulps."""

    BOUND = 16.0

    def assert_within_bound(self, a, d, angle):
        params = ShotParams(release_altitude=a, distance=d)
        launch = LaunchState(angle, required_velocity(params, angle))
        t = time_to_plane(launch, d)
        largest = max(a, launch.speed * math.sin(angle) * t, 0.5 * 9.8 * t * t)
        assert abs(height_at_plane(params, launch) - 3.05) <= self.BOUND * math.ulp(largest)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 6.0), d=st.floats(1.0, 15.0), u=st.floats(0.0, 1.0))
    def test_ulp_bound(self, a, d, u):
        lo = max(0.0, feasibility_angle(ShotParams(release_altitude=a, distance=d)) + DEG)
        self.assert_within_bound(a, d, lo + (89.0 * DEG - lo) * u)

    @pytest.mark.parametrize(
        "a, d, angle",
        [  # the largest found while d*tan(angle) + a was summed first, 9.0
            # and 8.6 ulps (now 3.0 and 3.6), and the 870 ulp(h) case
            (3.2601636090627046, 14.50515396120599, 0.25151676106065807),
            (5.371778966493032, 14.683406673777444, 1.3285237068917028),
            (2.112685702397859, 14.405052701566973, 1.553054715899426),
        ],
    )
    def test_largest_residuals_found(self, a, d, angle):
        self.assert_within_bound(a, d, angle)


class TestRequiredVelocityUnderflow:
    """Where 0.5*g*d*d or the radicand is not a normal float, the speed
    is d*sqrt(0.5*g/denom): a normal v keeps its bits."""

    @pytest.mark.parametrize(
        "a, d, g",
        [
            (4.0, 1e-170, 9.8),  # 0.5*g*d*d underflows to 0
            (4.0, 1e-300, 9.8),
            (4.0, 1e-160, 9.8),  # 0.5*g*d*d is subnormal: bits lost
            (1e300, 1e-9, 9.8),  # the radicand is subnormal, 0.5*g*d*d is not
            (3.0500000001, 1e-155, 9.8),  # 0.5*g*d*d is subnormal, the radicand is not
        ],
    )
    def test_speed_within_two_ulps(self, a, d, g):
        params = ShotParams(release_altitude=a, distance=d, gravity=g)
        angle = 30.0 * DEG
        v = required_velocity(params, angle)
        assert v >= sys.float_info.min
        assert ulps(v, decimal_hoop_speed(params, angle)) <= 2.0

    def test_angle_curve_has_the_same_speeds(self):
        # the drawn curve's speeds are required_velocity's, bit for bit
        params = ShotParams(release_altitude=4.0, distance=1e-170)
        calls = kernel_calls(params)
        assert len(calls) >= 2 and all(v > 0 for _, v in calls)
        assert [v for _, v in calls] == [required_velocity(params, a) for a, _ in calls]

    def test_speed_that_underflows_to_zero_raises(self):
        params = ShotParams(release_altitude=1e300, distance=5e-324, gravity=5e-324)
        with pytest.raises(Infeasible, match="underflows to 0") as raised:
            required_velocity(params, 30.0 * DEG)
        assert not isinstance(raised.value, InfeasibleAngle)

    @pytest.mark.parametrize(
        "a, d, h, g",
        [
            # k < 0: tan(theta*) = q = d/(r - k) is normal, g*q*d is not
            pytest.param(4.0, 1e-170, 3.05, 9.8, id="1e-170"),
            pytest.param(4.0, 1e-300, 3.05, 9.8, id="1e-300"),
            # k = 0: g*q*d = g*(r + k) is subnormal, then 0; v* is not
            pytest.param(1.0, 3e-15, 1.0, 1e-300, id="k0-subnormal"),
            pytest.param(1.0, 5e-324, 1.0, 5e-324, id="k0-zero"),
        ],
    )
    def test_optimum_speed_where_g_q_d_underflows(self, a, d, h, g):
        opt = optimal_angle(ShotParams(a, d, h, g))
        theta, speed = decimal_optimum(a, d, h, g)
        assert opt.speed > 0
        assert ulps(opt.angle, theta) <= 3.0
        assert ulps(opt.speed, speed) <= 2.0

    def test_optimum_speed_that_underflows_to_zero_raises(self):
        # g*q*d and d*sqrt(g)/sqrt(r - k) are both 0
        with pytest.raises(Infeasible, match="underflows to 0"):
            optimal_angle(ShotParams(release_altitude=4.0, distance=5e-324, gravity=1e-300))


class TestFeasibilityAngle:
    def test_defaults(self):
        assert math.degrees(feasibility_angle(DEFAULTS)) == pytest.approx(
            7.689, abs=1e-3
        )

    def test_level_release(self):
        params = ShotParams(release_altitude=3.05, hoop_height=3.05)
        assert feasibility_angle(params) == 0.0

    def test_release_above_hoop_is_negative(self):
        params = ShotParams(release_altitude=3.5, hoop_height=3.05)
        assert math.degrees(feasibility_angle(params)) == pytest.approx(
            -2.577, abs=1e-3
        )
        # every non-negative angle below vertical is then feasible
        required_velocity(params, 0.0)

    def test_boundary_sharpness(self):
        feas = feasibility_angle(DEFAULTS)
        with pytest.raises(InfeasibleAngle):
            required_velocity(DEFAULTS, feas)
        assert required_velocity(DEFAULTS, feas + 0.01 * DEG) > 0


class TestAngleCurve:
    """The required-speed curve as figures 4 and 5 draw it: the speed at
    angles from the crossing of 40 m/s on either side of the optimum."""

    def test_markers_and_minimum_location(self):
        angles, speeds = drawn_curve(DEFAULTS)
        feas = math.degrees(feasibility_angle(DEFAULTS))
        assert all(a > feas for a in angles) and None not in speeds
        assert min(zip(speeds, angles))[1] == pytest.approx(48.8, abs=1.0)
        assert len(angles) <= 120

    def test_two_points(self):
        # at d = 1 mm the curve is 0.04 deg wide: still at least two points,
        # from 40 m/s down to v* and back up, and no more than the 5 that
        # halving drew
        angles, speeds = drawn_curve(DEFAULTS.replace(distance=0.001))
        assert 2 <= len(angles) <= 5
        assert speeds[0] == pytest.approx(40.0) and speeds[-1] == pytest.approx(40.0)
        assert min(speeds) == pytest.approx(optimal_angle(DEFAULTS.replace(distance=0.001)).speed)

    def test_an_infinite_slope_reaches_the_floor_within_a_tenth_of_a_pixel(self):
        # the speed falls from 1e131 m/s at 0 deg to the panel's floor
        # within a sub-pixel angle, where v'' overflows to inf; a step at
        # most 0.1 px wide is always taken, so the curve reaches the floor
        # within 0.1 px of the left edge, not by a chord across the panel
        params = ShotParams(
            5.554679153750614e-149, 1.3337177681997354e135, 4.784828043708341e-245, 6.882963232680403e-157
        )
        angles, speeds = drawn_curve(params)
        assert angles[1] <= 0.1 * 90.0 / 536.0 and speeds[1] <= 0.1 * 40.0 / 384.0

    def test_one_kernel_call_per_vertex(self):
        # each computed vertex's speed comes from one call, and the step
        # rule evaluates no angle it does not keep (its slopes and v'' come
        # from the phase form); an end on a crossing of 40 m/s is written on
        # 40 m/s.  Where both ends are crossings (the low one above 0 deg),
        # only the vertices from the optimum up are evaluated, and the low
        # end once more to check it: the lower half is their reflection.  At
        # a release above the hoop the low crossing is below 0 deg, so the
        # curve is clamped and every vertex evaluated.
        for params in (DEFAULTS, ShotParams(release_altitude=3.5), ShotParams(distance=0.001)):
            angles, speeds = drawn_curve(params)
            calls = [(math.degrees(a), v) for a, v in sorted(kernel_calls(params))]
            lo, hi = speed_crossings(params, 40.0)
            assert calls[-1][0] == angles[-1] == math.degrees(hi) and speeds[-1] == 40.0
            if lo > 0:
                center = math.degrees(lo + hi) / 2
                assert calls[0][0] == math.degrees(lo) and speeds[0] == 40.0
                assert all(angle >= center for angle, _ in calls[1:])
                assert calls[1:-1] == list(zip(angles, speeds))[len(angles) // 2:-1]
                assert speeds == speeds[::-1]
            else:
                assert calls[:-1] == list(zip(angles, speeds))[:-1]

    def test_a_default_figure_set_makes_at_most_35_kernel_calls(self):
        # 32: the 30 of the curve's 60 vertices from the optimum up, its
        # low end and the stage-3 speed; 59 when intervals were halved
        assert len(kernel_calls(DEFAULTS, build_basketball_ladder)) <= 35

    @pytest.mark.parametrize(
        "params, space",
        [
            (ShotParams(1.155166468069634e-11, 1.0, 1.155166468069634e-11, 4.752e-320), ANGLE_SPACE),
            (ShotParams(9.1e16, 1.0, 9.1e16, 3.8e-314), ANGLE_SPACE),
            (ShotParams(3.05, 10.0, 3.05, 1e-310), ANGLE_SPACE),
            # the low crossing, at -88.2 deg, has no speed
            (
                ShotParams(1.7939373204343163, 0.05596843220698833, 2.6215394287700255e-13,
                           7.896476828505253e-241),
                ANGLE_SPACE.replace(x_range=(-90.0, 90.0)),
            ),
        ],
        ids=["g-4.752e-320", "a-h-9.1e16", "g-1e-310", "below-0-deg"],
    )
    def test_a_low_end_with_no_speed_takes_at_most_70_kernel_calls(self, params, space):
        # the speed beside it is found by bisecting the floats between the
        # ends, in order as integers, so in at most 64 calls; halving their
        # values walked one binary exponent per call, 1,042-1,076 calls at
        # the three subnormal g.  The first vertex is the float after one
        # with no speed, or has a speed above the space
        calls = kernel_calls(params, lambda params: _speed_curve(params, space))
        (curve,) = _speed_curve(params, space)
        low = max(math.radians(space.x_range[0]), speed_crossings(params, 40.0)[0])
        first = min(angle for angle, v in calls if v is not None)
        assert solver._hoop_speed(*params, low) is None and low < first
        assert curve.xs[0] == math.degrees(first)
        assert curve.ys[0] > 40.0 or solver._hoop_speed(*params, math.nextafter(first, low)) is None
        assert len(calls) <= 70

    def test_grid_strictly_increasing(self):
        for params in (DEFAULTS, ShotParams(release_altitude=3.5), ShotParams(distance=0.001)):
            angles, _ = drawn_curve(params)
            assert all(b > a for a, b in zip(angles, angles[1:]))

    def test_nothing_drawn_where_the_softest_shot_is_above_the_space(self):
        # v* = 44.5 m/s at d = 200 m, above the 40 m/s top of the space
        assert _speed_curve(ShotParams(distance=200.0), ANGLE_SPACE) == ()


class TestSpeedCrossings:
    """The two angles at which the required speed equals a given speed,
    checked against the 50-digit speed at those float angles: that speed
    is off by at most 4 units of the speed's change over an ulp of the
    angle (of 1 rad, if less) plus an ulp of the speed; 6,000 random
    crossings of this domain came within 1.6 units."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.0, 10.0),
        d=st.floats(0.1, 100.0),
        h=st.floats(0.0, 10.0),
        g=st.floats(1.0, 30.0),
        ratio=st.floats(1.001, 100.0),
    )
    @example(a=1.7, d=10.0, h=3.05, g=9.8, ratio=40.0 / 10.588625633913797)
    def test_the_exact_speed_at_each_crossing(self, a, d, h, g, ratio):
        params = ShotParams(a, d, h, g)
        optimum = optimal_angle(params)
        speed = ratio * optimum.speed
        lo, hi = speed_crossings(params, speed)
        assert feasibility_angle(params) < lo < optimum.angle < hi < math.pi / 2
        for angle in (lo, hi):
            slope = abs(speed_bends(params, angle)[0])
            bound = 4 * (slope * math.ulp(max(abs(angle), 1.0)) + math.ulp(speed))
            exact = decimal_required_velocity(*params, Decimal(angle))
            assert abs(exact - Decimal(speed)) <= Decimal(bound), (angle, exact, speed)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(0.0, 10.0),
        d=st.floats(0.1, 100.0),
        h=st.floats(0.0, 10.0),
        ratio=st.floats(0.01, 0.999),
    )
    def test_none_below_the_softest_shot(self, a, d, h, ratio):
        params = ShotParams(a, d, h)
        assert speed_crossings(params, ratio * optimal_angle(params).speed) is None

    def test_defaults_at_40(self):
        lo, hi = speed_crossings(DEFAULTS, 40.0)
        assert math.degrees(lo) == pytest.approx(9.4516, abs=1e-4)
        assert math.degrees(hi) == pytest.approx(88.2369, abs=1e-4)

    @pytest.mark.parametrize("distance", [1e-3, 1e-6])
    def test_close_in_on_the_optimum_without_cancelling(self, distance):
        # R + k cancels for a release below the hoop at a tiny distance
        params = DEFAULTS.replace(distance=distance)
        lo, hi = speed_crossings(params, 40.0)
        assert feasibility_angle(params) < lo < hi < math.pi / 2
        for angle in (lo, hi):
            assert float(decimal_required_velocity(*params, Decimal(angle))) == pytest.approx(40.0, rel=1e-6)

    def test_second_kept_below_a_right_angle(self):
        # a release above the hoop at 1e-170 m: the curve reaches 40 m/s
        # within 1e-170 rad of 90 deg
        lo, hi = speed_crossings(ShotParams(release_altitude=4.0, distance=1e-170), 40.0)
        assert lo < 0 and hi == math.nextafter(math.pi / 2, 0.0)

    @pytest.mark.parametrize("params", [ShotParams(distance=1e300), ShotParams(gravity=1e300)])
    def test_none_where_the_terms_overflow(self, params):
        assert speed_crossings(params, 40.0) is None


class TestSpeedSlope:
    """The phase form's dv/dtheta and d2v/dtheta2, from the kernel's speed,
    against central differences of the 50-digit speed."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.0, 10.0),
        d=st.floats(0.1, 100.0),
        h=st.floats(0.0, 10.0),
        g=st.floats(1.0, 30.0),
        where=st.floats(0.001, 0.999),
    )
    def test_matches_the_decimal_derivative(self, a, d, h, g, where):
        params = ShotParams(a, d, h, g)
        feas = feasibility_angle(params)
        angle = feas + where * (math.pi / 2 - feas)
        assume(feas < angle < math.pi / 2)
        speed = required_velocity(params, angle)
        with localcontext() as ctx:
            ctx.prec = 50
            step, at = Decimal("1e-12"), Decimal(angle)
            rise, fall = (decimal_required_velocity(*params, at + s) for s in (step, -step))
            slope = float((rise - fall) / (2 * step))
            bend = float((rise - 2 * decimal_required_velocity(*params, at) + fall) / (step * step))
        got = speed_bends(params, angle)
        assert got[0] == pytest.approx(slope, rel=1e-9, abs=1e-9 * speed)
        assert got[1] == pytest.approx(bend, rel=1e-9)

    def test_zero_at_the_optimum_and_signed_either_side(self):
        opt = optimal_angle(DEFAULTS)
        for angle, sign in ((opt.angle - 0.1, -1), (opt.angle + 0.1, 1)):
            slope = speed_bends(DEFAULTS, angle)[0]
            assert math.copysign(1, slope) == sign
        assert abs(speed_bends(DEFAULTS, opt.angle)[0]) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.0, 10.0),
        d=st.floats(0.1, 100.0),
        h=st.floats(0.0, 10.0),
        near=st.floats(0.0, 0.999),
        far=st.floats(0.0, 0.999),
        side=st.sampled_from([-1, 1]),
    )
    def test_the_second_derivative_rises_away_from_the_optimum(self, a, d, h, near, far, side):
        # the step rule's premise: on either side of theta*, v'' is least
        # nearest theta*, so a step's largest v'' is at its outer end
        params = ShotParams(a, d, h)
        theta, feas = optimal_angle(params).angle, feasibility_angle(params)
        end = feas if side < 0 else math.pi / 2
        near, far = sorted((near, far))
        inner, outer = (theta + f * (end - theta) for f in (near, far))
        assume(feas < inner and outer < math.pi / 2 and outer != inner)
        assert speed_bends(params, outer)[1] >= speed_bends(params, inner)[1] * (1 - 1e-12)


def closed_form_optimum_angle(params):
    """45 degrees plus half the feasibility angle, written out here apart
    from the library so that test_closed_form_matches_grid_oracle checks
    the formula itself against the grid-scan oracle."""
    return math.pi / 4 + 0.5 * feasibility_angle(params)


class TestOptimalAngle:
    def test_headline_optimum(self):
        opt = optimal_angle(DEFAULTS)
        assert math.degrees(opt.angle) == pytest.approx(48.8, abs=0.05)
        assert opt.speed == pytest.approx(10.6, abs=0.05)

    def test_speed_consistent_with_required_velocity(self):
        opt = optimal_angle(DEFAULTS)
        assert opt.speed == pytest.approx(
            required_velocity(DEFAULTS, opt.angle), rel=1e-9
        )

    def test_long_range_approaches_45(self):
        opt = optimal_angle(ShotParams(distance=200.0))
        assert math.degrees(opt.angle) == pytest.approx(45.19, abs=0.05)

    def test_higher_release(self):
        opt = optimal_angle(ShotParams(release_altitude=2.2))
        assert math.degrees(opt.angle) == pytest.approx(47.43, abs=0.05)
        assert opt.speed == pytest.approx(10.33, abs=0.05)

    def test_closed_form_matches_grid_oracle(self):
        rng = random.Random(55555)
        for _ in range(10):
            params, _ = random_feasible_case(rng)
            feas = feasibility_angle(params)
            bracket = Bracket(feas + 1e-6, 89.9 * DEG)
            scan = grid_scan(
                lambda a: required_velocity(params, a), bracket, n=100_000
            )
            cell = (bracket.hi - bracket.lo) / 99_999
            assert abs(scan.x - closed_form_optimum_angle(params)) <= 2 * cell

    def test_optimizer_matches_grid_oracle(self):
        rng = random.Random(424242)
        for _ in range(20):
            params, _ = random_feasible_case(rng)
            opt = optimal_angle(params)
            feas = feasibility_angle(params)
            bracket = Bracket(feas + 1e-6, 89.9 * DEG)
            scan = grid_scan(
                lambda a: required_velocity(params, a), bracket, n=10_000
            )
            cell = (bracket.hi - bracket.lo) / 9_999
            assert abs(opt.angle - scan.x) <= cell

    def test_optimizer_matches_closed_form(self):
        """Golden-section search on the required speed, the paper's
        method, lands on the closed-form optimum, and the optimal speed
        obeys v^2 = g*(sqrt(d^2 + (h-a)^2) + (h-a))."""
        rng = random.Random(77)
        for _ in range(20):
            params, _ = random_feasible_case(rng)
            opt = optimal_angle(params)
            bracket = Bracket(feasibility_angle(params) + 1e-6, 89.9 * DEG)
            search = minimize_scalar(
                lambda x: required_velocity(params, x), bracket, tol=1e-9
            )
            assert abs(search.x - opt.angle) <= 1e-6
            a, d = params.release_altitude, params.distance
            h, g = params.hoop_height, params.gravity
            assert opt.speed**2 == pytest.approx(
                g * (math.hypot(d, h - a) + (h - a)), rel=1e-12
            )

    def test_unimodality_on_grid(self):
        lo, hi = feasibility_angle(DEFAULTS) + 1e-4, 89.9 * DEG
        grid = [lo + (hi - lo) * i / 1999 for i in range(2000)]
        speeds = [required_velocity(DEFAULTS, a) for a in grid]
        best = speeds.index(min(speeds))
        descending = speeds[: best + 1]
        ascending = speeds[best:]
        assert all(b < a for a, b in zip(descending, descending[1:]))
        assert all(b > a for a, b in zip(ascending, ascending[1:]))


class TestOptimumAgainstDecimalOracle:
    """theta* and v* in ulps of the 50-digit oracle, over a, h in
    [0, 1e4] m, d in [1e-4, 1e4] m and g in [0.1, 100] m/s^2.  A release
    at or below the hoop (k = h - a >= 0) takes pi/4 + phi/2 and
    sqrt(g*(r + k)); above it, atan2(d, r - k) and sqrt(g*(d/(r - k))*d).
    Largest errors in 840,000 random cases of this domain: theta* 1.11
    and 2.60 ulp, v* 1.74 and 2.28 ulp."""

    @settings(max_examples=400, deadline=None)
    @given(
        a=st.floats(0.0, 1e4),
        d=st.floats(1e-4, 1e4),
        h=st.floats(0.0, 1e4),
        g=st.floats(0.1, 100.0),
    )
    # pi/4 + phi/2 was 1.1e7 ulp off here, as phi -> -pi/2
    @example(a=1569.0372358674144, d=0.00016065838929015886, h=0.44627615882773025,
             g=0.14899940272890727)
    # the largest errors found in the 840,000 cases
    @example(a=0.23237443272421554, d=0.017435595226812456, h=0.09073307917847777,
             g=25.18770133636918)
    @example(a=19.695450196901238, d=0.8361997227199672, h=0.08947815597350399,
             g=12.45336097779191)
    @example(a=4.449754575396913, d=0.0001266426094170781, h=1088.883894479949,
             g=94.48832806139816)
    def test_ulp_bounds(self, a, d, h, g):
        opt = optimal_angle(ShotParams(a, d, h, g))
        theta, speed = decimal_optimum(a, d, h, g)
        above = h - a < 0
        assert ulps(opt.angle, theta) <= (3.0 if above else 1.5)
        assert ulps(opt.speed, speed) <= (2.5 if above else 2.0)

    @pytest.mark.parametrize(
        "a, d, h, g",
        [
            (1.7e308, 1.0, 0.0, 9.8),  # v* ~ 1.7e-154
            (1e308, 1e308, 0.0, 0.1),  # theta* = 22.5 deg, v* ~ 2.0e153
        ],
    )
    def test_finite_where_r_minus_k_overflows(self, a, d, h, g):
        # r - k = r + |k| overflows, but tan(theta*) and v* do not
        opt = optimal_angle(ShotParams(a, d, h, g))
        theta, speed = decimal_optimum(a, d, h, g)
        assert ulps(opt.angle, theta) <= 3.0
        assert ulps(opt.speed, speed) <= 2.5

    @pytest.mark.parametrize(
        "a, d, h, g",
        [
            (0.0, 1.5e308, 1.5e308, 0.01),  # theta* = 67.5 deg, v* ~ 1.9e153
            (0.0, 1.2e308, 1.5e308, 0.5),  # v* ~ 1.3e154
        ],
    )
    def test_finite_where_r_overflows_at_or_below_the_hoop(self, a, d, h, g):
        # r = hypot(d, k) overflows, but g*(r + k) does not
        opt = optimal_angle(ShotParams(a, d, h, g))
        theta, speed = decimal_optimum(a, d, h, g)
        assert ulps(opt.angle, theta) <= 1.5
        assert ulps(opt.speed, speed) <= 2.0

    @pytest.mark.parametrize(
        "a, d, h, g",
        [
            (3.78e180, 1.23e-162, 0.0, 4.13e208),  # d/(r - k) ~ 1.6e-343 underflows to 0
            (1e300, 1e-10, 0.0, 9.8),  # d/(r - k) = 5e-311 keeps 43 of 53 bits
            (1e308, 1e-300, 0.0, 1e300),  # and r - k overflows too
        ],
    )
    def test_finite_where_d_over_r_minus_k_underflows(self, a, d, h, g):
        # tan(theta*) = d/(r - k) is not a normal float, but v* is
        opt = optimal_angle(ShotParams(a, d, h, g))
        theta, speed = decimal_optimum(a, d, h, g)
        assert ulps(opt.angle, theta) <= 3.0
        assert ulps(opt.speed, speed) <= 2.5

    def test_overflows_where_g_times_r_plus_k_does(self):
        with pytest.raises(ValueError, match="is not finite: inf"):
            optimal_angle(ShotParams(0.0, 1.5e308, 1.5e308, 1.0))


class TestSweeps:
    def test_theta_decreases_and_speed_increases_with_distance(self):
        grid = [1.0 + 0.5 * i for i in range(29)]
        _, _, angles, speeds = sweep_distance(DEFAULTS, grid)
        assert all(b < a for a, b in zip(angles, angles[1:]))
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_single_point_sweep(self):
        curve = sweep_distance(DEFAULTS, [10.0])
        (d,), (angle,), _ = curve.distances, curve.angles, curve.speeds
        assert d == 10.0
        expected = optimal_angle(DEFAULTS)
        assert angle == pytest.approx(expected.angle, abs=1e-12)

    def test_close_range_steep_angle(self):
        curve = sweep_distance(DEFAULTS, [1.0])
        assert math.degrees(curve.angles[0]) == pytest.approx(
            71.7, abs=0.05
        )

    def test_altitude_ordering(self):
        grid = [1.0 + i for i in range(15)]
        curves = sweep_altitudes(DEFAULTS, [1.2, 1.7, 2.2], grid)
        for i in range(len(grid)):
            angles = [c.angles[i] for c in curves]
            speeds = [c.speeds[i] for c in curves]
            assert angles[0] > angles[1] > angles[2]
            assert speeds[0] > speeds[1] > speeds[2]

    def test_single_altitude_equals_distance_sweep(self):
        grid = [2.0, 5.0, 10.0]
        [curve] = sweep_altitudes(DEFAULTS, [1.7], grid)
        assert curve == sweep_distance(DEFAULTS, grid)

    def test_default_altitude_row_matches_headline(self):
        curves = sweep_altitudes(DEFAULTS, [1.2, 1.7, 2.2], [10.0])
        curve = curves[1]
        assert math.degrees(curve.angles[0]) == pytest.approx(48.8, abs=0.05)
        assert curve.speeds[0] == pytest.approx(10.6, abs=0.05)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_distance(DEFAULTS, [2.0, 1.0])
        with pytest.raises(ValueError):
            sweep_distance(DEFAULTS, [-1.0, 2.0])


def outcome(compute):
    """compute()'s value, or the type and message of what it raised."""
    try:
        return compute()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def per_point_sweep(params, grid):
    """The sweep as one validated ShotParams per distance."""
    return [(d, optimal_angle(params.replace(distance=d))) for d in grid]


def bits(rows):
    """(d, angle, speed) rows with the two floats as hex, bit for bit."""
    return [(d, angle.hex(), speed.hex()) for d, angle, speed in rows]


def swept_params(hoop, offset, gravity, above):
    """Release altitude offset above the hoop or below it (not below 0)."""
    altitude = hoop + offset if above else max(hoop - offset, 0.0)
    return ShotParams(
        release_altitude=altitude, hoop_height=hoop, gravity=gravity
    )


params_strategy = st.builds(
    swept_params,
    hoop=st.floats(0.0, 6.0),
    offset=st.floats(0.0, 6.0),
    gravity=st.floats(0.1, 30.0),
    above=st.booleans(),
)
increasing_grids = st.lists(
    st.floats(1e-3, 1e3), min_size=1, max_size=30, unique=True
).map(sorted)


class TestSweepMatchesPerPointOptimum:
    @settings(max_examples=300, deadline=None)
    @given(params=params_strategy, grid=increasing_grids)
    @example(params=ShotParams(release_altitude=1.2), grid=[1.0, 2.7, 10.0])
    @example(params=ShotParams(release_altitude=5.0), grid=[0.5, 1.0, 15.0])
    def test_entries_bit_identical(self, params, grid):
        curve = sweep_distance(params, grid)
        expected = [(d, *opt) for d, opt in per_point_sweep(params, grid)]
        assert curve.release_altitude == params.release_altitude
        assert all(type(column) is tuple for column in curve[1:])
        assert bits(zip(curve.distances, curve.angles, curve.speeds)) == bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        params=params_strategy,
        grid=increasing_grids,
        bad=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e308]),
        where=st.integers(0, 30),
    )
    def test_bad_distance_raises_as_shot_params_does(self, params, grid, bad, where):
        if math.isnan(bad):
            grid.insert(where % (len(grid) + 1), bad)
        else:  # kept strictly increasing, so only the distance check fires
            grid = sorted(set(grid) | {bad})
        got = outcome(lambda: sweep_distance(params, grid))
        assert got == outcome(lambda: per_point_sweep(params, grid))
        check = "finite" if not math.isfinite(bad) else "positive"
        assert got == (ValueError, f"distance must be {check}, got {bad}")

    @pytest.mark.parametrize(
        "valid, error",
        [
            # h > a: phi = atan(inf) = pi/2, so theta* = pi/2
            pytest.param(
                5e-324,
                (VerticalShot, "angle must be below pi/2, got 1.5707963267948966"),
                id="vertical",
            ),
            pytest.param(  # g*(r + k) overflows; at 1e300 it does not
                1e308,
                (ValueError, "required speed at angle 0.7853981633974483 rad is not finite: inf"),
                id="speed-overflows",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "grid_of",
        [
            lambda v: [v, math.nan],
            lambda v: [math.nan, v],
            lambda v: [v, math.inf],
            lambda v: [-math.inf, v],
        ],
        ids=["before-nan", "after-nan", "before-inf", "after-minus-inf"],
    )
    def test_first_failing_point_decides(self, valid, error, grid_of):
        # a valid distance at which the optimum itself raises, next to a
        # distance the check rejects: whichever comes first must raise
        grid = grid_of(valid)
        got = outcome(lambda: sweep_distance(DEFAULTS, grid))
        assert got == outcome(lambda: per_point_sweep(DEFAULTS, grid))
        bad = grid[1] if grid[0] == valid else grid[0]
        first = error if grid[0] == valid else (ValueError, f"distance must be finite, got {bad}")
        assert got == first

    def test_one_speed_evaluation_per_point_and_no_distance_check(self, monkeypatch):
        # the optimum's speed is the closed form in _optima: no kernel call
        counts = dict.fromkeys(["_hoop_speed", "check_distance"], 0)
        for name in counts:
            def counted(*args, _name=name, _original=getattr(solver, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(solver, name, counted)
        grid = default_d_grid()
        sweep_distance(DEFAULTS, grid)
        assert counts == {"_hoop_speed": 0, "check_distance": 0}
        optimal_angle(DEFAULTS)
        optimal_angle(DEFAULTS.replace(release_altitude=5.0))  # k < 0
        assert counts == {"_hoop_speed": 0, "check_distance": 0}
        with pytest.raises(ValueError):  # only a bad distance is checked
            sweep_distance(DEFAULTS, [*grid, math.nan])
        assert counts == {"_hoop_speed": 0, "check_distance": 1}

    def test_sweep_builds_one_shot_params_per_altitude(self, monkeypatch):
        calls = []
        init = ShotParams.__init__

        def counted(self, *args, **kwargs):
            calls.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ShotParams, "__init__", counted)
        curves = sweep_altitudes(DEFAULTS, [1.2, 1.7, 2.2], default_d_grid())
        assert [len(c.distances) for c in curves] == [141] * 3
        assert len(calls) <= 3


class TestAngleCurveMatchesRequiredVelocity:
    @settings(max_examples=300, deadline=None)
    @given(
        # release altitude above or below the hoop, at any distance
        params=st.builds(
            lambda p, d: p.replace(distance=d), params_strategy, st.floats(0.1, 40.0)
        ),
    )
    @example(params=DEFAULTS)
    @example(params=ShotParams(release_altitude=5.0))
    @example(params=DEFAULTS.replace(distance=0.001))
    def test_speeds_bit_identical(self, params):
        # each speed the drawn curve evaluates is required_velocity's, bit
        # for bit, or None where that raises InfeasibleAngle; within rounding
        # of the feasibility angle required_velocity may decline to answer
        for angle, v in kernel_calls(params):
            got = outcome(lambda: required_velocity(params, angle))
            if v is None:
                assert got[0] is InfeasibleAngle
            elif not (isinstance(got, tuple) and got[0] is Infeasible):
                assert got.hex() == v.hex()


class TestDistanceGrid:
    def test_default(self):
        lo, step, n = d_grid()
        assert (lo, step, n) == (1.0, 0.1, 141)
        assert lo + (n - 1) * step == pytest.approx(15.0)

    def test_single_point(self):
        assert d_grid(2.0, 2.0, 1.0) == (2.0, 1.0, 1)

    def test_size_bound(self):
        assert d_grid(1.0, MAX_GRID_POINTS, 1.0) == (1.0, 1.0, MAX_GRID_POINTS)
        with pytest.raises(ValueError, match="more than"):
            d_grid(1.0, MAX_GRID_POINTS + 1.0, 1.0)
        with pytest.raises(ValueError, match="more than"):
            d_grid(-1e308, 1e308, 1.0)  # hi - lo overflows

    @pytest.mark.parametrize(
        "lo, hi, step",
        [
            (5.0, 2.0, 1.0),
            (math.nan, 2.0, 1.0),
            (1.0, math.inf, 1.0),
            (1.0, 2.0, 0.0),
            (1.0, 2.0, -0.1),
            (1.0, 2.0, math.nan),
        ],
    )
    def test_invalid_rejected(self, lo, hi, step):
        with pytest.raises(ValueError, match="d_grid"):
            d_grid(lo, hi, step)


class TestCsvExport:
    def test_format(self):
        curves = sweep_altitudes(DEFAULTS, [1.7], [10.0])
        csv_text = sweep_csv(curves)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "d,theta_opt_deg,v_opt,altitude"
        fields = lines[1].split(",")
        assert len(fields) == 4
        for value in fields:
            whole, frac = value.split(".")
            assert len(frac) == 6
        assert fields[0] == "10.000000"
        assert fields[3] == "1.700000"
        assert float(fields[1]) == pytest.approx(48.844, abs=1e-3)


with localcontext() as _ctx:
    _ctx.prec = 50
    DEG_PER_RAD = 180 / (4 * decimal_atan(Decimal(1)))


def six_places(exact):
    """exact rounded half-even to 6 decimals, as %.6f writes it, or None
    where exact lies within 8 ulps of a tie, so that a float within the
    solver's error bounds (and one rounding to degrees) may round the
    other way."""
    if 8 * math.ulp(float(exact)) >= 5e-7:  # every value lies that near a tie
        return None
    tie = exact.quantize(Decimal("1e-6"), rounding=ROUND_FLOOR) + Decimal("5e-7")
    if abs(exact - tie) <= 8 * Decimal(math.ulp(float(exact))):
        return None
    return f"{exact:.6f}"


def assert_correctly_rounded(csv_text, params, grid):
    a, _, h, g = params
    rows = csv_text.splitlines()[1:]
    assert len(rows) == len(grid)
    for row, d in zip(rows, grid):
        theta, speed = decimal_optimum(a, d, h, g)
        _, theta_text, speed_text, _ = row.split(",")
        for text, exact in ((theta_text, theta * DEG_PER_RAD), (speed_text, speed)):
            assert six_places(exact) in (text, None), (row, exact)


class TestCsvCorrectlyRounded:
    def test_default_sweep(self):
        grid = default_d_grid()
        for curve in sweep_altitudes(DEFAULTS, DEFAULT_ALTITUDES, grid):
            params = DEFAULTS.replace(release_altitude=curve.release_altitude)
            assert_correctly_rounded(sweep_csv([curve]), params, grid)

    @settings(max_examples=100, deadline=None)
    @given(params=params_strategy, grid=increasing_grids)
    def test_any_sweep(self, params, grid):
        assert_correctly_rounded(sweep_csv([sweep_distance(params, grid)]), params, grid)
