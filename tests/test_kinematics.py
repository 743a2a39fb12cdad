import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hoopshot.kinematics import (
    LaunchState,
    ShotParams,
    ground_impact_time,
    height_at_plane,
    json_loads,
    position_at,
    sample_trajectory,
    time_to_plane,
)

DEFAULTS = ShotParams()
DEG30 = math.radians(30.0)


class TestPositionAt:
    def test_launch_point(self):
        x, y = position_at(DEFAULTS, LaunchState(DEG30, 15.0), 0.0)
        assert x == 0.0
        assert y == 1.7

    def test_direct_evaluation_at_one_second(self):
        x, y = position_at(DEFAULTS, LaunchState(DEG30, 15.0), 1.0)
        assert x == pytest.approx(12.990381, abs=1e-6)
        assert y == pytest.approx(4.3, abs=1e-6)

    @given(
        angle=st.floats(0.0, 1.4),
        speed=st.floats(0.5, 30.0),
        t=st.floats(0.0, 5.0),
    )
    def test_zero_gravity_straight_line(self, angle, speed, t):
        params = ShotParams(gravity=1e-12)  # gravity must be positive
        x, y = position_at(params, LaunchState(angle, speed), t)
        assert y - params.release_altitude == pytest.approx(
            math.tan(angle) * x, abs=1e-9
        )


class TestTimeToPlane:
    def test_flat_shot(self):
        assert time_to_plane(LaunchState(0.0, 10.0), 10.0) == pytest.approx(1.0)

    def test_angled_shot(self):
        t = time_to_plane(LaunchState(DEG30, 12.2), 10.0)
        assert t == pytest.approx(0.9465, abs=1e-4)

    @pytest.mark.parametrize(
        "angle",
        [math.radians(89.99999999999), math.pi / 2 - 1e-14],
        ids=["89.99999999999deg", "half-pi-less-1e-14"],
    )
    def test_near_vertical_shot_ends_on_the_floor(self, angle):
        # cos(angle) is at most 1.7e-13: the plane is crossed, if ever,
        # long after the ball is back on the floor at x = 0
        launch = LaunchState(angle, 10.0)
        assert math.isfinite(time_to_plane(launch, 10.0))
        traj = sample_trajectory(DEFAULTS, launch, n=5)
        t, x, y = traj.samples[-1]
        assert t == ground_impact_time(DEFAULTS, launch)
        assert x == pytest.approx(0.0, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-9)

    def test_underflowing_horizontal_speed_never_reaches_the_plane(self):
        # speed * cos(angle) underflows to 0 though cos(angle) is 1.7e-10:
        # the ball never crosses the plane, and inf is the crossing time
        launch = LaunchState(math.radians(89.99999999), 1e-320)
        assert time_to_plane(launch, 10.0) == math.inf
        traj = sample_trajectory(DEFAULTS, launch, n=5)
        assert traj.samples[-1][0] == ground_impact_time(DEFAULTS, launch)
        assert traj.samples[-1][2] == pytest.approx(0.0, abs=1e-9)


class TestHeightAtPlane:
    @pytest.mark.parametrize("speed", [1e-300, 1e-320])
    def test_height_at_an_unreachable_plane_is_minus_infinity(self, speed):
        # the crossing time is inf: the ball falls without end before it
        launch = LaunchState(1.5707963266, speed)
        assert time_to_plane(launch, DEFAULTS.distance) == math.inf
        assert height_at_plane(DEFAULTS, launch) == -math.inf

    def test_hoop_reaching_speed_hits_hoop(self):
        # 12.153021... is the closed-form hoop-reaching speed at 30 deg
        y = height_at_plane(DEFAULTS, LaunchState(DEG30, 12.153021336394197))
        assert y == pytest.approx(3.05, abs=1e-9)

    def test_fifteen_goes_too_high(self):
        assert height_at_plane(DEFAULTS, LaunchState(DEG30, 15.0)) > 3.05

    def test_flat_shot_from_hoop_height_no_gravity(self):
        params = ShotParams(
            release_altitude=3.05, hoop_height=3.05, gravity=1e-12
        )
        y = height_at_plane(params, LaunchState(0.0, 8.0))
        assert y == pytest.approx(3.05, abs=1e-9)

    @given(v1=st.floats(10.0, 25.0), dv=st.floats(0.01, 5.0))
    def test_strictly_increasing_in_speed(self, v1, dv):
        lo = height_at_plane(DEFAULTS, LaunchState(DEG30, v1))
        hi = height_at_plane(DEFAULTS, LaunchState(DEG30, v1 + dv))
        assert hi > lo


class TestSampleTrajectory:
    def test_two_samples_are_endpoints(self):
        traj = sample_trajectory(DEFAULTS, LaunchState(DEG30, 15.0), n=2)
        assert len(traj.samples) == 2
        t, x, y = traj.samples[0]
        assert t == 0.0
        assert (x, y) == (0.0, 1.7)

    def test_clipping_contract(self):
        traj = sample_trajectory(DEFAULTS, LaunchState(DEG30, 15.0), n=100)
        _, x, y = traj.samples[-1]
        assert x <= 10.0 + 1e-9
        assert y >= -1e-9

    @given(
        params=st.builds(
            ShotParams,
            # up to 6 m: releases above the 0-5 m hoop are drawn too
            release_altitude=st.floats(0.0, 6.0),
            distance=st.floats(0.1, 40.0),
            hoop_height=st.floats(0.0, 5.0),
            gravity=st.floats(0.1, 30.0),
        ),
        angle=st.floats(0.0, 1.5),
        speed=st.floats(0.1, 60.0),
        n=st.integers(2, 300),
    )
    @example(params=DEFAULTS, angle=DEG30, speed=15.0, n=50)
    def test_samples_reproduce_position_at_exactly(self, params, angle, speed, n):
        launch = LaunchState(angle, speed)
        traj = sample_trajectory(params, launch, n=n)
        assert type(traj.samples) is tuple and len(traj.samples) == n
        for s in traj.samples:
            assert type(s) is tuple
            expected = (s[0], *position_at(params, launch, s[0]))
            assert list(map(float.hex, s)) == list(map(float.hex, expected))

    def test_overflowing_sample_rejected(self):
        # the path reaches the far plane at a height above the float range
        params = ShotParams(distance=1e308, gravity=1e-300)
        with pytest.raises(ValueError, match="trajectory sample is not finite"):
            sample_trajectory(params, LaunchState(math.radians(89.0), 1e10), n=3)

    def test_huge_gravity_and_tiny_speed_end_at_the_ground(self):
        # 2*g*a overflows though the ground time is finite, sqrt(2a/g)
        params = ShotParams(gravity=1e308)
        launch = LaunchState(math.pi / 4, 1e-300)
        t = ground_impact_time(params, launch)
        assert t == pytest.approx(math.sqrt(2.0 * 1.7 / 1e308), rel=1e-12)
        traj = sample_trajectory(params, launch, n=3)
        assert traj.samples[-1][0] == t
        assert traj.samples[-1][2] == pytest.approx(0.0, abs=1e-9)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_trajectory(DEFAULTS, LaunchState(DEG30, 15.0), n=1)

    def test_samples_bounded_by_the_grid_limit(self):
        launch = LaunchState(DEG30, 15.0)
        assert len(sample_trajectory(DEFAULTS, launch, n=100_000).samples) == 100_000
        with pytest.raises(ValueError, match="need at most 100000 samples, got 100001"):
            sample_trajectory(DEFAULTS, launch, n=100_001)

    @given(
        angle=st.floats(0.05, 1.4),
        speed=st.floats(1.0, 30.0),
    )
    def test_x_strictly_increasing(self, angle, speed):
        traj = sample_trajectory(DEFAULTS, LaunchState(angle, speed), n=40)
        xs = [x for _, x, _ in traj.samples]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    @given(
        angle=st.floats(0.05, 1.4),
        speed=st.floats(1.0, 30.0),
    )
    def test_energy_conserved_along_trajectory(self, angle, speed):
        launch = LaunchState(angle, speed)
        traj = sample_trajectory(DEFAULTS, launch, n=30)
        g = DEFAULTS.gravity

        def energy(s):
            t, _, y = s
            vy = speed * math.sin(angle) - g * t
            return vy * vy + 2.0 * g * y

        e0 = energy(traj.samples[0])
        for s in traj.samples:
            assert energy(s) == pytest.approx(e0, rel=1e-9)

    def test_ground_impact_is_larger_root(self):
        launch = LaunchState(DEG30, 5.0)
        t = ground_impact_time(DEFAULTS, launch)
        _, y = position_at(DEFAULTS, launch, t)
        assert y == pytest.approx(0.0, abs=1e-9)
        assert t > launch.speed * math.sin(DEG30) / DEFAULTS.gravity


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            ShotParams(distance=0.0)
        with pytest.raises(ValueError):
            ShotParams(gravity=-1.0)
        with pytest.raises(ValueError):
            ShotParams(release_altitude=-0.1)

    def test_bad_launch(self):
        with pytest.raises(ValueError):
            LaunchState(math.pi / 2, 10.0)
        with pytest.raises(ValueError):
            LaunchState(0.5, 0.0)


def outcome(loads, text):
    """repr of loads(text), or the type and message of what it raises."""
    try:
        return repr(loads(text))
    except Exception as exc:  # the oracle's own exception is the expected result
        return type(exc), str(exc)


# JSON's tokens and near misses: each whitespace and none, a byte-order
# mark, a form feed (not JSON whitespace), lone surrogates, escapes good
# and bad, control characters, the constants and numbers that overflow
TOKENS = ["{", "}", "[", "]", ",", ":", '"', "\\", " ", "\t", "\n", "\r", "\x0c", "\ufeff",
          "\ud800", "\udfff", "\\u", "\\ud83d", "\\n", "\x00", "\x1f", "a", "é", "0", "1",
          "-", "+", ".", "e", "E", "1e400", "9" * 30, "true", "false", "null", "NaN",
          "Infinity", "-Infinity", "tru", "nul", '"a"', '"k":', "[]", "{}"]
whitespace = st.text(st.sampled_from(" \t\n\r"), max_size=3)
documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=12,
)


@st.composite
def dumped(draw):
    """A document as json.dumps writes it, with random separators and
    ensure_ascii, between stray whitespace."""
    separators = tuple(draw(whitespace) + sep + draw(whitespace) for sep in ",:")
    text = json.dumps(draw(documents), separators=separators, ensure_ascii=draw(st.booleans()))
    return draw(whitespace) + text + draw(whitespace)


class TestJsonLoads:
    """json_loads is json.loads without the json package; json.loads is
    its oracle, for values and for errors alike."""

    @settings(max_examples=500)
    @given(text=st.one_of(
        st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
        dumped(),
        st.text(max_size=12),
    ))
    @example(text="")
    @example(text="\ufeff{}")
    @example(text=' {"a": [1, 2.5, -0.0, NaN]} \n')
    @example(text="[] []")
    @example(text='"\x01"')
    @example(text="\x0c1")
    def test_equals_json_loads(self, text):
        assert outcome(json_loads, text) == outcome(json.loads, text)

    @pytest.mark.parametrize("brackets", ["[]", ['{"a": ', "}"]])
    def test_too_deep_a_nesting_is_a_recursion_error_both_ways(self, brackets):
        text = brackets[0] * 100_000 + brackets[1] * 100_000
        want = outcome(json.loads, text)
        assert want[0] is RecursionError
        assert outcome(json_loads, text) == want
