"""Projectile kinematics for a single basketball shot.

All angles are radians internally; degrees appear only at the CLI
boundary.  Everything here is pure and deterministic.  Every other
submodule imports this one, so it also holds what they share: the
`checked_record` base of the checked records, the `Infeasible` error,
the point limit, `json_loads`, which parses every JSON file the CLI
reads, `json_value` and `json_object` (`short_repr` shows the bad
value), which check every value read from one, and `_write_file`,
which writes every file it writes.
"""

import math
import os
import sys
from collections import namedtuple

# the most trajectory samples or distance-grid points one call builds
MAX_GRID_POINTS = 100_000
# the samples the `trajectory` command prints unless asked otherwise; the
# figures draw each trajectory as one Bezier curve (`trajectory_bezier`)
TRAJECTORY_SAMPLES = 200


class VerticalShot(ValueError):
    """The optimal launch angle rounds to pi/2: there is no shot to aim."""


class Infeasible(ValueError):
    """Raised by an objective to mark a point as having no defined value."""


def checked_record(typename: str, fields: str, defaults: tuple = ()) -> type:
    """A `collections.namedtuple` base for a checked record.  The record
    subclasses it with `__slots__ = ()` and a `_check` method, which runs
    on construction and in `_make`, `_replace` and `replace`.  `replace`
    builds its copy through the constructor, so an unknown field raises
    TypeError there and ValueError in `_replace`."""
    base = namedtuple(typename, fields, defaults=defaults)
    make = base._make.__func__

    def _make(cls, iterable):
        record = make(cls, iterable)
        record._check()
        return record

    base.__init__ = lambda self, *args, **kwargs: self._check()
    base._make = classmethod(_make)
    base.replace = lambda self, **changes: type(self)(**self._asdict() | changes)
    return base


# the kinds of `json_value`, as its messages name them; float is any number
_JSON_KINDS = {dict: "object", list: "list", str: "string", int: "integer that fits a float",
              float: "number that is finite and fits a float"}


def short_repr(value) -> str:
    """repr(value) for a message: cut to 60 characters, marked as cut."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


class _JsonDefaults:
    """The settings of `json.loads`, as `_json.make_scanner` reads them."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}.__getitem__


def json_loads(text: str):
    """json.loads(text): its value, or the error it raises.  It runs the C
    scanner of `_json` as `json.decoder.JSONDecoder.decode` runs it, without
    the `json` package, whose import compiles regular expressions (with `re`
    and `enum`) that the scanner does not use."""
    import _json

    ws = " \t\n\r"  # JSON's whitespace, which has no form feed
    if text.startswith("\ufeff"):
        message, pos = "Unexpected UTF-8 BOM (decode using utf-8-sig)", 0
    else:
        try:
            value, end = _json.make_scanner(_JsonDefaults)(text, len(text) - len(text.lstrip(ws)))
        except StopIteration as exc:
            message, pos = "Expecting value", exc.value
        else:
            rest = text[end:].lstrip(ws)
            if not rest:
                return value
            message, pos = "Extra data", len(text) - len(rest)
    from json.decoder import JSONDecodeError  # an error path: the C scanner imports it too

    raise JSONDecodeError(message, text, pos)


def json_value(value, kind: type, what: str):
    """value if it is a JSON value of `kind` (float: any number, returned
    as a float; true and false are none), else ValueError naming `what`."""
    ok = type(value) is kind or kind is float and type(value) is int
    if not ok or kind in (int, float) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {short_repr(value)}")
    return float(value) if kind is float else value


def json_object(value, what: str, keys, required=()) -> dict:
    """value if it is a JSON object with every key of `required` and no
    key outside `keys`, else ValueError naming `what`."""
    for key in json_value(value, dict, what):
        if key not in keys:
            raise ValueError(f"{what} has unknown key {short_repr(key)}; known: {', '.join(keys)}")
    for key in required:
        if key not in value:
            raise ValueError(f"{what} is missing key {key!r}")
    return value


def _write_file(path, data: bytes, what: str) -> None:
    """Write data to the file at path, created or truncated, in os.write calls
    on one descriptor, not a buffered file; an OSError names what and where."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:  # a call may write fewer bytes than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except (OSError, UnicodeEncodeError) as exc:  # a path the file-system encoding lacks
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def check_distance(distance: float) -> None:
    """Raise ValueError unless distance is finite and positive; the one
    distance check of `ShotParams` and of the solver's distance sweep."""
    if not math.isfinite(distance):
        raise ValueError(f"distance must be finite, got {distance}")
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")


class ShotParams(checked_record(
    "ShotParams", "release_altitude distance hoop_height gravity", (1.7, 10.0, 3.05, 9.8)
)):
    """Fixed scenario geometry and physics.

    release_altitude: height of the release point above the ground, m
    distance: horizontal distance to the hoop plane, m
    hoop_height: height of the hoop above the ground, m
    gravity: gravitational acceleration, m/s^2
    """

    __slots__ = ()

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        check_distance(self.distance)
        if self.gravity <= 0:
            raise ValueError(f"gravity must be positive, got {self.gravity}")
        if self.release_altitude < 0:
            raise ValueError(
                f"release_altitude must be non-negative, got {self.release_altitude}"
            )
        if self.hoop_height < 0:
            raise ValueError(
                f"hoop_height must be non-negative, got {self.hoop_height}"
            )


class LaunchState(checked_record("LaunchState", "angle speed")):
    """Controllable shot inputs: launch angle (radians) and speed (m/s)."""

    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 <= self.angle < math.pi / 2:
            raise ValueError(f"angle must be in [0, pi/2), got {self.angle}")
        if not 0.0 < self.speed < math.inf:
            raise ValueError(f"speed must be positive and finite, got {self.speed}")


# samples: (t, x, y) tuples
Trajectory = namedtuple("Trajectory", "params launch samples")


def position_at(
    params: ShotParams, launch: LaunchState, t: float
) -> tuple[float, float]:
    """Ball position at time t, ignoring air resistance.

    x = v*cos(angle)*t, y = a + v*sin(angle)*t - 0.5*g*t^2.
    """
    x = launch.speed * math.cos(launch.angle) * t
    y = (
        params.release_altitude
        + launch.speed * math.sin(launch.angle) * t
        - 0.5 * params.gravity * t * t
    )
    return x, y


def time_to_plane(launch: LaunchState, distance: float) -> float:
    """Time at which the ball crosses the vertical hoop plane at x = distance."""
    vx = launch.speed * math.cos(launch.angle)
    # vx underflows to 0 for a tiny speed; the time then overflows to inf
    return distance / vx if vx else math.inf


def height_at_plane(params: ShotParams, launch: LaunchState) -> float:
    """Ball height when it crosses the hoop plane.

    Equals the hoop height exactly when the launch speed is the
    hoop-reaching solution for this angle.
    """
    t = time_to_plane(launch, params.distance)
    # an infinite crossing time: the ball has fallen without end
    return position_at(params, launch, t)[1] if t < math.inf else -math.inf


def ground_impact_time(params: ShotParams, launch: LaunchState) -> float:
    """Larger root of y(t) = 0: when the ball would hit the ground."""
    vy = launch.speed * math.sin(launch.angle)
    g = params.gravity
    t = (vy + math.sqrt(vy * vy + 2.0 * g * params.release_altitude)) / g
    if t == math.inf:  # vy*vy or 2*g*a overflowed: the same root over s = sqrt(g)
        s = math.sqrt(g)
        t = (vy / s + math.hypot(vy / s, math.sqrt(2.0 * params.release_altitude))) / s
    return t


def _flight(params: ShotParams, launch: LaunchState):
    """(t_end, vx, vy, a, g/2) of a shot: it flies from t=0 to t_end, the
    earlier of the hoop-plane crossing and ground impact, so the path
    stops at the plane or the floor."""
    t_end = min(time_to_plane(launch, params.distance), ground_impact_time(params, launch))
    vx = launch.speed * math.cos(launch.angle)
    vy = launch.speed * math.sin(launch.angle)
    return t_end, vx, vy, params.release_altitude, 0.5 * params.gravity


def sample_trajectory(
    params: ShotParams, launch: LaunchState, n: int = TRAJECTORY_SAMPLES
) -> Trajectory:
    """Sample the trajectory at n equally spaced times, for the
    `trajectory` command's CSV (the figures draw `trajectory_bezier`).

    Runs from t=0 to the earlier of the hoop-plane crossing and ground
    impact, so the path stops at the plane or the floor.  Each
    sample is the tuple (t, *position_at(params, launch, t)), bit for bit.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if n > MAX_GRID_POINTS:
        raise ValueError(f"need at most {MAX_GRID_POINTS} samples, got {n}")
    t_end, vx, vy, a, hg = _flight(params, launch)
    m = n - 1
    samples = tuple(
        [(t, vx * t, a + vy * t - hg * t * t) for i in range(n) for t in [t_end * i / m]]
    )
    # every term of x and y is non-negative and monotone in t, so a finite
    # last sample bounds all the others
    if not all(map(math.isfinite, samples[-1])):
        raise ValueError(f"trajectory sample is not finite: {samples[-1]}")
    return Trajectory(params, launch, samples)


def trajectory_bezier(params: ShotParams, launch: LaunchState):
    """The path of `sample_trajectory`, t=0 to t_end, as the control
    points of one quadratic Bezier curve, in columns (xs, ys): the release
    point P0 = (0, a), C = P0 + t_end/2 * (vx, vy), and the end point P1,
    computed as a sample at t_end is.  x is linear and y quadratic in t,
    so this curve is the drag-free parabola exactly.  ValueError, with
    `sample_trajectory`'s message, where the end point is not finite;
    every term of C is at most the matching term of P1, so C is then
    finite too."""
    t_end, vx, vy, a, hg = _flight(params, launch)
    end = (t_end, vx * t_end, a + vy * t_end - hg * t_end * t_end)
    if not all(map(math.isfinite, end)):
        raise ValueError(f"trajectory sample is not finite: {end}")
    half = 0.5 * t_end
    return (0.0, vx * half, end[1]), (a, a + vy * half, end[2])
