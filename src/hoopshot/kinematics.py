"""Projectile kinematics for a single basketball shot.

All angles are radians internally; degrees appear only at the CLI
boundary.  Everything here is pure and deterministic.  Every other
submodule imports this one, so it also holds what they share: the `Record`
base of the checked records, the `Infeasible` error and the point limit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

COS_EPS = 1e-12
# the most trajectory samples or distance-grid points one call builds
MAX_GRID_POINTS = 100_000


class VerticalShot(ValueError):
    """The launch angle is (numerically) vertical: the ball never
    advances toward the hoop plane."""


class Infeasible(ValueError):
    """Raised by an objective to mark a point as having no defined value."""


class Record:
    """Immutable value record, the base of every checked input record.
    A subclass names its fields, in order, in `__slots__`, and its
    `__init__` sets them with `_fill` before its checks.  Records of one
    class are equal when their fields are; `repr` reads
    `Name(field=value, ...)`.  `replace` builds the copy through
    `__init__`, so every check runs again."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**dict(zip(self.__slots__, self._values())) | changes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def check_distance(distance: float) -> None:
    """Raise ValueError unless distance is finite and positive; the one
    distance check of `ShotParams` and of the solver's distance sweep."""
    if not math.isfinite(distance):
        raise ValueError(f"distance must be finite, got {distance}")
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")


class ShotParams(Record):
    """Fixed scenario geometry and physics.

    release_altitude: height of the release point above the ground, m
    distance: horizontal distance to the hoop plane, m
    hoop_height: height of the hoop above the ground, m
    gravity: gravitational acceleration, m/s^2
    """

    __slots__ = ("release_altitude", "distance", "hoop_height", "gravity")

    def __init__(
        self,
        release_altitude: float = 1.7,
        distance: float = 10.0,
        hoop_height: float = 3.05,
        gravity: float = 9.8,
    ) -> None:
        self._fill(release_altitude, distance, hoop_height, gravity)
        for name in self.__slots__:
            value = getattr(self, name)
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


class LaunchState(Record):
    """Controllable shot inputs: launch angle (radians) and speed (m/s)."""

    __slots__ = ("angle", "speed")

    def __init__(self, angle: float, speed: float) -> None:
        self._fill(angle, speed)
        if not 0.0 <= self.angle < math.pi / 2:
            raise ValueError(f"angle must be in [0, pi/2), got {self.angle}")
        if not 0.0 < self.speed < math.inf:
            raise ValueError(f"speed must be positive and finite, got {self.speed}")


class Trajectory(NamedTuple):
    params: ShotParams
    launch: LaunchState
    samples: tuple[tuple[float, float, float], ...]


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
    c = math.cos(launch.angle)
    if c <= COS_EPS:
        raise VerticalShot(
            f"cos(angle)={c:.3e} below threshold; shot never reaches the plane"
        )
    return distance / (launch.speed * c)


def height_at_plane(params: ShotParams, launch: LaunchState) -> float:
    """Ball height when it crosses the hoop plane.

    Equals the hoop height exactly when the launch speed is the
    hoop-reaching solution for this angle.
    """
    t = time_to_plane(launch, params.distance)
    return position_at(params, launch, t)[1]


def ground_impact_time(params: ShotParams, launch: LaunchState) -> float:
    """Larger root of y(t) = 0: when the ball would hit the ground."""
    vy = launch.speed * math.sin(launch.angle)
    g = params.gravity
    return (vy + math.sqrt(vy * vy + 2.0 * g * params.release_altitude)) / g


def sample_trajectory(
    params: ShotParams, launch: LaunchState, n: int = 200
) -> Trajectory:
    """Sample the trajectory at n equally spaced times.

    Runs from t=0 to the earlier of the hoop-plane crossing and ground
    impact, so the drawn path stops at the plane or the floor.  Each
    sample is the tuple (t, *position_at(params, launch, t)), bit for bit.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if n > MAX_GRID_POINTS:
        raise ValueError(f"need at most {MAX_GRID_POINTS} samples, got {n}")
    t_end = min(time_to_plane(launch, params.distance), ground_impact_time(params, launch))
    vx = launch.speed * math.cos(launch.angle)
    vy = launch.speed * math.sin(launch.angle)
    a, hg = params.release_altitude, 0.5 * params.gravity
    m = n - 1
    samples = tuple(
        [(t, vx * t, a + vy * t - hg * t * t) for i in range(n) for t in [t_end * i / m]]
    )
    return Trajectory(params, launch, samples)
