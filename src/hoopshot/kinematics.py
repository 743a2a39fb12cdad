"""Projectile kinematics for a single basketball shot.

All angles are radians internally; degrees appear only at the CLI
boundary.  Everything here is pure and deterministic.  Every other
submodule imports this one, so it also holds what they share: the
`checked_record` base of the checked records, the `Infeasible` error and
the point limit.
"""

from __future__ import annotations

import math
from collections import namedtuple

COS_EPS = 1e-12
# the most trajectory samples or distance-grid points one call builds
MAX_GRID_POINTS = 100_000


class VerticalShot(ValueError):
    """The launch angle is (numerically) vertical: the ball never
    advances toward the hoop plane."""


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
    c = math.cos(launch.angle)
    if c <= COS_EPS:
        raise VerticalShot(
            f"cos(angle)={c:.3e} below threshold; shot never reaches the plane"
        )
    vx = launch.speed * c
    # vx underflows to 0 for a tiny speed; the time then overflows to inf
    return distance / vx if vx else math.inf


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
    # every term of x and y is non-negative and monotone in t, so a finite
    # last sample bounds all the others
    if not all(map(math.isfinite, samples[-1])):
        raise ValueError(f"trajectory sample is not finite: {samples[-1]}")
    return Trajectory(params, launch, samples)
