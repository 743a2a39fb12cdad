"""Command-line interface.

Angles are degrees at this boundary and radians everywhere inside.
Exit codes: 0 success, 1 domain error (infeasible query, validation
violations), 2 usage or scenario-parse error.

Scenario files are JSON with top-level keys `params` (a, d, h, g),
`velocities`, `altitudes`, `d_grid` (lo, hi, step), and `output`.
Flags override file values.  The defaults live where they are used:
params in `kinematics.ShotParams`; velocities, altitudes and the
distance grid (with its validation) in `solver`.

Only `figures` and `validate-ladder` import the ladder and renderer
modules, inside their command functions, and only a scenario file
imports `json`, so the other commands start without them.  `run` builds
the argparse subparser of the invoked command only (one row of
`COMMANDS`), and every subparser only for top-level help, a missing
command or an unknown one.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import solver
from .kinematics import Infeasible, LaunchState, ShotParams, VerticalShot, sample_trajectory

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# scenario-file key -> ShotParams field (also the dest of its CLI flag)
PARAM_FIELDS = {
    "a": "release_altitude",
    "d": "distance",
    "h": "hoop_height",
    "g": "gravity",
}


class Scenario:
    """The inputs of one call: the defaults, then the scenario file,
    then the flags."""

    def __init__(self) -> None:
        self.params = ShotParams()
        self.velocities = list(solver.DEFAULT_VELOCITIES)
        self.altitudes = list(solver.DEFAULT_ALTITUDES)
        self.d_grid = solver.default_d_grid()
        self.output = "figures"


class ScenarioError(ValueError):
    pass


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {value!r}")
    return value


def _numbers(value, what: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{what} must be a non-empty JSON list, got {value!r}")
    return [float(v) for v in value]


def load_scenario(path: str | None) -> Scenario:
    scenario = Scenario()
    if path is None:
        return scenario
    import json

    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = _object(doc, f"scenario file {path}")
        if "params" in doc:
            p = _object(doc["params"], "params")
            scenario.params = scenario.params.replace(
                **{name: p[key] for key, name in PARAM_FIELDS.items() if key in p}
            )
        if "velocities" in doc:
            scenario.velocities = _numbers(doc["velocities"], "velocities")
        if "altitudes" in doc:
            scenario.altitudes = _numbers(doc["altitudes"], "altitudes")
        if "d_grid" in doc:
            g = _object(doc["d_grid"], "d_grid")
            scenario.d_grid = solver.default_d_grid(
                float(g["lo"]), float(g["hi"]), float(g.get("step", 0.1))
            )
        if "output" in doc:
            scenario.output = str(doc["output"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"bad scenario file {path}: {exc}") from exc
    return scenario


def _apply_param_flags(scenario: Scenario, args) -> None:
    flags = {name: getattr(args, name) for name in PARAM_FIELDS.values()}
    given = {name: v for name, v in flags.items() if v is not None}
    scenario.params = scenario.params.replace(**given)


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", metavar="FILE", help="scenario JSON file")
    sub.add_argument(
        "--altitude", dest="release_altitude", type=float, metavar="ALTITUDE",
        help="release altitude, meters",
    )
    sub.add_argument("--distance", type=float, help="distance to hoop, meters")
    sub.add_argument("--hoop-height", type=float, help="hoop height, meters")
    sub.add_argument("--gravity", type=float, help="gravity, m/s^2")


def _cmd_trajectory(scenario: Scenario, args) -> int:
    launch = LaunchState(angle=math.radians(args.angle), speed=args.speed)
    traj = sample_trajectory(scenario.params, launch, n=args.samples)
    sys.stdout.write("t,x,y\n" + "".join(["%.6f,%.6f,%.6f\n" % s for s in traj.samples]))
    return EXIT_OK


def _cmd_velocity(scenario: Scenario, args) -> int:
    try:
        v = solver.required_velocity(scenario.params, math.radians(args.angle))
    except Infeasible:
        feas = math.degrees(solver.feasibility_angle(scenario.params))
        print(f"INFEASIBLE: angle {args.angle:g} deg is at or below {feas:.3f} deg")
        return EXIT_DOMAIN
    print(f"v={v:.1f} m/s")
    return EXIT_OK


def _cmd_optimize(scenario: Scenario, args) -> int:
    opt = solver.optimal_angle(scenario.params)
    print(f"theta_opt={math.degrees(opt.angle):.1f} deg, v_opt={opt.speed:.1f} m/s")
    return EXIT_OK


def _cmd_sweep(scenario: Scenario, args) -> int:
    p = scenario.params
    altitudes = args.altitudes if args.altitudes else [p.release_altitude]
    curves = solver.sweep_altitudes(p, altitudes, scenario.d_grid)
    csv_text = solver.sweep_csv(curves)
    if args.out:
        Path(args.out).write_text(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_figures(scenario: Scenario, args) -> int:
    from . import figures, ladder, render

    out_dir = Path(args.out if args.out else scenario.output)
    spec, scenes = figures.build_basketball_ladder(
        params=scenario.params,
        velocities=scenario.velocities,
        altitudes=scenario.altitudes,
        d_grid=scenario.d_grid,
    )
    violations = ladder.validate_ladder(spec)
    if violations:
        for v in violations:
            print(f"{v.kind.name}: {v.message}", file=sys.stderr)
        return EXIT_DOMAIN
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = render.export_figures(scenes, out_dir)
    spec_path = out_dir / "ladder.json"
    spec_path.write_text(ladder.ladder_to_json(spec))
    for path in paths:
        print(path)
    print(spec_path)
    return EXIT_OK


def _cmd_validate_ladder(args) -> int:
    from . import ladder

    try:
        spec = ladder.ladder_from_json(Path(args.file).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load ladder spec {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations = ladder.validate_ladder(spec)
    print(f"{len(violations)} violations")
    for v in violations:
        print(f"{v.kind.name} (stages {', '.join(map(str, v.stages))}): {v.message}")
    return EXIT_OK if not violations else EXIT_DOMAIN


def _trajectory_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--angle", type=float, required=True, help="launch angle, degrees")
    p.add_argument("--speed", type=float, required=True, help="launch speed, m/s")
    p.add_argument("--samples", type=int, default=200, help="number of samples")


def _velocity_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--angle", type=float, required=True, help="launch angle, degrees")


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--altitudes",
        type=float,
        nargs="+",
        help="release altitudes to sweep, meters (default: single altitude)",
    )
    p.add_argument("--out", metavar="FILE", help="CSV output path (default stdout)")


def _figures_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="DIR", help="output directory for SVG files")


def _validate_ladder_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", metavar="FILE", help="ladder spec JSON file")


class Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    # handler(scenario, args) when the command reads a scenario, else handler(args)
    handler: Callable[..., int]
    reads_scenario: bool = True


COMMANDS = {
    "trajectory": Command(
        "print a sampled trajectory as CSV (t, x, y)", _trajectory_args, _cmd_trajectory
    ),
    "velocity": Command(
        "print the speed required to reach the hoop", _velocity_args, _cmd_velocity
    ),
    "optimize": Command(
        "print the optimal angle (degrees) and speed", lambda p: None, _cmd_optimize
    ),
    "sweep": Command(
        "write optimal angle/speed over a distance grid as CSV", _sweep_args, _cmd_sweep
    ),
    "figures": Command(
        "build, validate, and render the figure ladder", _figures_args, _cmd_figures
    ),
    "validate-ladder": Command(
        "check a ladder spec JSON file for violations",
        _validate_ladder_args,
        _cmd_validate_ladder,
        reads_scenario=False,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, or with only `command`; the
    usage line names all of them either way."""
    parser = argparse.ArgumentParser(
        prog="hoopshot",
        description=(
            "Basketball-shot model: trajectories, required launch speed, "
            "optimal angle, sweeps, and the ladder-of-abstraction figures. "
            "Angles are degrees at the CLI, distances meters, speeds m/s."
        ),
    )
    # one subparser: spell out the metavar argparse derives from all of them
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        spec = COMMANDS[name]
        p = sub.add_parser(name, help=spec.help)
        if spec.reads_scenario:
            _add_scenario_flags(p)
        spec.add_arguments(p)
    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    command = COMMANDS[args.command]
    if not command.reads_scenario:
        return command.handler(args)

    try:
        scenario = load_scenario(args.scenario)
        _apply_param_flags(scenario, args)
    except (ScenarioError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    try:
        return command.handler(scenario, args)
    except (VerticalShot, Infeasible) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
