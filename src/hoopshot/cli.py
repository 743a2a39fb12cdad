"""Command-line interface.

Angles are degrees at this boundary and radians everywhere inside.
Exit codes: 0 success, 1 domain error (infeasible query, validation
violations), 2 usage or scenario-parse error.

Scenario files are JSON with top-level keys `params` (a, d, h, g),
`velocities`, `altitudes`, `d_grid` (lo, hi, step, kept as the shape
(lo, step, n), n = round((hi - lo) / step) + 1: only `sweep` builds the
points lo + i * step, and figures 6-7 span the first to the last), and
`output`, a non-empty directory path.  They and ladder specs are read
as UTF-8 in any locale, parsed by `json_loads` and checked by
`json_value` and `json_object` of `kinematics`: bytes that are not
UTF-8 or text that is not JSON (named by the file), an unknown
key, a missing required one (`d_grid` lo and hi), a value of another
JSON type or a number that is not finite or does not fit a float exits
2 with one line naming the key path.  Flags override file values.
The defaults live where they are used: params in `kinematics.ShotParams`;
velocities, altitudes and the distance grid (with its validation) in
`solver`, so a key the file leaves out takes that default.

Each flag is one `Flag` row of `COMMANDS`.  `run` parses argv from
those rows in one pass (see `_parse`), and builds an argparse parser
from them only where that pass returns None: in effect, to print help
or a usage error.  Only `figures` and `validate-ladder` import the
ladder and renderer modules, only reading a file imports `_json` (and
the `json` package only to raise a parse error), and no command imports
`pathlib`: output paths are joined by `os.path`, so the others start
without them.
"""

import math
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import solver
from .kinematics import Infeasible, LaunchState, ShotParams, VerticalShot, sample_trajectory
from .kinematics import TRAJECTORY_SAMPLES, _write_file, json_loads, json_object, json_value

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# scenario-file key -> ShotParams field (also the dest of its CLI flag)
PARAM_FIELDS = {"a": "release_altitude", "d": "distance", "h": "hoop_height", "g": "gravity"}
# the top-level keys of a scenario file
SCENARIO_KEYS = ("params", "velocities", "altitudes", "d_grid", "output")


class Scenario:
    """The inputs of one call: the defaults, then the scenario file,
    then the flags."""

    def __init__(self) -> None:
        self.params = ShotParams()
        self.velocities: list[float] | None = None  # not in the file
        self.altitudes: list[float] | None = None
        self.d_grid = solver.d_grid()  # (lo, step, n)
        self.output = "figures"


def _numbers(value, what: str) -> list[float]:
    if not json_value(value, list, what):
        raise ValueError(f"{what} must be a non-empty JSON list, got []")
    return [json_value(v, float, f"{what}[{i}]") for i, v in enumerate(value)]


def load_scenario(path: str | None) -> Scenario:
    scenario = Scenario()
    if path is None:
        return scenario
    try:
        with open(path, encoding="utf-8") as file:
            doc = json_loads(file.read())
    except (OSError, RecursionError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
    doc = json_object(doc, f"scenario file {path}", SCENARIO_KEYS)
    if "params" in doc:
        p = json_object(doc["params"], "params", PARAM_FIELDS)
        scenario.params = scenario.params.replace(
            **{PARAM_FIELDS[k]: json_value(v, float, f"params.{k}") for k, v in p.items()}
        )
    if "velocities" in doc:
        scenario.velocities = _numbers(doc["velocities"], "velocities")
    if "altitudes" in doc:
        scenario.altitudes = _numbers(doc["altitudes"], "altitudes")
    if "d_grid" in doc:
        g = json_object(doc["d_grid"], "d_grid", ("lo", "hi", "step"), ("lo", "hi"))
        scenario.d_grid = solver.d_grid(
            **{k: json_value(v, float, f"d_grid.{k}") for k, v in g.items()}
        )
    if "output" in doc:
        scenario.output = json_value(doc["output"], str, "output")
        if not scenario.output:
            raise ValueError("output must not be empty")
    return scenario


def _cmd_trajectory(scenario: Scenario, args) -> int:
    launch = LaunchState(angle=math.radians(args.angle), speed=args.speed)
    traj = sample_trajectory(scenario.params, launch, n=args.samples)
    sys.stdout.write("t,x,y\n" + "".join(["%.6f,%.6f,%.6f\n" % s for s in traj.samples]))
    return EXIT_OK


def _cmd_velocity(scenario: Scenario, args) -> int:
    try:
        v = solver.required_velocity(scenario.params, math.radians(args.angle))
    except solver.InfeasibleAngle:
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
    altitudes = args.altitudes or scenario.altitudes or [p.release_altitude]
    lo, step, n = scenario.d_grid
    curves = solver.sweep_altitudes(p, altitudes, [lo + i * step for i in range(n)])
    csv_text = solver.sweep_csv(curves)
    if args.out is not None:
        _write_file(args.out, csv_text.encode(), "sweep CSV")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_figures(scenario: Scenario, args) -> int:
    from . import figures, ladder, render

    out_dir = scenario.output if args.out is None else args.out
    spec, scenes = figures.build_basketball_ladder(
        scenario.params, scenario.velocities, scenario.altitudes, scenario.d_grid
    )
    violations = ladder.validate_ladder(spec)
    if violations:
        for v in violations:
            print(f"{v.kind}: {v.message}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, UnicodeEncodeError) as exc:  # a path the file-system encoding lacks
        raise OSError(f"cannot make the output directory {out_dir}: {exc}") from exc
    paths = render.export_figures(scenes, out_dir)
    spec_path = os.path.join(out_dir, "ladder.json")
    _write_file(spec_path, ladder.ladder_to_json(spec).encode(), "ladder spec")
    for path in paths:
        print(path)
    print(spec_path)
    return EXIT_OK


def _cmd_validate_ladder(args) -> int:
    from . import ladder

    try:
        with open(args.file, encoding="utf-8") as file:
            spec = ladder.ladder_from_json(file.read())
    except (OSError, RecursionError, ValueError) as exc:
        print(f"cannot load ladder spec {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations = ladder.validate_ladder(spec)
    print(f"{len(violations)} violations")
    for v in violations:
        print(f"{v.kind} (stages {', '.join(map(str, v.stages))}): {v.message}")
    return EXIT_OK if not violations else EXIT_DOMAIN


class Flag(namedtuple(
    "Flag", "name help type dest required default nargs metavar",
    defaults=(None, None, False, None, None, None),
)):
    """One argument of a command: its name ("--flag", or a positional's
    dest) and the keywords of its `add_argument` call, each left out of
    the call while it has the default given here."""

    __slots__ = ()

    @property
    def key(self) -> str:  # where argparse stores the value
        return self.dest or self.name.lstrip("-").replace("-", "_")


SCENARIO_FLAGS = (
    Flag("--scenario", "scenario JSON file", metavar="FILE"),
    Flag("--altitude", "release altitude, meters", float, "release_altitude", metavar="ALTITUDE"),
    Flag("--distance", "distance to hoop, meters", float),
    Flag("--hoop-height", "hoop height, meters", float),
    Flag("--gravity", "gravity, m/s^2", float),
)
ANGLE = Flag("--angle", "launch angle, degrees", float, required=True)


class Command(namedtuple(
    "Command", "help handler own_flags reads_scenario", defaults=((), True)
)):
    """A subcommand: handler(scenario, args) runs it when it reads a
    scenario, else handler(args)."""

    __slots__ = ()

    @property
    def flags(self) -> tuple[Flag, ...]:
        return (SCENARIO_FLAGS if self.reads_scenario else ()) + self.own_flags


COMMANDS = {
    "trajectory": Command("print a sampled trajectory as CSV (t, x, y)", _cmd_trajectory, (
        ANGLE,
        Flag("--speed", "launch speed, m/s", float, required=True),
        Flag("--samples", "number of samples", int, default=TRAJECTORY_SAMPLES),
    )),
    "velocity": Command("print the speed required to reach the hoop", _cmd_velocity, (ANGLE,)),
    "optimize": Command("print the optimal angle (degrees) and speed", _cmd_optimize),
    "sweep": Command("write optimal angle/speed over a distance grid as CSV", _cmd_sweep, (
        Flag("--altitudes", "release altitudes to sweep, meters (default: single altitude)",
             float, nargs="+"),
        Flag("--out", "CSV output path (default stdout)", metavar="FILE"),
    )),
    "figures": Command("build, validate, and render the figure ladder", _cmd_figures, (
        Flag("--out", "output directory for SVG files", metavar="DIR"),
    )),
    "validate-ladder": Command(
        "check a ladder spec JSON file for violations", _cmd_validate_ladder,
        (Flag("file", "ladder spec JSON file", metavar="FILE"),), reads_scenario=False,
    ),
}


def build_parser():
    """The CLI parser, one subparser per command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hoopshot",
        description=(
            "Basketball-shot model: trajectories, required launch speed, "
            "optimal angle, sweeps, and the ladder-of-abstraction figures. "
            "Angles are degrees at the CLI, distances meters, speeds m/s."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            keywords = zip(Flag._fields[1:], flag[1:])
            p.add_argument(
                flag.name, **{k: v for k, v in keywords if v != Flag._field_defaults.get(k)}
            )
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """`build_parser().parse_args(argv)`, read from the `COMMANDS` rows: a
    command, then its flags, each in full or as a prefix of it alone
    ("--help" counts as a flag), its value(s) in the next token(s) or
    joined to one by "=", and its positional's value.  A repeated flag
    takes its last value, and every value is converted, as argparse
    converts each.  A value may start with "-" where the flag has a type,
    which no flag name passes, so "-1e1" and "-inf" read as argparse reads
    "--angle=-1e1", not as options.  Else None: argparse prints the help or
    the usage error, or reads an untyped value that starts with "-" or a
    "--" (one in "=--" included), which Python versions read apart."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    names = {"--help": None, **{f.name: f for f in command.flags if f.name.startswith("-")}}
    positionals = [f for f in command.flags if not f.name.startswith("-")]
    given = []  # (flag, its values) of each occurrence, in order
    flag = None  # the flag that the next token may be a value of
    for token in argv[1:]:
        if token.startswith("--"):
            name, eq, value = token.partition("=")
            full = [name] if name in names else [n for n in names if n.startswith(name)]
            if len(full) != 1 or names[full[0]] is None or value == "--":
                return None
            flag, values = names[full[0]], [value] if eq else []
            given.append((flag, values))
            flag = None if eq else flag
        elif flag and (flag.type or not token.startswith("-")):
            values.append(token)
            flag = flag if flag.nargs else None
        elif positionals and not token.startswith("-"):
            given.append((positionals.pop(0), [token]))
        else:
            return None
    missing = [f for f in command.flags if f.required and f not in dict(given)]
    if positionals or missing or not all(values for _, values in given):
        return None
    args = {f.key: f.default for f in command.flags}
    for flag, values in given:
        try:
            values = [flag.type(v) for v in values] if flag.type else values
        except ValueError:
            return None
        args[flag.key] = values if flag.nargs else values[0]
    return SimpleNamespace(command=argv[0], **args)


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    command = COMMANDS[args.command]
    if not command.reads_scenario:
        return command.handler(args)

    try:
        if getattr(args, "out", None) == "":
            raise ValueError("--out must not be empty")
        scenario = load_scenario(args.scenario)
        given = {k: v for k in PARAM_FIELDS.values() if (v := getattr(args, k)) is not None}
        scenario.params = scenario.params.replace(**given)
    except ValueError as exc:  # a bad scenario file, or a flag value ShotParams rejects
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    try:
        return command.handler(scenario, args)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        domain = isinstance(exc, (VerticalShot, Infeasible, OSError))
        return EXIT_DOMAIN if domain else EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
