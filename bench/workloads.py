"""Seeded inputs for the three workloads.

Every workload is a closed loop with one client: the next op starts
when the previous one has finished.  `generate(name, seed, work)`
returns the input files to write and the pool of ops the loop cycles
through; the same seed always gives the same files and ops.  Input
sizes are taken at the midpoints of equal-probability strata, so each
run sees the same size distribution while the concrete inputs (and
which size goes with which other property) differ from seed to seed.

Why each workload exists, and which layers it should and should not
move, is recorded in layers.json.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli_quick", "sweep_dense", "figures_fan")
DEFAULT_PARAMS = {"a": 1.7, "d": 10.0, "h": 3.05, "g": 9.8}
DEFAULT_VELOCITIES = (5.0, 10.0, 15.0, 20.0)
DEFAULT_GRID = (1.0, 15.0, 0.1)
PARAM_FLAGS = {"a": "--altitude", "d": "--distance", "h": "--hoop-height", "g": "--gravity"}
CONTRACT_PROBES = ("gravity_inf", "speed_nan", "distance_nan", "params_not_object")
SWEEP_STEPS = (0.02, 0.025, 0.04, 0.05, 0.08, 0.1, 0.125, 0.2, 0.25)
MAX_DISTANCE = 16.0  # m; sweep grids stay on a court


@dataclass
class Op:
    """One CLI call: its arguments, what the checker needs to judge the
    output, and whether it is a contract probe (an input outside the
    documented contract, judged by the README's exit-code rules)."""

    kind: str
    argv: list[str]
    inputs: dict = field(default_factory=dict)
    probe: bool = False
    out_dir: str | None = None


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"hoopshot-bench/{workload}/{seed}")


def stratified(rng: random.Random, n: int) -> list[float]:
    """The midpoints of n equal strata of [0, 1), in seeded order.  Sizes
    drawn from them have the same distribution for every seed; the seed
    decides which values and which other properties go with each size."""
    values = [(i + 0.5) / n for i in range(n)]
    rng.shuffle(values)
    return values


def grid_points(lo: float, hi: float, step: float) -> list[float]:
    """The distance grid as the README defines it: lo, lo+step, ... hi."""
    count = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(count)]


def _fmt(value: float) -> str:
    return repr(float(value))


def _params(rng: random.Random) -> dict:
    return {
        "a": round(rng.uniform(1.0, 2.6), 3),
        "d": round(rng.uniform(2.0, 14.0), 3),
        "h": rng.choice((3.05, 3.05, 2.6, 3.3)),
        "g": rng.choice((9.8, 9.81, 9.78)),
    }


def _feasibility_deg(p: dict) -> float:
    return math.degrees(math.atan2(p["h"] - p["a"], p["d"]))


class _Files:
    """Input files of one workload, named in creation order."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.contents: dict[str, str] = {}

    def add(self, stem: str, doc) -> str:
        name = f"{stem}_{len(self.contents):03d}.json"
        self.contents[name] = doc if isinstance(doc, str) else json.dumps(doc, indent=1)
        return str(self.work / name)


def _param_args(rng, files: _Files, p: dict, by_file: bool) -> list[str]:
    """Pass the parameters by flag, or by scenario file with one of
    them overridden by flag (flags take precedence)."""
    if not by_file:
        return [arg for key in "adhg" for arg in (PARAM_FLAGS[key], _fmt(p[key]))]
    override = rng.choice("adhg")
    in_file = dict(p, **{override: round(p[override] * 1.1, 3)})
    path = files.add("scenario", {"params": in_file})
    return ["--scenario", path, PARAM_FLAGS[override], _fmt(p[override])]


# --- cli_quick --------------------------------------------------------------


def _cli_quick(rng: random.Random, work: Path) -> tuple[dict[str, str], list[Op]]:
    files = _Files(work)
    kinds = (
        ["optimize"] * 10
        + ["velocity"] * 7
        + ["velocity_infeasible"] * 3
        + ["trajectory"] * 8
        + ["validate_default"] * 3
        + ["validate_seeded"] * 3
        + ["validate_mutated"] * 2
    )
    by_file = [i % 2 == 0 for i in range(len(kinds))]
    rng.shuffle(by_file)
    ops: list[Op] = []
    for kind, use_file in zip(kinds, by_file):
        p = _params(rng)
        if kind == "optimize":
            argv = ["optimize"] + _param_args(rng, files, p, use_file)
            ops.append(Op("optimize", argv, {"params": p}))
        elif kind.startswith("velocity"):
            feas = _feasibility_deg(p)
            if kind == "velocity":
                angle = round(feas + (88.0 - feas) * rng.uniform(0.05, 0.95), 2)
            else:
                angle = round(feas - rng.uniform(1.0, 25.0), 2)
            argv = ["velocity", "--angle", _fmt(angle)] + _param_args(rng, files, p, use_file)
            ops.append(Op("velocity", argv, {"params": p, "angle": angle}))
        elif kind == "trajectory":
            angle = round(rng.uniform(10.0, 70.0), 2)
            speed = round(rng.uniform(4.0, 20.0), 2)
            samples = rng.choice((50, 100, 200, 300))
            argv = ["trajectory", "--angle", _fmt(angle), "--speed", _fmt(speed)]
            if samples != 200 or rng.random() < 0.5:
                argv += ["--samples", str(samples)]
            argv += _param_args(rng, files, p, use_file)
            inputs = {"params": p, "angle": angle, "speed": speed, "samples": samples}
            ops.append(Op("trajectory", argv, inputs))
        else:
            which = kind.split("_")[1]
            violations = 1 if which == "mutated" else 0
            inputs = {"violations": violations, "first_kind": "SHARED_SPACE_MISMATCH"}
            path = str(LADDER_FILES[which](work))
            ops.append(Op("validate_ladder", ["validate-ladder", path], inputs))
    for name in rng.sample(CONTRACT_PROBES, rng.randint(2, len(CONTRACT_PROBES))):
        ops.append(_contract_probe(rng, files, name))
    rng.shuffle(ops)
    return files.contents, ops


def _contract_probe(rng: random.Random, files: _Files, name: str) -> Op:
    angle = _fmt(round(rng.uniform(35.0, 60.0), 2))
    if name == "gravity_inf":
        argv = ["velocity", "--angle", angle, "--gravity", "inf"]
    elif name == "speed_nan":
        argv = ["trajectory", "--angle", angle, "--speed", "nan"]
    elif name == "distance_nan":
        argv = ["optimize", "--distance", "nan"]
    else:
        argv = ["optimize", "--scenario", files.add("probe", {"params": 5})]
    return Op("contract_probe", argv, {"probe": name}, probe=True)


LADDER_FILES = {
    "default": lambda work: work / "ladder_default" / "ladder.json",
    "seeded": lambda work: work / "ladder_seeded" / "ladder.json",
    "mutated": lambda work: work / "ladder_mutated.json",
}


def cli_quick_setup(seed: int, work: Path) -> tuple[dict[str, str], list[Op]]:
    """Input files and figure-set ops for the ladder.json files that the
    validate-ladder ops read: the default scenario and one seeded one.
    The mutated ladder is derived from the default one by mutate_ladder."""
    doc = _fan_scenario(make_rng("cli_quick/setup", seed), n_velocities=6, step=0.5, n_alt=2)
    scenario = work / "setup_scenario.json"
    ops = [
        _figures_op(LADDER_FILES["default"](work).parent, None, None),
        _figures_op(LADDER_FILES["seeded"](work).parent, str(scenario), doc),
    ]
    return {scenario.name: json.dumps(doc, indent=1)}, ops


def mutate_ladder(text: str) -> str:
    """Stretch one court panel so exactly one shared-space (R1) violation
    appears."""
    doc = json.loads(text)
    doc["stages"][1]["panels"][0]["x_range"][1] += 1.0
    return json.dumps(doc, indent=2, sort_keys=True)


# --- sweep_dense ------------------------------------------------------------


def _sweep_dense(rng: random.Random, work: Path) -> tuple[dict[str, str], list[Op]]:
    files = _Files(work)
    per_size = 32
    # grid length stratified within each altitude count, so the cost
    # distribution (points x altitudes) is the same for every seed
    shapes = [(n_alt, q) for n_alt in (1, 2, 3) for q in stratified(rng, per_size)]
    rng.shuffle(shapes)
    ops = []
    for n_alt, q in shapes:
        n = int(round(30 * 10**q))
        lo = round(rng.uniform(0.5, 3.0), 2)
        step = rng.choice([s for s in SWEEP_STEPS if lo + s * (n - 1) <= MAX_DISTANCE])
        hi = round(lo + step * (n - 1), 6)
        h = rng.choice((3.05, 3.05, 3.05, 2.9, 3.2))
        g = rng.choice((9.8, 9.81))
        # about a third of the altitudes lie above the hoop (phi < 0)
        altitudes = [round(rng.uniform(0.8, 4.2), 3) for _ in range(n_alt)]
        doc = {"d_grid": {"lo": lo, "hi": hi, "step": step}}
        argv = ["sweep"]
        if rng.random() < 0.5:
            doc["params"] = {"h": h, "g": g}
        else:
            argv += ["--hoop-height", _fmt(h), "--gravity", _fmt(g)]
        argv[1:1] = ["--scenario", files.add("sweep", doc)]
        argv += ["--altitudes"] + [_fmt(a) for a in altitudes]
        inputs = {
            "params": {"h": h, "g": g},
            "altitudes": altitudes,
            "grid": grid_points(lo, hi, step),
        }
        ops.append(Op("sweep", argv, inputs))
    return files.contents, ops


# --- figures_fan ------------------------------------------------------------


def _fan_scenario(rng: random.Random, n_velocities: int, step: float, n_alt: int) -> dict:
    velocities: list[float] = []
    while len(velocities) < n_velocities:
        v = round(rng.uniform(4.0, 22.0), 1)
        if v not in velocities:
            velocities.append(v)
    return {
        "params": {
            "a": round(rng.uniform(1.5, 2.3), 3),
            "d": round(rng.uniform(7.0, 12.0), 2),
            "h": 3.05,
            "g": 9.8,
        },
        "velocities": velocities,
        "altitudes": [round(rng.uniform(1.0, 2.6), 2) for _ in range(n_alt)],
        "d_grid": {
            "lo": round(rng.uniform(0.9, 1.1), 2),
            "hi": round(rng.uniform(14.5, 15.5), 2),
            "step": step,
        },
    }


def _figures_op(out_dir: Path, scenario: str | None, doc: dict | None) -> Op:
    argv = ["figures", "--out", str(out_dir)]
    if scenario is not None:
        argv[1:1] = ["--scenario", scenario]
    if doc is None:
        inputs = {"params": dict(DEFAULT_PARAMS), "velocities": list(DEFAULT_VELOCITIES)}
    else:
        inputs = {"params": doc["params"], "velocities": doc["velocities"]}
    inputs["default"] = doc is None
    return Op("figures", argv, inputs, out_dir=str(out_dir))


def _figures_fan(rng: random.Random, work: Path) -> tuple[dict[str, str], list[Op]]:
    files = _Files(work)
    per_altitude_count = 16
    out_dir = work / "figures_out"
    ops = [_figures_op(out_dir, None, None)]
    # grid step stratified within each altitude count and fan size
    # stratified over the pool, so every seed has the same cost spread
    shapes = [(n_alt, q) for n_alt in (1, 2, 3) for q in stratified(rng, per_altitude_count)]
    fan_sizes = [4 + int(q * 9) for q in stratified(rng, len(shapes))]
    for (n_alt, q), n_vel in zip(shapes, fan_sizes):
        # coarse-to-default grid: step from 1.0 m down to 0.1 m
        step = round(0.1 * 10 ** q, 3)
        doc = _fan_scenario(rng, n_vel, step, n_alt)
        ops.append(_figures_op(out_dir, files.add("fan", doc), doc))
    rng.shuffle(ops)
    return files.contents, ops


# --- shared -----------------------------------------------------------------


def generate(workload: str, seed: int, work: Path) -> tuple[dict[str, str], list[Op]]:
    """Input files (name -> text) and the op pool of one workload."""
    rng = make_rng(workload, seed)
    generators = {
        "cli_quick": _cli_quick,
        "sweep_dense": _sweep_dense,
        "figures_fan": _figures_fan,
    }
    return generators[workload](rng, work)


def warm_up_op(workload: str, work: Path) -> Op:
    """The seed-independent op an in-process set-up ends with: the
    default sweep, or the default figure set."""
    figures, _, sweep = layer_probe(work)
    return figures if workload == "figures_fan" else sweep


def layer_probe(work: Path) -> list[Op]:
    """Default-scenario ops appended to every traced op list, so that each
    layer does some work on every workload: a figure set, a validation
    of the ladder it wrote, and a default sweep."""
    out_dir = work / "probe_figures"
    lo, hi, step = DEFAULT_GRID
    sweep_inputs = {
        "params": {"h": DEFAULT_PARAMS["h"], "g": DEFAULT_PARAMS["g"]},
        "altitudes": [DEFAULT_PARAMS["a"]],
        "grid": grid_points(lo, hi, step),
    }
    return [
        _figures_op(out_dir, None, None),
        Op(
            "validate_ladder",
            ["validate-ladder", str(out_dir / "ladder.json")],
            {"violations": 0},
        ),
        Op("sweep", ["sweep"], sweep_inputs),
    ]
