import copy
import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hoopshot import solver
from hoopshot.cli import COMMANDS, _parse, build_parser, run
from hoopshot.kinematics import ShotParams
from hoopshot.ladder import LadderSpec
from hoopshot.solver import feasibility_angle
from oracles import decimal_optimum, decimal_pi, decimal_required_velocity, ulps
from test_solver import assert_correctly_rounded

SRC = Path(__file__).resolve().parent.parent / "src"
NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)
# a <polyline> or <path> whose points all print as one, so that it draws nothing
ONE_POINT = re.compile(r'<polyline points="([^" ]+)(?: \1)+"|<path d="M([^ ]+) Q\2 \2"')
PARAM_FLAGS = ("--altitude", "--distance", "--hoop-height", "--gravity")


# every float flag of every command, its value left open; figures and
# sweep read a 3-point grid so that each example stays fast
_BASE_CALLS = (
    "optimize",
    "velocity --angle=30",
    "trajectory --angle=30 --speed=15 --samples=5",
    "sweep --scenario={out}/small.json",
    "figures --scenario={out}/small.json --out={out}/figs",
)
FLOAT_FLAG_CALLS = [
    f"{call} {flag}={{value}}" for call in _BASE_CALLS for flag in PARAM_FLAGS
] + [
    "velocity --angle={value}",
    "trajectory --angle={value} --speed=15 --samples=5",
    "trajectory --angle=30 --speed={value} --samples=5",
    "sweep --scenario={out}/small.json --altitudes={value}",
]


# a twelve-speed fan on a quarter-metre grid; the SVG digests are of the
# files that `figures` wrote for it before the polyline writer took its
# present form, which must not move them, but for figures 2 and 3, whose
# trajectories are each one quadratic Bezier <path>, figures 4 and 5,
# whose required-speed curve is sampled to 0.1 px, and figures 6 and 7,
# whose optimum curves are drawn from the closed form to 0.1 px; ladder.json's is of
# the file without the panels' retired "aspect" key and the stages'
# retired "parent" key
FAN_SCENARIO = {
    "params": {"a": 1.6, "d": 11, "h": 3.05, "g": 9.8},
    "velocities": [4, 6.5, 8, 9.5, 11, 12.5, 14, 15.5, 17, 18.5, 20, 22],
    "altitudes": [1.2, 2.0, 2.6],
    "d_grid": {"lo": 1, "hi": 15, "step": 0.25},
}
FAN_SHA256 = {
    "figure_01.svg": "1b618c802322e172a34e3cb8adcf56ec6cc60f8a94bef80be0eee442d381dca1",
    "figure_02.svg": "fd316f004d63303f14234fbca6e0907ec8ab1b0d28a905821780293cbb5da240",
    "figure_03.svg": "21dd6ab5e84a845862100ee93eaf345ed045f4e083eeb2fb89221ce70f2bd61f",
    "figure_04.svg": "689dbb044c995f38c8f087980114a0ed4b037aec977f08e89a80b0a5ddef9950",
    "figure_05.svg": "a1b8a66089b3420de824193fa0b2026ebd13ee1680e0e31abee5fc827be61d7b",
    "figure_06.svg": "9ebc1a423b4e55538f84b3492faeb5729d59c2d6a4ebd7b87e953b35d12a981c",
    "figure_07.svg": "53edb1167d124de81c233fa0bce693ab3955568a528f54edbb9ad5f68371532c",
    "ladder.json": "582f1fb115d7d48011f7a92466b3c2c59d83706550d8a35a05670500551e959b",
}


# the two JSON inputs in full: a scenario file with every key, and the
# default ladder spec
FULL_SCENARIO = {
    "params": {"a": 1.7, "d": 10, "h": 3.05, "g": 9.8},
    "velocities": [5, 10],
    "altitudes": [1.2, 1.7],
    "d_grid": {"lo": 1, "hi": 3, "step": 0.5},
    "output": "figs",
}
LADDER = json.loads((Path(__file__).parent / "golden" / "ladder.json").read_text())
# any JSON value: NaN, +-Infinity and ints too large for a float included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-3, 20) | st.floats()
    | st.sampled_from([10**400, -(10**400)]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _key_paths(value, path=()):
    """Every key path in a JSON value, its own () first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _key_paths(item, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _conforms(new, old) -> bool:
    """new, put where the valid value old sits, passes the reader's
    policy: a number that is finite and fits a float where old is a
    number, else old's JSON kind, item by item in a list and with none
    but old's keys in an object."""
    if type(old) in (int, float):
        return type(new) in (int, float) and abs(new) <= sys.float_info.max
    if type(old) is list:
        return type(new) is list and all(_conforms(v, old[0]) for v in new)
    if type(old) is dict:
        return type(new) is dict and all(k in old and _conforms(v, old[k]) for k, v in new.items())
    return type(new) is type(old)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """A directory holding small.json (3-point grid) for the property
    test's sweep and figures calls, which write under it."""
    path = tmp_path_factory.mktemp("contract")
    _small_scenario(path)
    return path


# the two commands that read a JSON file, and how their messages start
FILE_READERS = [
    pytest.param(["optimize", "--scenario"], "cannot read scenario file", id="scenario"),
    pytest.param(["validate-ladder"], "cannot load ladder spec", id="ladder-spec"),
]


def run_captured(argv):
    """Exit code, stdout and stderr of one CLI call; an exception that
    escapes run() fails the calling test, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "params": {"a": 1.7, "d": 10, "h": 3.05, "g": 9.8},
                "velocities": [5, 10, 15, 20],
                "altitudes": [1.2, 1.7, 2.2],
                "d_grid": {"lo": 1, "hi": 15, "step": 0.5},
                "output": str(tmp_path / "figs"),
            }
        )
    )
    return path


class TestOptimize:
    def test_headline_output(self, capsys):
        assert run(["optimize"]) == 0
        out = capsys.readouterr().out
        assert "theta_opt=48.8 deg, v_opt=10.6 m/s" in out

    def test_flag_override(self, capsys):
        assert run(["optimize", "--distance", "200"]) == 0
        out = capsys.readouterr().out
        assert "theta_opt=45.2 deg" in out

    @pytest.mark.parametrize(
        "distance, code", [("1e300", 0), ("1.8e307", 0), ("1.9e307", 2), ("1e308", 2)]
    )
    def test_speed_overflows_only_where_g_times_r_plus_k_does(self, distance, code):
        # v*^2 = g*(r + k) with r = hypot(d, h - a), never 0.5*g*d^2
        got, out, err = run_captured(["optimize", "--distance", distance])
        assert got == code
        if code:
            assert err == "required speed at angle 0.7853981633974483 rad is not finite: inf\n"
        else:
            d = float(distance)
            speed = float(re.fullmatch(r"theta_opt=45\.0 deg, v_opt=(\S+) m/s\n", out)[1])
            assert speed == pytest.approx(math.sqrt(9.8 * (math.hypot(d, 1.35) + 1.35)), rel=1e-15)

    def test_finite_where_only_r_overflows(self):
        # r = hypot(d, h - a) overflows, g*(r + k) does not: v* ~ 1.9e153
        argv = ["optimize", "--altitude", "0", "--hoop-height", "1.5e308",
                "--distance", "1.5e308", "--gravity", "0.01"]
        code, out, err = run_captured(argv)
        assert (code, err) == (0, "")
        speed = float(re.fullmatch(r"theta_opt=67\.5 deg, v_opt=(\S+) m/s\n", out)[1])
        assert ulps(speed, decimal_optimum(0.0, 1.5e308, 1.5e308, 0.01)[1]) <= 2.0

    @pytest.mark.parametrize("distance", ["4.25e-188", "5e-324"])
    def test_vertical_optimum_is_a_domain_error(self, distance):
        # d << h - a: theta* = pi/4 + atan(k/d)/2 rounds to pi/2
        code, out, err = run_captured(["optimize", "--distance", distance, "--gravity", "1.9"])
        assert (code, out) == (1, "")
        assert err == "angle must be below pi/2, got 1.5707963267948966\n"

    def test_speed_that_underflows_to_zero_exits_1(self):
        argv = ["optimize", "--altitude", "4", "--distance", "5e-324", "--gravity", "1e-300"]
        code, out, err = run_captured(argv)
        assert (code, out) == (1, "")
        assert err == "required speed at angle 5e-324 rad underflows to 0\n"


class TestVelocity:
    def test_feasible(self, capsys):
        assert run(["velocity", "--angle", "30"]) == 0
        assert "v=12.2 m/s" in capsys.readouterr().out

    def test_infeasible_exits_1(self, capsys):
        assert run(["velocity", "--angle", "5"]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_speed_that_underflows_to_zero_exits_1(self):
        argv = ["velocity", "--altitude", "1e300", "--distance", "5e-324",
                "--gravity", "5e-324", "--angle", "30"]
        code, out, err = run_captured(argv)
        assert (code, out) == (1, "")
        assert err == "required speed at angle 0.5235987755982988 rad underflows to 0\n"

    def test_one_ulp_above_the_feasibility_angle_exits_1(self):
        # it printed v=10506405688.7 m/s, the exact speed being 11021710316.8
        argv = ["velocity", "--altitude", "1", "--distance", "100", "--angle", "1.1743989847261913"]
        code, out, err = run_captured(argv)
        assert (code, out) == (1, "")
        assert err == (
            "required speed at angle 0.020497129015550637 rad is not certain to 0.05 m/s"
            " so near the feasibility angle 0.020497129015550633 rad\n"
        )

    @pytest.mark.parametrize("angle", ["-95", "-1e308", "-inf", "nan", "90", "inf"])
    def test_angle_outside_the_closed_form_domain_exits_2(self, angle):
        # tan repeats every 180 deg: -95 deg once printed the speed at 85 deg
        code, out, err = run_captured(["velocity", f"--angle={angle}"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("angle must be in [-pi/2, pi/2) rad, got ")

    @pytest.mark.parametrize(
        "argv, code, out",
        [
            ("velocity --angle=-90", 1, "INFEASIBLE: angle -90 deg is at or below 7.688 deg\n"),
            ("velocity --altitude 5 --angle=-5", 0, "v=21.4 m/s\n"),
        ],
    )
    def test_angles_down_to_minus_90_keep_their_answer(self, argv, code, out):
        assert run_captured(argv.split()) == (code, out, "")


class TestTrajectory:
    def test_csv_output(self, capsys):
        assert run(["trajectory", "--angle", "30", "--speed", "15", "--samples", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,x,y"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first == ["0.000000", "0.000000", "1.700000"]

    def test_deterministic(self, capsys):
        run(["trajectory", "--angle", "30", "--speed", "15"])
        first = capsys.readouterr().out
        run(["trajectory", "--angle", "30", "--speed", "15"])
        assert capsys.readouterr().out == first

    def test_speed_too_small_to_reach_the_plane_ends_at_the_ground(self):
        argv = ["trajectory", "--angle", "89.99999999", "--speed", "1e-320", "--samples", "3"]
        code, out, err = run_captured(argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].endswith(",0.000000,0.000000")

    def test_near_vertical_shot_ends_on_the_floor(self):
        # cos(angle) is 1.7e-13: the ball goes straight up and comes down
        # on the floor long before it could reach the plane
        argv = ["trajectory", "--angle", "89.99999999999", "--speed", "10", "--samples", "3"]
        code, out, err = run_captured(argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "2.198615,0.000000,0.000000"

    def test_huge_gravity_and_tiny_speed_end_at_the_ground(self):
        # the ground time sqrt(2a/g) is finite though 2*g*a overflows
        argv = "trajectory --angle 45 --speed 1e-300 --gravity 1e308 --samples 3".split()
        code, out, err = run_captured(argv)
        assert (code, err) == (0, "")
        assert not NON_FINITE.search(out)
        assert [float(v) for v in out.splitlines()[-1].split(",")] == [0.0, 0.0, 0.0]

    def test_too_many_samples_exits_2(self):
        # the distance grid's 100,000-point limit bounds the samples too
        argv = ["trajectory", "--angle", "30", "--speed", "15", "--samples", "100001"]
        assert run_captured(argv) == (2, "", "need at most 100000 samples, got 100001\n")


class TestSweep:
    def test_stdout_csv(self, capsys):
        assert run(["sweep"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,theta_opt_deg,v_opt,altitude"
        assert len(lines) == 1 + 141  # default grid 1..15 step 0.1

    def test_altitudes_flag(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            run(
                [
                    "sweep",
                    "--altitudes",
                    "1.2",
                    "2.2",
                    "--scenario",
                    str(_small_scenario(tmp_path)),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().split("\n")
        altitudes = {line.split(",")[3] for line in lines[1:]}
        assert altitudes == {"1.200000", "2.200000"}

    @pytest.mark.parametrize(
        "doc, flags, altitudes",
        [
            pytest.param({"altitudes": [1.5, 2.5]}, [], {"1.500000", "2.500000"}, id="file"),
            pytest.param({"altitudes": [1.5]}, ["--altitudes", "2.2"], {"2.200000"}, id="flag"),
            pytest.param({"params": {"a": 1.9}}, [], {"1.900000"}, id="release-altitude"),
        ],
    )
    def test_altitudes_from_flag_then_file_then_release(self, tmp_path, doc, flags, altitudes):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**doc, "d_grid": {"lo": 2, "hi": 4, "step": 1}}))
        code, out, err = run_captured(["sweep", "--scenario", str(path), *flags])
        assert (code, err) == (0, "")
        assert {line.split(",")[3] for line in out.splitlines()[1:]} == altitudes

    def test_three_altitudes_match_golden_csv(self):
        golden = (Path(__file__).parent / "golden" / "sweep_default.csv").read_bytes()
        code, out, err = run_captured(["sweep", "--altitudes", "1.2", "1.7", "2.2"])
        assert (code, err) == (0, "")
        assert out.encode() == golden


@pytest.fixture
def built(monkeypatch):
    """The number of Optimum and OptimumCurve records the solver builds,
    through the constructor or `_make`, while the fixture is active."""
    counts = dict.fromkeys(["Optimum", "OptimumCurve"], 0)
    for name in counts:
        base = getattr(solver, name)

        def new(cls, *args, _name=name, _base=base, **kwargs):
            counts[_name] += 1
            return _base.__new__(cls, *args, **kwargs)

        def make(cls, iterable, _name=name, _base=base):
            counts[_name] += 1
            return _base._make.__func__(cls, iterable)

        namespace = {"__slots__": (), "__new__": new, "_make": classmethod(make)}
        monkeypatch.setattr(solver, name, type(name, (base,), namespace))
    return counts


class TestRecordsBuilt:
    def test_sweep_builds_one_curve_per_altitude_and_no_optimum(self, built):
        code, out, _ = run_captured(["sweep", "--altitudes", "1.2", "1.7", "2.2"])
        assert code == 0 and len(out.splitlines()) == 1 + 3 * 141
        assert built == {"Optimum": 0, "OptimumCurve": 3}

    def test_optimize_builds_one_optimum(self, built):
        assert run_captured(["optimize"]) == (0, "theta_opt=48.8 deg, v_opt=10.6 m/s\n", "")
        assert built == {"Optimum": 1, "OptimumCurve": 0}


def _small_scenario(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"d_grid": {"lo": 2, "hi": 4, "step": 1}}))
    return path


class TestFigures:
    def test_writes_seven_svgs_and_spec(self, capsys, tmp_path):
        out_dir = tmp_path / "figs"
        code = run(
            ["figures", "--out", str(out_dir), "--scenario", str(_small_scenario(tmp_path))]
        )
        assert code == 0
        svgs = sorted(p.name for p in out_dir.glob("*.svg"))
        assert svgs == [f"figure_{i:02d}.svg" for i in range(1, 8)]
        assert (out_dir / "ladder.json").exists()

    def test_emitted_spec_validates(self, capsys, tmp_path):
        out_dir = tmp_path / "figs"
        run(["figures", "--out", str(out_dir), "--scenario", str(_small_scenario(tmp_path))])
        capsys.readouterr()
        assert run(["validate-ladder", str(out_dir / "ladder.json")]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_short_distance_draws_at_the_optimal_angle(self, capsys, tmp_path):
        # 30 deg lies below the 53.5 deg feasibility angle at d = 1 m
        out_dir = tmp_path / "figs"
        argv = ["figures", "--distance", "1", "--out", str(out_dir)]
        assert run(argv + ["--scenario", str(_small_scenario(tmp_path))]) == 0
        assert len(list(out_dir.glob("figure_*.svg"))) == 7
        spec = json.loads((out_dir / "ladder.json").read_text())
        assert "One shot at 71.7" in spec["stages"][1]["caption"]
        capsys.readouterr()
        assert run(["validate-ladder", str(out_dir / "ladder.json")]) == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("distance", ["0.001", "0.004", "0.006"])
    def test_tiny_distance_draws_the_required_speed_curve(self, tmp_path, distance):
        # the curve lies within 0.3 deg below 90 deg, above the feasibility
        # angle: it is drawn, and its lowest point is within 0.1 px of v*
        out_dir = tmp_path / "figs"
        code, out, err = run_captured(["figures", "--distance", distance, "--out", str(out_dir)])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 8 and len(list(out_dir.iterdir())) == 8
        assert run_captured(["validate-ladder", str(out_dir / "ladder.json")]) == (
            0, "0 violations\n", "")
        svg = (out_dir / "figure_04.svg").read_text()
        (points,) = re.findall(r'<polyline points="([^"]+)" stroke="#0000CC"', svg)
        lowest = max(float(p.split(",")[1]) for p in points.split())  # y grows downward
        # the viewport's 384 px map 0 to 40 m/s up from its bottom edge, y = 412
        _, v_star = decimal_optimum(1.7, float(distance), 3.05, 9.8)
        assert round(v_star, 3) == Decimal("5.144")
        assert abs(Decimal(lowest) - (412 - v_star * 384 / 40)) <= Decimal("0.1005")

    def test_30_deg_in_the_rounding_band_exits_1(self, tmp_path):
        # the feasibility angle lies 1 ulp below 30 deg, where the stage-3
        # caption's speed cannot be known to 0.05 m/s
        out_dir = tmp_path / "figs"
        argv = ["figures", "--altitude", "0", "--distance", "1",
                "--hoop-height", "0.5773502691896255", "--out", str(out_dir)]
        assert run_captured(argv) == (1, "", (
            "required speed at angle 0.5235987755982988 rad is not certain to 0.05 m/s"
            " so near the feasibility angle 0.5235987755982987 rad\n"
        ))
        assert not out_dir.exists()

    def test_one_point_grid_exits_2_naming_d_grid(self, tmp_path):
        one_point = tmp_path / "one_point.json"
        one_point.write_text(json.dumps({"d_grid": {"lo": 2, "hi": 2, "step": 1}}))
        code, out, _ = run_captured(["sweep", "--scenario", str(one_point)])
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header and the one distance
        argv = ["figures", "--scenario", str(one_point), "--out", str(tmp_path / "figs")]
        code, _, err = run_captured(argv)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "d_grid" in err and "2 points" in err

    @pytest.mark.parametrize(
        "distance, caption",
        [
            pytest.param(
                None,
                "One shot at 30 deg and 15 m/s misses high; a fan of launch "
                "speeds brackets the hoop-reaching speed.",
                id="default",
            ),
            # 15 m/s at 30 deg is at -7.1 m at the hoop plane; 19.2 m/s is needed
            pytest.param(
                "30",
                "One shot at 30 deg and 15 m/s falls short; a fan of launch "
                "speeds brackets the hoop-reaching speed.",
                id="falls-short",
            ),
            # 21.9 m/s is needed at 30 deg, above the fastest default speed, 20
            pytest.param(
                "40",
                "One shot at 30 deg and 15 m/s falls short; a fan of launch "
                "speeds stays below the hoop-reaching speed.",
                id="fan-below",
            ),
        ],
    )
    def test_stage_2_caption_follows_the_shots(self, tmp_path, distance, caption):
        out_dir = tmp_path / "figs"
        argv = ["figures", "--out", str(out_dir), "--scenario", str(_small_scenario(tmp_path))]
        if distance is not None:
            argv += ["--distance", distance]
        assert run_captured(argv)[0] == 0
        spec = json.loads((out_dir / "ladder.json").read_text())
        assert spec["stages"][1]["caption"] == caption

    def test_a_ladder_that_breaks_a_rule_exits_1_and_writes_nothing(self, tmp_path, monkeypatch):
        # the one-range mutation of validate-ladder's test, made before
        # the ladder is validated: stage 2's first court panel 1 m wider
        from hoopshot import figures

        build = figures.build_basketball_ladder

        def stretched(*args):
            spec, scenes = build(*args)
            stages = list(spec.stages)
            lo, hi = stages[1].panels[0].x_range
            panels = (stages[1].panels[0].replace(x_range=(lo, hi + 1.0)), *stages[1].panels[1:])
            stages[1] = stages[1].replace(panels=panels)
            return LadderSpec(tuple(stages)), scenes

        monkeypatch.setattr(figures, "build_basketball_ladder", stretched)
        out_dir = tmp_path / "figs"
        code, out, err = run_captured(["figures", "--out", str(out_dir)])
        assert (code, out) == (1, "")
        assert err == (
            "SHARED_SPACE_MISMATCH: the panels that draw horizontal position (m) "
            "disagree on its range\n"
        )
        assert not out_dir.exists()

    def test_byte_identical_across_runs(self, tmp_path):
        scenario = _small_scenario(tmp_path)
        dir1 = tmp_path / "run1"
        dir2 = tmp_path / "run2"
        run(["figures", "--out", str(dir1), "--scenario", str(scenario)])
        run(["figures", "--out", str(dir2), "--scenario", str(scenario)])
        for p1 in sorted(dir1.glob("*.svg")):
            p2 = dir2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_twelve_speed_fan_is_byte_pinned(self, tmp_path):
        # a non-default set: its fan and stage-5 curves are long marks inside
        # their panels, and its required-speed curve leaves the 0-40 m/s space
        scenario = tmp_path / "fan.json"
        scenario.write_text(json.dumps(FAN_SCENARIO))
        out_dir = tmp_path / "figs"
        assert run_captured(["figures", "--scenario", str(scenario), "--out", str(out_dir)])[0] == 0
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in FAN_SHA256}
        assert digests == FAN_SHA256

    @pytest.mark.parametrize("distance", ["1e-170", "1e-300"])
    def test_tiny_distance_above_the_hoop_draws(self, tmp_path, distance):
        # 0.5*g*d*d underflows to 0, yet the speed at 30 deg is a normal float
        out_dir = tmp_path / "figs"
        argv = ["figures", "--altitude", "4", "--distance", distance, "--out", str(out_dir)]
        code, out, err = run_captured(argv + ["--scenario", str(_small_scenario(tmp_path))])
        assert (code, err) == (0, "")
        assert len(list(out_dir.glob("figure_*.svg"))) == 7

    @pytest.mark.parametrize("flag", ["--altitude=0", "--hoop-height=0"])
    def test_a_post_of_no_height_is_not_written(self, tmp_path, flag):
        # the release post (0, 0)-(0, a) or the hoop's (d, 0)-(d, h) has no
        # length: it was written as 52.000,412.000 52.000,412.000 (or the
        # hoop's column) in figures 1-3, four times in all
        out_dir = tmp_path / "figs"
        assert run_captured(["figures", flag, f"--out={out_dir}"])[0] == 0
        for svg in sorted(out_dir.glob("*.svg")):
            assert not ONE_POINT.search(svg.read_text()), svg.name
        assert (out_dir / "figure_01.svg").read_text().count("<polyline ") == 3

    def test_a_shot_that_grazes_the_floor_writes_no_sliver(self, tmp_path):
        # the 4 m/s shot lands on the floor, and the clip left a piece of it
        # there as M420.037,412.000 Q420.037,412.000 420.037,412.000 in
        # figure 2 (206.526 in figure 3)
        scenario = tmp_path / "fan.json"
        scenario.write_text(json.dumps({"params": {"a": 1.51, "d": 8.69}, "velocities": [4.0]}))
        out_dir = tmp_path / "figs"
        assert run_captured(["figures", f"--scenario={scenario}", f"--out={out_dir}"])[0] == 0
        for name in ("figure_02.svg", "figure_03.svg"):
            svg = (out_dir / name).read_text()
            assert "<path " in svg and not ONE_POINT.search(svg), name

    def test_a_curve_under_half_a_unit_in_a_half_width_panel_is_not_written(self, tmp_path):
        # the required-speed curve spans about 0.001 px across figure 4's
        # viewport, and half that in each half of figure 5, whose two
        # pieces printed as 288.000,412.000 and 588.000,412.000, twice each
        out_dir = tmp_path / "figs"
        argv = ["figures", "--altitude=9.79e-28", "--distance=1.32e-8",
                "--hoop-height=0.00749", "--gravity=2.58e-210", f"--out={out_dir}"]
        assert run_captured(argv)[0] == 0
        blue = r'<polyline points="([^"]+)" stroke="#0000CC"'
        assert re.findall(blue, (out_dir / "figure_04.svg").read_text()) == [
            "587.999,412.000 588.000,412.000"
        ]
        assert re.findall(blue, (out_dir / "figure_05.svg").read_text()) == []

    def test_a_trajectory_end_that_is_not_finite_exits_2(self, tmp_path):
        # the 5e-324 m/s shot reaches the hoop plane, 1e-300 m away, after
        # 2e23 s, when g t^2 / 2 overflows: its height there is -inf
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"params": {"a": 0, "d": 1e-300, "h": 0, "g": 1.7e308}, "velocities": [5e-324]}
        ))
        out_dir = tmp_path / "figs"
        assert run_captured(["figures", f"--scenario={scenario}", f"--out={out_dir}"]) == (
            2, "", "trajectory sample is not finite: (2.0240225330731062e+23, 1e-300, -inf)\n"
        )
        assert not out_dir.exists()


class TestNoCyclicGarbage:
    def test_a_figure_set_leaves_nothing_for_the_collector(self, tmp_path):
        # json's indenting encoder left 33 unreachable objects per
        # ladder.json, so a program that allocated less was collected less
        # often and held them longer
        argv = ["figures", "--out", str(tmp_path)]
        assert run_captured(argv)[0] == 0  # imports and caches first
        gc.collect()
        gc.disable()
        try:
            assert run_captured(argv)[0] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


GOLDEN = Path(__file__).parent / "golden"
FIGURE_SET = [f"figure_{i:02d}.svg" for i in range(1, 8)] + ["ladder.json"]


def _errno_line(what, path, code):
    """The one stderr line of a failed write of what to path."""
    return f"cannot {what} {path}: [Errno {code}] {os.strerror(code)}: '{path}'\n"


class TestWrites:
    """Each file of a figure set is written by os.write calls on one
    descriptor, and each write that fails is one line naming its target,
    with exit 1."""

    def test_a_longer_stale_figure_is_overwritten(self, tmp_path):
        (tmp_path / "figure_01.svg").write_bytes(b"x" * 30_000)
        assert run_captured(["figures", "--out", str(tmp_path)])[0] == 0
        for name in FIGURE_SET:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_a_short_write_is_written_on(self, tmp_path, monkeypatch):
        calls = []

        def short_write(fd, data):
            calls.append(len(data))
            return os_write(fd, bytes(data[:1000]))

        os_write = os.write
        monkeypatch.setattr(os, "write", short_write)
        assert run_captured(["figures", "--out", str(tmp_path)])[0] == 0
        monkeypatch.undo()
        for name in FIGURE_SET:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        assert len(calls) > len(FIGURE_SET)  # the figures are longer than 1,000 bytes

    @pytest.mark.parametrize("name", ["figure_03.svg", "ladder.json"])
    def test_a_file_that_cannot_be_written_is_named(self, tmp_path, name):
        (tmp_path / name).mkdir()
        code, out, err = run_captured(["figures", "--out", str(tmp_path)])
        what = "write figure to" if name.endswith(".svg") else "write ladder spec to"
        assert (code, err) == (1, _errno_line(what, tmp_path / name, errno.EISDIR))

    def test_an_out_that_names_a_file_is_named(self, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("")
        code, out, err = run_captured(["figures", "--out", str(afile)])
        assert (code, out) == (1, "")
        assert err == _errno_line("make the output directory", afile, errno.EEXIST)

    def test_a_sweep_that_cannot_be_written_is_named(self, tmp_path):
        code, out, err = run_captured(["sweep", "--out", str(tmp_path)])
        assert (code, out) == (1, "")
        assert err == _errno_line("write sweep CSV to", tmp_path, errno.EISDIR)


class TestEmptyOutputPath:
    """An empty output path is a usage error naming its flag or key, not a
    fall back to another directory or to stdout."""

    @pytest.mark.parametrize("out", [["--out", ""], ["--out="]], ids=["separate", "equals"])
    def test_figures_out(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert run_captured(["figures", *out]) == (2, "", "--out must not be empty\n")
        assert list(tmp_path.iterdir()) == []

    def test_figures_output_key(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenario = tmp_path / "empty_output.json"
        scenario.write_text(json.dumps({"output": ""}))
        code, out, err = run_captured(["figures", "--scenario", str(scenario)])
        assert (code, out, err) == (2, "", "output must not be empty\n")
        assert list(tmp_path.iterdir()) == [scenario]

    def test_sweep_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_captured(["sweep", "--out", ""]) == (2, "", "--out must not be empty\n")
        assert list(tmp_path.iterdir()) == []


class TestValidateLadder:
    def test_missing_file(self, capsys, tmp_path):
        assert run(["validate-ladder", str(tmp_path / "nope.json")]) == 2

    def test_violations_reported(self, capsys, tmp_path):
        # blue introduced at stage 2, before red
        doc = copy.deepcopy(LADDER)
        doc["stages"][1]["roles_used"] = ["BASELINE", "SOLUTION"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run(["validate-ladder", str(path)]) == 1
        assert capsys.readouterr().out == (
            "1 violations\nROLE_RANK_REGRESSION (stages 2, 3): stage 3 introduces "
            "a role of rank 1 after stage 2 introduced rank 2\n"
        )

    def test_one_stretched_range_is_one_violation(self, tmp_path):
        # the one-range mutation the benchmark's validate-ladder op checks:
        # stage 2's first court panel 1 m wider
        out_dir = tmp_path / "figs"
        argv = ["figures", "--out", str(out_dir), "--scenario", str(_small_scenario(tmp_path))]
        assert run_captured(argv)[0] == 0
        doc = json.loads((out_dir / "ladder.json").read_text())
        doc["stages"][1]["panels"][0]["x_range"][1] += 1.0
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        code, out, err = run_captured(["validate-ladder", str(path)])
        assert (code, err) == (1, "")
        assert out.splitlines()[0] == "1 violations"
        assert out.splitlines()[1].startswith("SHARED_SPACE_MISMATCH (stages 1, 2): ")


    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param([], id="top-level-not-object"),
            pytest.param({}, id="no-stages"),
            pytest.param({"stages": 5}, id="stages-not-list"),
            pytest.param({"stages": [5]}, id="stage-not-object"),
            pytest.param({"stages": [{"caption": "c"}]}, id="stage-missing-keys"),
            pytest.param("roles_used", id="unknown-color-role"),
            pytest.param("tags", id="unknown-strategy-tag"),
            pytest.param(("tags", "EXPAND_YEARS"), id="retired-strategy-tag"),
            pytest.param("panels", id="panel-not-object"),
            pytest.param("x_range", id="range-not-numbers"),
            pytest.param(
                lambda stage: stage["panels"][0].update(x_range=[0, 10**400]),
                id="range-401-digit-int",
            ),
            pytest.param(lambda stage: stage["panels"][0].update(aspect=math.nan), id="aspect-nan"),
            pytest.param(lambda stage: stage.update(parnet=3), id="stage-unknown-key"),
        ],
    )
    def test_malformed_spec_exits_2(self, tmp_path, doc):
        if isinstance(doc, str):
            doc = (doc, "NO_SUCH_NAME")
        if isinstance(doc, tuple) or callable(doc):  # one field of a valid spec broken
            from hoopshot.figures import build_basketball_ladder
            from hoopshot.ladder import ladder_to_json

            spec, _ = build_basketball_ladder(d_grid=(2.0, 1.0, 2))
            broken = json.loads(ladder_to_json(spec))
            stage = broken["stages"][1]
            if callable(doc):
                doc(stage)
            elif doc[0] == "x_range":
                stage["panels"][0]["x_range"] = ["0", "1"]
            else:
                field, bad_name = doc
                stage[field] = [*stage[field][:1], bad_name]
            doc = broken
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_captured(["validate-ladder", str(path)])
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_spec_with_the_retired_aspect_exits_2_naming_it(self, tmp_path):
        # a ladder.json written while PlotSpace had an aspect field
        doc = copy.deepcopy(LADDER)
        for stage in doc["stages"]:
            for panel in stage["panels"]:
                panel["aspect"] = 1.0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        code, out, err = run_captured(["validate-ladder", str(path)])
        assert (code, out) == (2, "")
        assert err == (
            f"cannot load ladder spec {path}: stages[0].panels[0] has unknown key "
            "'aspect'; known: x_var, y_var, x_range, y_range\n"
        )

    def test_spec_with_the_retired_parent_exits_2_naming_it(self, tmp_path):
        # a ladder.json written while a Stage had a parent
        doc = copy.deepcopy(LADDER)
        for n, stage in enumerate(doc["stages"], 1):
            stage["parent"] = n - 1 or None
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        code, out, err = run_captured(["validate-ladder", str(path)])
        assert (code, out) == (2, "")
        assert err == (
            f"cannot load ladder spec {path}: stages[0] has unknown key "
            "'parent'; known: id, panels, roles_used, tags, caption\n"
        )

    def test_ladder_without_stages_exits_2_naming_stages(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"stages": []}')
        code, out, err = run_captured(["validate-ladder", str(path)])
        assert (code, out) == (2, "")
        assert err == f"cannot load ladder spec {path}: stages must be a non-empty list, got []\n"

    def test_too_deeply_nested_spec_exits_2(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"stages": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, _, err = run_captured(["validate-ladder", str(path)])
        assert code == 2
        assert len(err.strip().splitlines()) == 1


class TestScenarioHandling:
    def test_scenario_file_values_used(self, capsys, scenario_file):
        assert run(["optimize", "--scenario", str(scenario_file)]) == 0
        assert "48.8" in capsys.readouterr().out

    def test_utf8_files_are_read_under_an_ascii_locale(self, tmp_path):
        # a fresh interpreter whose locale encoding is ASCII: neither the
        # C locale's coercion nor UTF-8 mode may rescue a locale-encoded read
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes('{"output": "figürs", "params": {"d": 8}}'.encode("utf-8"))
        doc = copy.deepcopy(LADDER)
        doc["stages"][0]["caption"] = "Ein Schütze, 10 m vor dem Korb."
        spec = tmp_path / "ladder.json"
        spec.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": str(SRC)}
        # a directory name the file-system encoding cannot hold cannot be made
        unmade = (
            "cannot make the output directory fig\\xfcrs: 'ascii' codec can't encode "
            "character '\\xfc' in position 3: ordinal not in range(128)\n"
        )
        for argv, want in (
            (["optimize", "--scenario", str(scenario)], run_captured(["optimize", "--distance=8"])),
            (["validate-ladder", str(spec)], (0, "0 violations\n", "")),
            (["figures", "--scenario", str(scenario)], (1, "", unmade)),
        ):
            result = subprocess.run(
                [sys.executable, "-m", "hoopshot.cli", *argv],
                capture_output=True, text=True, env=env, check=False, cwd=tmp_path,
            )
            assert (result.returncode, result.stdout, result.stderr) == want

    @pytest.mark.parametrize("argv, what", FILE_READERS)
    def test_a_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, argv, what):
        # a UTF-16 byte-order mark, which no UTF-8 text starts with
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_captured([*argv, str(path)])
        assert (code, out) == (2, "")
        assert err == (
            f"{what} {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("", id="empty"),
            pytest.param("\ufeff{}", id="byte-order-mark"),
            pytest.param("{} \n {}", id="extra-data"),
            pytest.param('{"output": "a\x01"}', id="control-character"),
            pytest.param("\x0c{}", id="form-feed"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
            # past int's digit limit: the scenario reader names its file since
            # it catches every ValueError, as the ladder-spec reader did
            pytest.param("1" * 5000, id="too-many-digits"),
        ],
    )
    @pytest.mark.parametrize("argv, what", FILE_READERS)
    def test_a_file_that_is_not_json_exits_2_with_the_json_loads_message(
        self, tmp_path, text, argv, what
    ):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises((ValueError, RecursionError)) as excinfo:
            json.loads(text)
        code, out, err = run_captured([*argv, str(path)])
        assert (code, out, err) == (2, "", f"{what} {path}: {excinfo.value}\n")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("{not json", id="not-json"),
            pytest.param('{"params": 5}', id="params-not-object"),
            pytest.param('{"d_grid": 5}', id="d_grid-not-object"),
            pytest.param(
                '{"d_grid": {"lo": 5, "hi": 2, "step": 1}}', id="d_grid-inverted"
            ),
            pytest.param(
                '{"d_grid": {"lo": NaN, "hi": 2, "step": 1}}', id="d_grid-lo-nan"
            ),
            pytest.param(
                '{"d_grid": {"lo": 1, "hi": Infinity, "step": 1}}', id="d_grid-hi-inf"
            ),
            # ~1.4e8 points: rejected from the count, never built
            pytest.param(
                '{"d_grid": {"lo": 1, "hi": 15, "step": 1e-7}}', id="d_grid-too-many"
            ),
            pytest.param('{"velocities": []}', id="velocities-empty"),
            pytest.param('{"altitudes": []}', id="altitudes-empty"),
            pytest.param('{"velocities": "5"}', id="velocities-not-list"),
            pytest.param('{"params": {"dd": 3}}', id="params-unknown-key"),
            pytest.param('{"velocity": [1, 2]}', id="top-level-unknown-key"),
            pytest.param(
                '{"d_grid": {"lo": 1, "hi": 3, "stp": 0.5}}', id="d_grid-unknown-key"
            ),
            pytest.param('{"d_grid": {"hi": 3}}', id="d_grid-no-lo"),
            # deeper than the JSON decoder's recursion limit
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        ],
    )
    def test_bad_scenario_exits_2(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = run_captured(["optimize", "--scenario", str(bad)])
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text, key",
        [
            pytest.param('{"velocities": [true, "7"]}', "velocities[0]", id="velocities-bool"),
            pytest.param('{"velocities": [5, "7"]}', "velocities[1]", id="velocities-string"),
            pytest.param('{"altitudes": [null]}', "altitudes[0]", id="altitudes-null"),
            pytest.param('{"params": {"a": true}}', "params.a", id="params-bool"),
            pytest.param('{"params": {"g": "9.8"}}', "params.g", id="params-string"),
            pytest.param(
                '{"d_grid": {"lo": "1", "hi": true, "step": "0.5"}}',
                "d_grid.lo",
                id="d_grid-strings",
            ),
            pytest.param(
                '{"d_grid": {"lo": 1, "hi": 3, "step": false}}',
                "d_grid.step",
                id="d_grid-step-bool",
            ),
            pytest.param('{"output": 5}', "output", id="output-not-string"),
            # an int too large for a float
            pytest.param(
                '{"params": {"d": 1%s}}' % ("0" * 400), "params.d", id="params-401-digit-int"
            ),
            pytest.param('{"params": {"d": NaN}}', "params.d", id="params-nan"),
            pytest.param(
                '{"velocities": [5, -Infinity]}', "velocities[1]", id="velocities-minus-inf"
            ),
            pytest.param('{"d_grid": {"lo": 1, "hi": 1e400}}', "d_grid.hi", id="d_grid-hi-1e400"),
        ],
    )
    def test_value_of_wrong_type_exits_2_naming_the_key(self, tmp_path, text, key):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run_captured(["optimize", "--scenario", str(bad)])
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert f"{key} must be a JSON" in err

    @pytest.mark.parametrize(
        "command, doc, shown",
        [
            pytest.param(
                "validate-ladder",
                {**LADDER, "stages": [{**LADDER["stages"][0], "panels": [
                    {**LADDER["stages"][0]["panels"][0], "x_range": [0, 10**400]}
                ]}]},
                "got 1%s... (401 characters)" % ("0" * 59),
                id="range-401-digit-int",
            ),
            pytest.param(
                "validate-ladder",
                {**LADDER, "stages": [{**LADDER["stages"][0], "roles_used": ["X" * 100]}]},
                "unknown ColorRole '%s... (102 characters)" % ("X" * 59),
                id="role-100-characters",
            ),
            pytest.param(
                "optimize",
                {"params": {"d": 10**400}},
                "got 1%s... (401 characters)" % ("0" * 59),
                id="params-401-digit-int",
            ),
            pytest.param(
                "optimize",
                {"k" * 100: 1},
                "unknown key '%s... (102 characters); known:" % ("k" * 59),
                id="unknown-key-100-characters",
            ),
        ],
    )
    def test_a_value_cut_short_in_the_message_is_marked(self, tmp_path, command, doc, shown):
        # a 401-digit int must not read as a complete 60-digit one
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        path = str(bad)
        argv = [command, path] if command == "validate-ladder" else [command, "--scenario", path]
        code, _, err = run_captured(argv)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert shown in err

    def test_bad_step_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"d_grid": {"lo": 1, "hi": 2, "step": 0}}))
        assert run(["sweep", "--scenario", str(bad)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "optimize --distance -5",
            "velocity --angle 30 --gravity inf",
            "velocity --angle 30 --altitude nan",
            "velocity --angle 30 --gravity 1e308",
            "trajectory --angle 30 --speed nan",
            "optimize --distance nan",
            "optimize --distance inf",
            "optimize --gravity 1e308",
            "trajectory --angle 89 --speed 1e10 --distance 1e308 --gravity 1e-300",
        ],
        ids=lambda argv: argv.replace(" ", "_"),
    )
    def test_bad_flag_value_exits_2(self, argv):
        code, out, err = run_captured(argv.split())
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert not NON_FINITE.search(out)

    @settings(deadline=None, max_examples=300)
    @given(
        data=st.data(), ladder=st.booleans(), add_key=st.booleans(), value=JSON_VALUES
    )
    def test_any_json_value_keeps_exit_contract(self, contract_dir, data, ladder, add_key, value):
        # one value of a valid scenario file or ladder spec replaced, or
        # one key added; exit 0 (or a domain exit 1) only for a value
        # that passes the reader's policy
        doc = copy.deepcopy(LADDER if ladder else FULL_SCENARIO)
        paths = [p for p in _key_paths(doc) if not add_key or type(_at(doc, p)) is dict]
        path = data.draw(st.sampled_from(paths), label="path")
        if add_key:
            target = _at(doc, path)
            target[data.draw(st.text(max_size=3).filter(lambda k: k not in target))] = value
            conforms = False
        elif path:
            target = _at(doc, path[:-1])
            conforms = _conforms(value, target[path[-1]])
            target[path[-1]] = value
        else:
            conforms, doc = _conforms(value, doc), value
        file = contract_dir / "input.json"
        file.write_text(json.dumps(doc))
        argv = ["validate-ladder", str(file)] if ladder else ["optimize", "--scenario", str(file)]
        code, out, err = run_captured(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert len(err.strip().splitlines()) == 1
        else:
            assert conforms, (code, err)

    @settings(deadline=None, max_examples=300)
    @given(call=st.sampled_from(FLOAT_FLAG_CALLS), value=st.floats())
    def test_any_float_param_keeps_exit_contract(self, contract_dir, call, value):
        # --flag=VALUE so that a negative value is not parsed as an option
        argv = call.format(value=repr(value), out=contract_dir).split()
        code, out, err = run_captured(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert not NON_FINITE.search(out)


# the one-line reasons of the README's exit table, by exit code
EXIT_REASONS = {
    1: re.compile(
        r"INFEASIBLE: angle \S+ deg is at or below \S+ deg"
        r"|angle must be below pi/2, got \S+"
        r"|required speed at angle \S+ rad underflows to 0"
        r"|required speed at angle \S+ rad is not certain to 0.05 m/s"
        r" so near the feasibility angle \S+ rad"
    ),
    2: re.compile(
        r"(release_altitude|distance|hoop_height|gravity) must be finite, got \S+"
        r"|(distance|gravity) must be positive, got \S+"
        r"|(release_altitude|hoop_height) must be non-negative, got \S+"
        r"|angle must be in \[-pi/2, pi/2\) rad, got \S+"
        r"|angle must be in \[0, pi/2\), got \S+"
        r"|speed must be positive and finite, got \S+"
        r"|required speed at angle \S+ rad is not finite: \S+"
        r"|trajectory sample is not finite: \(\S+, \S+, \S+\)"
    ),
}
# any float, or one in the range of a real shot
ANY_VALUE = st.floats() | st.floats(0.0, 30.0)


def within_print(text: str, exact: Decimal, bound: float) -> bool:
    """Whether text, a value printed to one decimal, is within half a
    printed unit of exact, plus bound ulps of the value it printed."""
    return abs(Decimal(text) - exact) <= Decimal("0.05") + Decimal(bound * math.ulp(float(exact)))


class TestExitContract:
    @settings(deadline=None, max_examples=400)
    @given(
        command=st.sampled_from(["optimize", "velocity", "trajectory"]),
        values=st.dictionaries(st.sampled_from(PARAM_FLAGS), ANY_VALUE, min_size=2),
        angle=st.floats(-89.0, 89.0) | st.floats(),
        speed=ANY_VALUE,
    )
    @example(  # the sum d*tan(angle) + a, taken first, rounded at the scale of a
        command="velocity",
        values={"--altitude": 8796093022207.0, "--hoop-height": 8796093022207.0},
        angle=9.27734375,
        speed=15.0,
    )
    @example(  # a sample overflows; the reason prints the sample's (t, x, y) tuple
        command="trajectory",
        values={"--altitude": 8.98846567431158e307, "--distance": 6.057030212669417e153},
        angle=0.0,
        speed=1.0,
    )
    def test_answer_or_one_documented_line(self, command, values, angle, speed):
        # exit 0 prints the oracle's answer at printed precision, within
        # the float bounds the README states (theta* 3 ulp and 1 more for
        # degrees, v* 2.5, the required speed 64); exit 1 or 2 prints one
        # line, a reason the README's exit table lists
        argv = [command, *(f"{flag}={v!r}" for flag, v in values.items())]
        argv += [] if command == "optimize" else [f"--angle={angle!r}"]
        argv += [f"--speed={speed!r}", "--samples=3"] if command == "trajectory" else []
        code, out, err = run_captured(argv)
        lines = (out + err).splitlines()
        if code != 0:
            assert len(lines) == 1 and EXIT_REASONS[code].fullmatch(lines[0]), (code, lines)
            return
        # each flag's value, else ShotParams's default (PARAM_FLAGS is in its field order)
        a, d, h, g = (values.get(flag, default) for flag, default in zip(PARAM_FLAGS, ShotParams()))
        if command == "optimize":
            theta, v = re.fullmatch(r"theta_opt=(\S+) deg, v_opt=(\S+) m/s", out.strip()).groups()
            exact_theta, exact_v = decimal_optimum(a, d, h, g)
            assert within_print(theta, exact_theta * 180 / decimal_pi(), 4.0)
            assert within_print(v, exact_v, 2.5)
        elif command == "velocity":
            v = re.fullmatch(r"v=(\S+) m/s", out.strip()).group(1)
            assert within_print(v, decimal_required_velocity(a, d, h, g, math.radians(angle)), 64.0)
        else:
            rows = [list(map(float, row.split(","))) for row in lines[1:]]
            assert lines[0] == "t,x,y" and len(rows) == 3
            assert all(map(math.isfinite, sum(rows, [])))


    @settings(deadline=None, max_examples=150)
    @given(
        command=st.sampled_from(["sweep", "figures"]),
        values=st.dictionaries(st.sampled_from(PARAM_FLAGS), ANY_VALUE, min_size=2),
    )
    @example(  # speeds near 1e22 m/s, which %.6f writes with 28 digits
        command="sweep",
        values={"--altitude": 0.0, "--hoop-height": 0.0, "--gravity": 2.5e43},
    )
    @example(  # the required-speed curve lies within 0.05 deg below 90 deg: drawn, exit 0
        command="figures",
        values={"--altitude": 1.7, "--distance": 0.001},
    )
    def test_sweep_and_figures_answer_or_one_documented_line(self, contract_dir, command, values):
        # on small.json's 3-point grid: exit 0 writes each sweep row
        # correctly rounded from the oracle's optimum, or the 7 figures
        # and a ladder.json with no violations; exit 1 or 2 prints one
        # line, a reason the README's exit table lists
        out_dir = contract_dir / "figs"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [command, f"--scenario={contract_dir / 'small.json'}"]
        argv += [f"{flag}={v!r}" for flag, v in values.items()]
        argv += [f"--out={out_dir}"] if command == "figures" else []
        code, out, err = run_captured(argv)
        lines = (out + err).splitlines()
        if code != 0:
            assert len(lines) == 1 and EXIT_REASONS[code].fullmatch(lines[0]), (code, lines)
            return
        if command == "sweep":
            # each flag's value, else ShotParams's default (PARAM_FLAGS is in its field order)
            params = ShotParams(*(values.get(f, v) for f, v in zip(PARAM_FLAGS, ShotParams())))
            assert_correctly_rounded(out, params, [2.0, 3.0, 4.0])
            return
        names = [f"figure_{i:02d}.svg" for i in range(1, 8)] + ["ladder.json"]
        assert lines == [str(out_dir / name) for name in names]
        assert sorted(p.name for p in out_dir.iterdir()) == names
        for name in names[:-1]:
            assert not ONE_POINT.search((out_dir / name).read_text()), name
        assert run_captured(["validate-ladder", lines[-1]]) == (0, "0 violations\n", "")


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "command",
        ["trajectory", "velocity", "optimize", "sweep", "figures", "validate-ladder"],
    )
    def test_help_exits_0_and_mentions_units(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0

    def test_top_level_help_documents_units(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "degrees" in out
        assert "m/s" in out


def full_parser_captured(argv):
    """Exit code, stdout and stderr of parsing argv with every subparser
    built; a successful parse reads as None."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            build_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestOneSubparser:
    """For help and usage errors run() prints what build_parser()'s parser
    prints, and returns its exit code."""

    @pytest.mark.parametrize(
        "argv",
        [[name, "--help"] for name in COMMANDS]
        + [[name, "--bogus"] for name in COMMANDS]  # rejected by the top level
        + [
            ["trajectory", "--angle", "30"],  # --speed missing
            ["velocity", "--angle", "steep"],
            ["optimize", "--distance"],
            ["sweep", "--altitudes"],
            ["figures", "--gravity", "g"],
            ["validate-ladder"],
            ["--help"],
            [],
            ["frobnicate"],
            ["-h", "sweep"],
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_help_and_usage_errors_match_the_full_parser(self, argv):
        code, out, err = full_parser_captured(argv)
        assert code in (0, 2)
        assert run_captured(argv) == (code, out, err)


# argv drawn from tokens: a command (or none, or an unknown one), then
# flags of that command spelled in full, abbreviated or joined to a value
# by "=", values that argparse reads in different ways, "-h", "--" and
# bare values.  Most items are plain: distinct flags with values every
# type accepts, and in half of the argv each required flag; at most one
# item is drawn from the whole grammar, and it may repeat a flag.
_PLAIN_VALUES = ["5", " 5", "1_0", "2"]
_VALUES = [*_PLAIN_VALUES, "-1", "1e3", "nan", "inf", "x", "", "2.5", "-h", "--", "-x"]


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from([*COMMANDS, "frobnicate", "-h", None]))
    command = COMMANDS.get(name, COMMANDS["optimize"])
    flag = st.sampled_from([f.name for f in command.flags])
    value = st.sampled_from(_VALUES)
    item = st.one_of(
        st.tuples(flag, value),
        st.tuples(flag, value, value),
        st.tuples(flag.map(lambda f: f[:-1]), value),  # abbreviated
        st.builds(lambda f, v: (f"{f}={v}",), flag, value),
        st.builds(lambda f, v: (f"{f[:-1]}={v}",), flag, value),  # both
        st.tuples(value),
    )
    # a positional ("file") is given as its value alone
    plain = st.tuples(flag, st.sampled_from(_PLAIN_VALUES)).map(
        lambda item: item if item[0].startswith("-") else item[1:]
    )
    items = draw(st.lists(plain, max_size=4, unique_by=lambda item: item[0]))
    if draw(st.booleans()):
        named = {item[0] for item in items}
        items += [(f.name, "5") for f in command.flags if f.required and f.name not in named]
    items += draw(st.lists(item, max_size=1))
    items = draw(st.permutations(items))
    return ([] if name is None else [name]) + [token for item in items for token in item]


_FULL_PARSER = build_parser()  # parse_args leaves a parser as it was
_DASHED = {v for v in _VALUES if v.startswith("-")}


def _fields(namespace):
    # repr, so that nan equals nan
    return repr(sorted(vars(namespace).items()))


class TestQuickParse:
    """run() parses argv without argparse; what it reads must be what
    argparse reads, and any argv argparse rejects it leaves alone."""

    @settings(max_examples=500, deadline=None)
    @given(argv=_argvs())
    def test_quick_parse_is_what_argparse_returns(self, argv):
        quick = _parse(argv)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                full = _FULL_PARSER.parse_args(argv)
        except SystemExit:  # argparse printed help or a usage error
            assert quick is None
        else:
            if quick is None:
                # only an argv with a value starting with "-" is left to argparse
                assert any(t in _DASHED or t.partition("=")[2] in _DASHED for t in argv)
            else:
                assert _fields(quick) == _fields(full)

    @pytest.mark.parametrize(
        "argv",
        [
            "optimize",
            "optimize --scenario s.json --altitude 2 --distance 7 --hoop-height 3 --gravity 9",
            "velocity --angle 30 --distance nan",
            "optimize --distance -5",
            "trajectory --speed 15 --angle 30 --samples 5",
            "sweep --scenario s.json --altitudes 1.2 1_0 inf --out o.csv",
            "figures --out figs",
            "validate-ladder figs/ladder.json",
            "optimize --dist 5",
            "optimize --distance=5",
            "optimize --distance 5 --distance 6",
            "sweep --altitudes 1 2 --altitudes=3 --ou=o.csv",
        ],
    )
    def test_plain_argv_parses_as_argparse_does(self, argv):
        argv = argv.split()
        quick = _parse(argv)
        assert quick is not None
        assert _fields(quick) == _fields(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            "optimize -h",
            "optimize --altitude x --altitude 5",
            "optimize --scenario=--",
            "figures --out -x",
            "optimize -- --distance 5",
            "validate-ladder -- figs/ladder.json",
            "velocity --angle steep",
            "trajectory --angle 30 --speed 15 --samples 1e3",
            "trajectory --angle 30",
            "sweep --altitudes",
            "validate-ladder",
            "validate-ladder a b",
            "--distance 5",
            "frobnicate --distance 5",
            "",
        ],
    )
    def test_argv_outside_the_plain_shape_is_left_to_argparse(self, argv):
        assert _parse(argv.split()) is None

    @pytest.mark.parametrize(
        "argv",
        [
            "velocity --angle -1e1",
            "velocity --angle -10",
            "velocity --angle -inf",
            "optimize --altitude -1e-3",
            "trajectory --angle 30 --speed -1e1",
        ],
    )
    def test_a_negative_value_in_any_float_form_reads_as_its_equals_form(self, argv):
        # argparse takes "-1e1" and "-inf" for options, but not "-10" or "--angle=-1e1"
        equals = "=-".join(argv.rsplit(" -", 1)).split()
        assert _fields(_parse(argv.split())) == _fields(_FULL_PARSER.parse_args(equals))
        code, out, err = run_captured(argv.split())
        assert (code, out, err) == run_captured(equals)
        assert code in (1, 2) and len((out + err).splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, plain, code, message",
        [
            ("velocity --angle -1e1 --distance 5 --distance 6", "velocity --angle -1e1 --distance 6",
             1, "INFEASIBLE: angle -10 deg is at or below 12.680 deg"),
            ("figures --out=OUT --distance -inf", "figures --out OUT --distance -inf", 2,
             "distance must be finite, got -inf"),
            ("velocity --scenario=FILE --angle -1e1", "velocity --scenario FILE --angle -1e1", 1,
             "INFEASIBLE: angle -10 deg is at or below 15.110 deg"),
            ("sweep --out=OUT --altitudes 1 -1e1", "sweep --out OUT --altitudes 1 -1e1", 2,
             "release_altitude must be non-negative, got -10.0"),
            ("sweep --altitudes 1 --altitudes -1e1 --out OUT", "sweep --altitudes -1e1 --out OUT",
             2, "release_altitude must be non-negative, got -10.0"),
        ],
    )
    def test_an_argv_argparse_accepts_answers_as_its_plain_form(self, tmp_path, argv, plain, code, message):
        # a repeated flag takes its last value, and after a flag joined to
        # its value by "=", a negative value is still a value
        out, scenario = str(tmp_path / "out"), tmp_path / "d5.json"
        scenario.write_text('{"params": {"d": 5}}')
        argv, plain = (a.replace("OUT", out).replace("FILE", str(scenario)).split() for a in (argv, plain))
        result = run_captured(plain)
        assert result[0] == code and (result[1] + result[2]).splitlines() == [message]
        assert run_captured(argv) == result
        assert not os.path.exists(out)


class TestAbbreviatedFlags:
    """argparse reads a flag's unique prefix as the flag, so run() reads an
    argv with abbreviated flags as the same argv with every flag in full:
    a negative value in any float form is the flag's value on either."""

    @pytest.mark.parametrize(
        "argv, full, code, message",
        [
            ("velocity --angle -1e1 --dist 5", "velocity --angle -1e1 --distance 5", 1,
             "INFEASIBLE: angle -10 deg is at or below 15.110 deg"),
            ("velocity --ang -1e1", "velocity --angle -1e1", 1,
             "INFEASIBLE: angle -10 deg is at or below 7.688 deg"),
            ("velocity --dist 5 --angle -inf", "velocity --distance 5 --angle -inf", 2,
             "angle must be in [-pi/2, pi/2) rad, got -inf"),
            ("velocity --dist 5 --angle -nan", "velocity --distance 5 --angle -nan", 2,
             "angle must be in [-pi/2, pi/2) rad, got nan"),
            ("sweep --altitudes 1 -1e1 --o OUT", "sweep --altitudes 1 -1e1 --out OUT", 2,
             "release_altitude must be non-negative, got -10.0"),
            ("optimize --alt=-1e1 --grav -inf", "optimize --altitude=-1e1 --gravity -inf", 2,
             "gravity must be finite, got -inf"),
        ],
    )
    def test_an_abbreviated_flag_reads_as_the_flag_in_full(self, tmp_path, argv, full, code, message):
        out = str(tmp_path / "x.csv")
        argv, full = ([out if t == "OUT" else t for t in a.split()] for a in (argv, full))
        result = run_captured(full)
        assert result[0] == code and (result[1] + result[2]).splitlines() == [message]
        assert run_captured(argv) == result
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv", ["velocity --a 5", "optimize --he", "optimize -- --dist 5", "figures --dist"]
    )
    def test_an_ambiguous_prefix_help_and_usage_errors_stay_argparse_s(self, argv):
        # "--a" could be --altitude or --angle, "--he" is --help, and after
        # "--" argparse reads no flag
        code, out, err = full_parser_captured(argv.split())
        assert code in (0, 2)
        assert run_captured(argv.split()) == (code, out, err)
