import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from hoopshot.cli import COMMANDS, _parse, build_parser, run

NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)
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


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """A directory holding small.json (3-point grid) for the property
    test's sweep and figures calls, which write under it."""
    path = tmp_path_factory.mktemp("contract")
    _small_scenario(path)
    return path


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


class TestVelocity:
    def test_feasible(self, capsys):
        assert run(["velocity", "--angle", "30"]) == 0
        assert "v=12.2 m/s" in capsys.readouterr().out

    def test_infeasible_exits_1(self, capsys):
        assert run(["velocity", "--angle", "5"]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out


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

    def test_byte_identical_across_runs(self, tmp_path):
        scenario = _small_scenario(tmp_path)
        dir1 = tmp_path / "run1"
        dir2 = tmp_path / "run2"
        run(["figures", "--out", str(dir1), "--scenario", str(scenario)])
        run(["figures", "--out", str(dir2), "--scenario", str(scenario)])
        for p1 in sorted(dir1.glob("*.svg")):
            p2 = dir2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()


class TestValidateLadder:
    def test_missing_file(self, capsys, tmp_path):
        assert run(["validate-ladder", str(tmp_path / "nope.json")]) == 2

    def test_violations_reported(self, capsys, tmp_path):
        from hoopshot.figures import build_basketball_ladder
        from hoopshot.ladder import LadderSpec, ladder_to_json

        spec, _ = build_basketball_ladder(d_grid=[2.0, 3.0])
        stages = list(spec.stages)
        stages[2] = stages[2].replace(parent=3)
        broken = LadderSpec(stages=tuple(stages))
        path = tmp_path / "broken.json"
        path.write_text(ladder_to_json(broken))
        assert run(["validate-ladder", str(path)]) == 1
        out = capsys.readouterr().out
        assert "1 violations" in out
        assert "BROKEN_PARENT_ORDER" in out


    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param([], id="top-level-not-object"),
            pytest.param({}, id="no-stages"),
            pytest.param({"stages": 5}, id="stages-not-list"),
            pytest.param({"stages": [5]}, id="stage-not-object"),
            pytest.param({"stages": [{"id": 1}]}, id="stage-missing-keys"),
            pytest.param("roles_used", id="unknown-color-role"),
            pytest.param("tags", id="unknown-strategy-tag"),
            pytest.param(("tags", "EXPAND_YEARS"), id="retired-strategy-tag"),
            pytest.param("panels", id="panel-not-object"),
            pytest.param("x_range", id="range-not-numbers"),
        ],
    )
    def test_malformed_spec_exits_2(self, tmp_path, doc):
        if isinstance(doc, str):
            doc = (doc, "NO_SUCH_NAME")
        if isinstance(doc, tuple):  # one field of a valid spec broken
            from hoopshot.figures import build_basketball_ladder
            from hoopshot.ladder import ladder_to_json

            field, bad_name = doc
            spec, _ = build_basketball_ladder(d_grid=[2.0, 3.0])
            broken = json.loads(ladder_to_json(spec))
            stage = broken["stages"][1]
            if field == "x_range":
                stage["panels"][0]["x_range"] = ["0", "1"]
            else:
                stage[field] = [*stage[field][:1], bad_name]
            doc = broken
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_captured(["validate-ladder", str(path)])
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestScenarioHandling:
    def test_scenario_file_values_used(self, capsys, scenario_file):
        assert run(["optimize", "--scenario", str(scenario_file)]) == 0
        assert "48.8" in capsys.readouterr().out

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
        ],
    )
    def test_value_of_wrong_type_exits_2_naming_the_key(self, tmp_path, text, key):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run_captured(["optimize", "--scenario", str(bad)])
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert f"{key} must be a JSON" in err

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
            "trajectory --angle 45 --speed 1e-300 --gravity 1e308",
        ],
        ids=lambda argv: argv.replace(" ", "_"),
    )
    def test_bad_flag_value_exits_2(self, argv):
        code, out, err = run_captured(argv.split())
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert not NON_FINITE.search(out)

    @settings(deadline=None, max_examples=300)
    @given(call=st.sampled_from(FLOAT_FLAG_CALLS), value=st.floats())
    def test_any_float_param_keeps_exit_contract(self, contract_dir, call, value):
        # --flag=VALUE so that a negative value is not parsed as an option
        argv = call.format(value=repr(value), out=contract_dir).split()
        code, out, err = run_captured(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert not NON_FINITE.search(out)


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
    """run() builds only the invoked command's subparser; what it prints
    for help and usage errors is what the full parser prints."""

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

    def test_named_command_builds_one_subparser(self):
        parser = build_parser("sweep")
        [sub] = [a for a in parser._actions if a.dest == "command"]
        assert list(sub.choices) == ["sweep"]
        assert parser.format_usage() == build_parser().format_usage()


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


def _fields(namespace):
    # repr, so that nan equals nan
    return repr(sorted(vars(namespace).items()))


class TestQuickParse:
    """run() parses a plain argv without argparse; what it reads must be
    what argparse reads, and any argv argparse rejects it leaves alone."""

    @settings(max_examples=500, deadline=None)
    @given(argv=_argvs())
    def test_quick_parse_is_none_or_what_argparse_returns(self, argv):
        quick = _parse(argv)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                full = _FULL_PARSER.parse_args(argv)
        except SystemExit:  # argparse printed help or a usage error
            assert quick is None
        else:
            assert quick is None or _fields(quick) == _fields(full)

    @pytest.mark.parametrize(
        "argv",
        [
            "optimize",
            "optimize --scenario s.json --altitude 2 --distance 7 --hoop-height 3 --gravity 9",
            "velocity --angle 30 --distance nan",
            "trajectory --speed 15 --angle 30 --samples 5",
            "sweep --scenario s.json --altitudes 1.2 1_0 inf --out o.csv",
            "figures --out figs",
            "validate-ladder figs/ladder.json",
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
            "optimize --dist 5",
            "optimize --distance=5",
            "optimize --distance -5",
            "optimize --distance 5 --distance 6",
            "figures --out -x",
            "optimize -- --distance 5",
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
