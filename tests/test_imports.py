"""Start-up cost: which modules the CLI and the package pull in."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hoopshot

SRC = Path(__file__).resolve().parent.parent / "src"
# the renderer stack, and what xml.sax.saxutils used to drag in with it;
# dataclasses (with inspect), json, the test-oracle search, and argparse
# with the gettext and locale modules its messages load
HEAVY = (
    "hoopshot.render",
    "hoopshot.figures",
    "hoopshot.ladder",
    "xml.sax",
    "urllib.request",
    "http.client",
    "dataclasses",
    "inspect",
    "json",
    "hoopshot.scalarmin",
    "argparse",
    "gettext",
    "locale",
)
# what a clean interpreter (python -S) has not loaded, and the plain
# commands must not load: `typing` or `pathlib` alone adds ~30 ms to start-up
STARTUP = ("typing", "pathlib", "importlib", "re", "enum", "__future__")
PLAIN = (["optimize"], ["sweep"], ["velocity", "--angle", "60"],
         ["trajectory", "--angle", "30", "--speed", "15"])
# what reading a scenario file or a ladder spec must not load: json's C
# scanner parses it without the json package, and so without the re and
# enum that it pulls in; and no module imports __future__
READ_UNWANTED = ("json", "re", "enum", "__future__")
SCENARIO_UNWANTED = ("hoopshot.ladder", "hoopshot.render", "hoopshot.figures", "argparse",
                     "pathlib", "typing", "importlib") + READ_UNWANTED
# what writing a figure set and reading its ladder.json back must not load:
# output paths are joined by os.path
OUTPUT_UNWANTED = ("pathlib", "typing", "importlib", "argparse") + READ_UNWANTED
# argv in other forms argparse accepts, "=" and an abbreviated or repeated
# flag: `_parse` reads them too, so none loads argparse (DIR: the figures
# directory)
ARGPARSE = ("argparse", "gettext", "locale")
ARGPARSE_FREE = (["figures", "--out=DIR"], ["optimize", "--dist", "5", "--distance", "6"])
SCENARIO = {"params": {"a": 2.0}, "velocities": [5], "altitudes": [1.7],
            "d_grid": {"lo": 1, "hi": 3}, "output": "figs"}
PROBE = f"""
import io, sys
unwanted = {HEAVY + STARTUP!r}
print(sorted(m for m in unwanted if m in sys.modules))
import hoopshot.cli
print(sorted(m for m in unwanted if m in sys.modules))
for argv in {PLAIN!r}:
    sys.stdout = io.StringIO()
    code = hoopshot.cli.run(argv)
    sys.stdout = sys.__stdout__
    print(code, sorted(m for m in unwanted if m in sys.modules))
sys.stdout = io.StringIO()
code = hoopshot.cli.run(["optimize", "--scenario", sys.argv[1]])
sys.stdout = sys.__stdout__
print(code, sorted(m for m in {SCENARIO_UNWANTED!r} if m in sys.modules))
sys.stdout = io.StringIO()
codes = [hoopshot.cli.run(["figures", "--out", sys.argv[2]]),
         hoopshot.cli.run(["validate-ladder", sys.argv[2] + "/ladder.json"])]
sys.stdout = sys.__stdout__
print(codes, sorted(m for m in {OUTPUT_UNWANTED!r} if m in sys.modules))
sys.stdout = io.StringIO()
codes = [hoopshot.cli.run([t.replace("DIR", sys.argv[2]) for t in argv]) for argv in {ARGPARSE_FREE!r}]
sys.stdout = sys.__stdout__
print(codes, sorted(m for m in {ARGPARSE!r} if m in sys.modules))
"""


def test_cli_and_optimize_skip_the_renderer_stack(tmp_path):
    # a fresh interpreter: this test process has imported everything
    # already; -S, because a site-packages .pth file may import typing,
    # pathlib, re or enum at start-up and so hide them; then figures and
    # validate-ladder, which load the renderer stack but not pathlib
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(scenario), str(tmp_path / "figs")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert result.stdout.splitlines() == (
        ["[]", "[]"] + ["0 []"] * len(PLAIN) + ["0 []", "[0, 0] []", "[0, 0] []"]
    )


# what a default figure set must not load: the ladder's constants are
# plain strings, the renderer caches its frames in a dict, ladder.json of
# printable ASCII is quoted without json (with the re and enum it loads)
# or even json's C half, _json, and struct serves only the required-speed
# curve's search for a low end with no speed
FIGURES_UNWANTED = ("enum", "json", "re", "functools", "_json", "struct", "_struct")
FIGURES_PROBE = f"""
import io, sys
import hoopshot.cli
sys.stdout = io.StringIO()
code = hoopshot.cli.run(["figures", "--out", sys.argv[1]])
sys.stdout = sys.__stdout__
print(code, sorted(m for m in {FIGURES_UNWANTED!r} if m in sys.modules))
"""


def test_a_default_figure_set_loads_no_enum_json_re_or_functools(tmp_path):
    # -S, as above: the site-packages .pth files may load any of these
    result = subprocess.run(
        [sys.executable, "-S", "-c", FIGURES_PROBE, str(tmp_path / "figs")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert result.stdout == "0 []\n"


@pytest.mark.parametrize("path", sorted((SRC / "hoopshot").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_enum_or_functools(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"enum", "functools"}


def test_every_exported_name_resolves():
    assert len(hoopshot.__all__) == len(set(hoopshot.__all__)) == 36
    assert set(hoopshot.__all__) <= set(dir(hoopshot))
    for name in hoopshot.__all__:
        value = getattr(hoopshot, name)
        assert value.__name__ == name
        assert value.__module__.startswith("hoopshot.")


def test_every_module_is_exported_or_the_cli():
    # a module that nothing exports or runs fails here instead of lingering
    modules = {path.stem for path in (SRC / "hoopshot").glob("*.py")}
    assert modules - {"__init__", "cli"} == set(hoopshot._EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hoopshot.no_such_name  # noqa: B018
    assert not hasattr(hoopshot, "no_such_name")


@pytest.mark.parametrize("name", ["LinearScale", "scale_map"])
def test_removed_axis_records_are_gone(name):
    # a panel's axes are its PlotSpace's ranges; these restated them
    with pytest.raises(AttributeError, match=name):
        getattr(hoopshot, name)
    assert not hasattr(importlib.import_module("hoopshot.render"), name)


@pytest.mark.parametrize("name", ["STAGES", "_ladder"])
def test_removed_stage_table_is_gone(name):
    # each stage's figures, tags and caption are one call in build_basketball_ladder
    assert not hasattr(importlib.import_module("hoopshot.figures"), name)


@pytest.mark.parametrize("module, name", [("render", "VIEWPORT"), ("figures", "STACKED_HEIGHT")])
def test_removed_viewport_constants_are_gone(module, name):
    # a panel's viewport is render.viewports of its scene's spaces, and
    # figures reads no canvas or margin size of its own
    assert not hasattr(importlib.import_module(f"hoopshot.{module}"), name)
    source = (SRC / "hoopshot" / "figures.py").read_text()
    assert "render.SIZE" not in source and "MARGIN_" not in source
