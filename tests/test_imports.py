"""Start-up cost: which modules the CLI and the package pull in."""

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
STARTUP = ("typing", "pathlib", "importlib", "re", "enum")
PLAIN = (["optimize"], ["sweep"], ["velocity", "--angle", "60"],
         ["trajectory", "--angle", "30", "--speed", "15"])
# what reading a scenario file must not load, and what it does load: json,
# with the re and enum that json pulls in
SCENARIO_UNWANTED = ("hoopshot.ladder", "hoopshot.render", "hoopshot.figures", "argparse",
                     "pathlib", "typing", "importlib")
SCENARIO_LOADS = ("json", "re", "enum")
# what writing a figure set and reading its ladder.json back must not load:
# output paths are joined by os.path
OUTPUT_UNWANTED = ("pathlib", "typing", "importlib", "argparse")
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
print(code, sorted(m for m in {SCENARIO_UNWANTED!r} if m in sys.modules),
      all(m in sys.modules for m in {SCENARIO_LOADS!r}))
sys.stdout = io.StringIO()
codes = [hoopshot.cli.run(["figures", "--out", sys.argv[2]]),
         hoopshot.cli.run(["validate-ladder", sys.argv[2] + "/ladder.json"])]
sys.stdout = sys.__stdout__
print(codes, sorted(m for m in {OUTPUT_UNWANTED!r} if m in sys.modules))
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
        ["[]", "[]"] + ["0 []"] * len(PLAIN) + ["0 [] True", "[0, 0] []"]
    )


def test_every_exported_name_resolves():
    assert len(hoopshot.__all__) == len(set(hoopshot.__all__)) == 36
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
