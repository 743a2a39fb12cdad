"""Start-up cost: which modules the CLI and the package pull in."""

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
PROBE = f"""
import contextlib, io, sys
heavy = {HEAVY!r}
import hoopshot.cli
print(sorted(m for m in heavy if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = hoopshot.cli.run(["optimize"])
print(code, sorted(m for m in heavy if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = hoopshot.cli.run(["sweep"])
print(code, sorted(m for m in heavy if m in sys.modules))
"""


def test_cli_and_optimize_skip_the_renderer_stack():
    # a fresh interpreter: this test process has imported everything already
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert result.stdout.splitlines() == ["[]", "0 []", "0 []"]


def test_every_exported_name_resolves():
    assert len(hoopshot.__all__) == len(set(hoopshot.__all__)) == 41
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
