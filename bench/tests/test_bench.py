"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from hoopshot import cli, ladder  # noqa: E402

TRACEBACK = 'Traceback (most recent call last):\n  File "x", line 1\nValueError: boom\n'


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_yields_identical_inputs(workload, tmp_path):
    first = workloads.generate(workload, 7, tmp_path)
    again = workloads.generate(workload, 7, tmp_path)
    other = workloads.generate(workload, 8, tmp_path)
    assert first == again
    assert first != other


def test_cli_quick_setup_inputs_repeat(tmp_path):
    assert workloads.cli_quick_setup(3, tmp_path) == workloads.cli_quick_setup(3, tmp_path)


def _figure_set(out_dir: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(["figures", "--out", str(out_dir)])
    return rc, out.getvalue()


def _default_figures_inputs() -> dict:
    return {"params": dict(workloads.DEFAULT_PARAMS), "velocities": [5.0, 10.0, 15.0, 20.0]}


def test_figures_checker_rejects_a_flipped_svg_byte(tmp_path):
    golden = {p.name: p.read_bytes() for p in (ROOT / "tests" / "golden").glob("*.svg")}
    rc, out = _figure_set(tmp_path)
    inputs = _default_figures_inputs()
    assert checks.check_figures(inputs, rc, out, "", tmp_path, golden, ladder) is None

    svg = tmp_path / "figure_03.svg"
    data = bytearray(svg.read_bytes())
    index = data.index(b'points="') + len(b'points="')
    data[index] = ord("9") if data[index] != ord("9") else ord("8")
    svg.write_bytes(bytes(data))
    problem = checks.check_figures(inputs, rc, out, "", tmp_path, golden, ladder)
    assert problem is not None and "figure_03.svg" in problem


def test_figures_checker_rejects_a_corrupt_ladder(tmp_path):
    rc, out = _figure_set(tmp_path)
    spec = tmp_path / "ladder.json"
    spec.write_text(workloads.mutate_ladder(spec.read_text()))
    problem = checks.check_figures(_default_figures_inputs(), rc, out, "", tmp_path, None, ladder)
    assert problem == "ladder.json has 1 violations"


def test_optimize_checker_rejects_an_optimum_off_by_a_fifth_of_a_degree():
    params = {"a": 1.7, "d": 10.0, "h": 3.05, "g": 9.8}
    angle, speed = checks.optimum(**params)
    good = f"theta_opt={angle:.1f} deg, v_opt={speed:.1f} m/s\n"
    bad = f"theta_opt={angle + 0.2:.1f} deg, v_opt={speed:.1f} m/s\n"
    assert good == "theta_opt=48.8 deg, v_opt=10.6 m/s\n"  # README numbers
    assert checks.check_optimize({"params": params}, 0, good, "") is None
    assert "theta_opt" in checks.check_optimize({"params": params}, 0, bad, "")


def test_sweep_checker_rejects_an_optimum_off_by_a_fifth_of_a_degree():
    inputs = {"params": {"h": 3.05, "g": 9.8}, "altitudes": [1.7, 3.5], "grid": [2.0, 2.5, 3.0]}
    rows = ["d,theta_opt_deg,v_opt,altitude"]
    for alt in inputs["altitudes"]:
        for d in inputs["grid"]:
            angle, speed = checks.optimum(alt, d, 3.05, 9.8)
            rows.append(f"{d:.6f},{angle:.6f},{speed:.6f},{alt:.6f}")
    good = "\n".join(rows) + "\n"
    assert checks.check_sweep_csv(inputs, 0, good, "") is None
    d, angle, speed, alt = rows[5].split(",")
    rows[5] = f"{d},{float(angle) + 0.2:.6f},{speed},{alt}"
    problem = checks.check_sweep_csv(inputs, 0, "\n".join(rows) + "\n", "")
    assert problem is not None and "theta_opt" in problem


def test_checkers_reject_a_traceback_on_stderr():
    params = {"a": 1.7, "d": 10.0, "h": 3.05, "g": 9.8}
    out = "theta_opt=48.8 deg, v_opt=10.6 m/s\n"
    assert checks.check_optimize({"params": params}, 0, out, TRACEBACK) == "traceback on stderr"
    assert checks.check_contract_probe({}, 2, "", TRACEBACK) == "traceback on stderr"
    assert checks.check_contract_probe({}, 2, "", "bad scenario\n") is None


def test_checkers_reject_non_finite_output_with_exit_0():
    inputs = {"params": {"a": 1.7, "d": 10.0, "h": 3.05, "g": float("inf")}, "angle": 30.0}
    assert "non-finite" in checks.check_velocity(inputs, 0, "v=inf m/s\n", "")


def test_layer_map_covers_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(layers["workloads"]) == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for entry in layers["per_layer"].values():
        assert entry["moves"] in end_to_end or entry["moves"].startswith("none")
        assert set(entry["on"]) <= set(workloads.WORKLOADS)


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    matched = list(zip(base, [b * 0.8 for b in base]))
    assert compare.verdict(base, [y for _, y in matched], matched, "lower", 0.1) == "improved"
    matched = list(zip(base, [b * 1.3 for b in base]))
    assert compare.verdict(base, [y for _, y in matched], matched, "lower", 0.1) == "regressed"
    matched = list(zip(base, base))
    assert compare.verdict(base, base, matched, "lower", 0.1) == "unchanged"
    noisy = [50.0, 150.0] * 5
    matched = list(zip(noisy, noisy[::-1]))
    assert compare.verdict(noisy, noisy[::-1], matched, "lower", 0.1) == "unresolved"


def test_local_ratios_cancel_a_slow_spell():
    import run

    # the machine runs at half speed for the second half of the run
    ref = [1000] * 20 + [2000] * 20
    ops = [5 * r for r in ref]
    ops[:10] = [7000] * 10  # a slower op kind, at full speed
    assert run.local_ratios(ops, ref) == [7.0] * 10 + [5.0] * 30


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def _git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.skipif(
    not (ROOT / ".git").exists() or shutil.which("git") is None, reason="needs a git checkout"
)
def test_a_benchmark_run_leaves_the_working_tree_clean():
    before = _git_status()
    for args in (
        ("--workload", "sweep_dense", "--seed", "3", "--seconds", "1", "--trace", "0"),
        ("--workload", "figures_fan", "--seed", "3", "--seconds", "1", "--trace", "1"),
        ("--workload", "cli_quick", "--seed", "3", "--seconds", "1", "--trace", "0"),
    ):
        proc = _bench(*args)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
    assert _git_status() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep_dense", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
