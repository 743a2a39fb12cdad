"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured value when its assertions hold (run pytest -s to see
them)."""

import math
import random
import re
from pathlib import Path

import pytest

from hoopshot.cli import run
from hoopshot.figures import build_basketball_ladder
from hoopshot.kinematics import LaunchState, ShotParams, height_at_plane
from hoopshot.ladder import LadderSpec, ViolationKind, validate_ladder
from hoopshot.solver import (
    InfeasibleAngle,
    feasibility_angle,
    optimal_angle,
    required_velocity,
    sweep_altitudes,
    sweep_distance,
)

from oracles import Bracket, default_d_grid, grid_scan, minimize_scalar
from test_solver import bisect_hoop_speed, random_feasible_case

DEFAULTS = ShotParams()
DEG = math.pi / 180.0
GOLDEN_DIR = Path(__file__).parent / "golden"
SVG_TOKEN = re.compile(r"-?\d+(?:\.\d+)?|[^\s\d-]+|\S")


def report(number, message):
    print(f"criterion {number:02d} PASS: {message}")


def test_criterion_01_required_velocity_headline():
    v = required_velocity(DEFAULTS, 30.0 * DEG)
    assert v == pytest.approx(12.2, abs=0.05)
    report(1, f"required speed at 30 deg = {v:.3f} m/s (12.2 +/- 0.05)")


def test_criterion_02_optimum_reproduction():
    opt = optimal_angle(DEFAULTS)
    theta_deg = math.degrees(opt.angle)
    assert theta_deg == pytest.approx(48.8, abs=0.05)
    assert opt.speed == pytest.approx(10.6, abs=0.05)
    report(
        2,
        f"optimum theta = {theta_deg:.3f} deg, v = {opt.speed:.3f} m/s "
        f"(48.8 +/- 0.05, 10.6 +/- 0.05)",
    )


def test_criterion_03_feasibility_boundary():
    feas = feasibility_angle(DEFAULTS)
    assert math.degrees(feas) == pytest.approx(7.689, abs=1e-3)
    for angle in (0.0, 2.0 * DEG, 5.0 * DEG, feas / 2, feas):
        with pytest.raises(InfeasibleAngle):
            required_velocity(DEFAULTS, angle)
    v = required_velocity(DEFAULTS, feas + 0.01 * DEG)
    assert math.isfinite(v) and v > 0
    report(
        3,
        f"infeasible at and below {math.degrees(feas):.3f} deg, finite "
        f"({v:.1f} m/s) at +0.01 deg",
    )


def test_criterion_04_consistency_closure():
    rng = random.Random(1404)
    worst = 0.0
    for _ in range(50):
        params, angle = random_feasible_case(rng)
        v = required_velocity(params, angle)
        y = height_at_plane(params, LaunchState(angle, v))
        rel = abs(y - params.hoop_height) / params.hoop_height
        worst = max(worst, rel)
        assert rel <= 1e-9
    report(4, f"50 random closures, worst relative error {worst:.2e} (<= 1e-9)")


def test_criterion_05_oracle_equivalence():
    rng = random.Random(1505)
    worst = 0.0
    for _ in range(50):
        params, angle = random_feasible_case(rng)
        oracle = bisect_hoop_speed(params, angle)
        closed = required_velocity(params, angle)
        rel = abs(closed - oracle) / oracle
        worst = max(worst, rel)
        assert rel <= 1e-6

    worst_cells = 0.0
    for _ in range(20):
        params, _ = random_feasible_case(rng)
        opt = optimal_angle(params)
        bracket = Bracket(feasibility_angle(params) + 1e-6, 89.9 * DEG)
        scan = grid_scan(
            lambda a: required_velocity(params, a), bracket, n=10_000
        )
        cell = (bracket.hi - bracket.lo) / 9_999
        worst_cells = max(worst_cells, abs(opt.angle - scan.x) / cell)
        assert abs(opt.angle - scan.x) <= cell
    report(
        5,
        f"bisection worst rel err {worst:.2e} (<= 1e-6); grid scan within "
        f"{worst_cells:.2f} cells (<= 1)",
    )


def test_criterion_06_asymptote_and_monotonicity():
    far = optimal_angle(ShotParams(distance=200.0))
    far_deg = math.degrees(far.angle)
    assert far_deg == pytest.approx(45.19, abs=0.05)
    _, _, angles, speeds = sweep_distance(DEFAULTS, default_d_grid())
    assert all(b < a for a, b in zip(angles, angles[1:]))
    assert all(b > a for a, b in zip(speeds, speeds[1:]))
    report(
        6,
        f"theta_opt(d=200) = {far_deg:.3f} deg (45.19 +/- 0.05); theta "
        f"decreasing and v increasing over d in [1, 15]",
    )


def test_criterion_07_altitude_ordering():
    grid = default_d_grid()
    curves = sweep_altitudes(DEFAULTS, [1.2, 1.7, 2.2], grid)
    for i in range(len(grid)):
        angles = [c.angles[i] for c in curves]
        speeds = [c.speeds[i] for c in curves]
        assert angles[0] > angles[1] > angles[2]
        assert speeds[0] > speeds[1] > speeds[2]
    report(
        7,
        f"at all {len(grid)} distances, theta_opt and v_opt strictly "
        f"decrease as release altitude rises through 1.2/1.7/2.2 m",
    )


def test_criterion_08_bracket_sanity():
    v = required_velocity(DEFAULTS, 30.0 * DEG)
    assert 10.0 < v < 15.0
    report(8, f"hoop-reaching speed at 30 deg = {v:.3f} m/s, within (10, 15)")


def test_criterion_09_ladder_validation():
    spec, _ = build_basketball_ladder(d_grid=(2.0, 1.0, 3))
    assert validate_ladder(spec) == []

    def mutate(n, **changes):
        stages = list(spec.stages)
        stages[n - 1] = stages[n - 1].replace(**changes)
        return LadderSpec(stages=tuple(stages))

    # range mismatch on stage 2's second panel
    stage2 = spec.stages[1]
    bad_panel = stage2.panels[1].replace(y_range=(0.0, 9.0))
    v1 = validate_ladder(mutate(2, panels=(stage2.panels[0], bad_panel)))
    assert [v.kind for v in v1] == [ViolationKind.SHARED_SPACE_MISMATCH]

    # range mismatch between stage 5's two stacked panels on their distance axis
    top, bottom = spec.stages[4].panels
    lo, hi = top.x_range
    v2 = validate_ladder(mutate(5, panels=(top.replace(x_range=(lo, 2 * hi)), bottom)))
    assert [(v.kind, v.stages) for v in v2] == [(ViolationKind.SHARED_SPACE_MISMATCH, (5,))]

    # role-rank regression: green appears at stage 3, blue only at stage 4
    from hoopshot.ladder import ColorRole

    s3_roles = frozenset(
        {ColorRole.BASELINE, ColorRole.CONCRETE, ColorRole.OPTIMUM}
    )
    v3 = validate_ladder(mutate(3, roles_used=s3_roles))
    assert [v.kind for v in v3] == [ViolationKind.ROLE_RANK_REGRESSION]

    report(
        9,
        "built-in ladder clean; court-range, distance-axis and role-rank "
        "mutations each flagged with the expected violation kind",
    )


def golden_mismatch(name, actual, golden):
    """Failure message for an output that differs from its golden file: the
    first differing token, with the two before it, and the largest
    deviation between numbers at the same token position."""
    got = SVG_TOKEN.findall(actual.decode("utf-8"))
    want = SVG_TOKEN.findall(golden.decode("utf-8"))
    pairs = list(zip(got, want))
    i = next((k for k, (g, w) in enumerate(pairs) if g != w), len(pairs))
    message = (
        f"{name} deviates from golden at token #{i}: "
        f"{''.join(got[max(i - 2, 0):i + 1])!r} "
        f"(golden {''.join(want[max(i - 2, 0):i + 1])!r})"
    )
    deviations = []
    for g, w in pairs:
        try:
            deviations.append((abs(float(g) - float(w)), g, w))
        except ValueError:
            continue
    worst, g, w = max(deviations, default=(0.0, "", ""))
    if worst > 0:
        message += f"; largest numeric deviation {worst:.6g} ({g} vs {w})"
    if len(got) != len(want):
        message += f"; {len(got)} tokens (golden {len(want)})"
    return message


def test_criterion_10_determinism_and_golden_files(tmp_path):
    run(["figures", "--out", str(tmp_path / "a")])
    run(["figures", "--out", str(tmp_path / "b")])
    names = [f"figure_{i:02d}.svg" for i in range(1, 8)] + ["ladder.json"]
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second
        golden = GOLDEN_DIR / name
        assert golden.exists(), f"golden file {golden} missing"
        expected = golden.read_bytes()
        assert first == expected, golden_mismatch(name, first, expected)
    report(
        10,
        "two figure runs byte-identical and matching the 7 checked-in "
        "golden SVGs and ladder.json",
    )


def test_criterion_11_golden_section_iteration_bound():
    tol = 1e-8
    result = minimize_scalar(lambda x: (x - 2.0) ** 2, Bracket(0.0, 5.0), tol=tol)
    bound = math.ceil(math.log(tol / 5.0) / math.log(0.618)) + 2
    assert result.iterations <= bound
    report(
        11,
        f"golden-section used {result.iterations} iterations "
        f"(bound {bound})",
    )
