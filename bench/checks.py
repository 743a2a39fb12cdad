"""Output checks against references that do not use the program's code.

Each checker takes what an op produced (exit code, stdout, stderr and,
for figure sets, the written files) and the op's inputs, and returns
None when the output is right or a one-line reason when it is not.
Checks run outside every timed interval.

References:
  required speed  v = sqrt(0.5 g d^2 / (cos^2(t) (d tan(t) + a - h)))
                  (README formula), defined above atan((h - a) / d)
  optimum         theta* = pi/4 + phi/2, v*^2 = g (sqrt(d^2 + (h-a)^2) + (h-a))
                  with phi = atan((h - a) / d)  (Brancazio 1981)
  trajectory      x = v cos(t) T, y = a + v sin(t) T - g T^2 / 2, ending at
                  the earlier of the hoop plane and the ground
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

EXIT_OK, EXIT_DOMAIN, EXIT_USAGE = 0, 1, 2
NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|inf|infinity)(?![A-Za-z])", re.I)
# SVG numeric attributes are printed with exactly 3 decimals.
SVG_NUMBER_ATTR = re.compile(
    r' (?:x|y|x1|y1|x2|y2|cx|cy|r|width|height|stroke-width|font-size)="([^"]*)"'
)
THREE_DECIMALS = re.compile(r"-?\d+\.\d{3}")
# Printed values carry 1 decimal (optimize, velocity) or 6 (CSV).
TOL_1DP = 0.05 + 1e-6
TOL_CSV_DEG = 1e-5
TOL_CSV_SPEED = 1e-5


def required_speed(a: float, d: float, h: float, g: float, angle: float) -> float | None:
    """README formula; None at or below the feasibility angle."""
    c = math.cos(angle)
    denom = c * c * (d * math.tan(angle) + a - h)
    if denom <= 0:
        return None
    return math.sqrt(0.5 * g * d * d / denom)


def optimum(a: float, d: float, h: float, g: float) -> tuple[float, float]:
    """Closed-form softest shot: (angle in degrees, speed)."""
    rise = h - a
    phi = math.atan2(rise, d)
    speed = math.sqrt(g * (math.hypot(d, rise) + rise))
    return math.degrees(math.pi / 4 + phi / 2), speed


def _common(rc: int, out: str, err: str) -> str | None:
    """Contract rules for every CLI call: exit code in {0,1,2}, no
    traceback, and no non-finite number on stdout with exit 0."""
    if rc not in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE):
        return f"exit code {rc} outside the 0/1/2 contract"
    if "Traceback (most recent call last)" in err:
        return "traceback on stderr"
    if rc == EXIT_OK and NON_FINITE.search(out):
        return "non-finite number on stdout with exit 0"
    return None


def _expect_rc(rc: int, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_optimize(inputs: dict, rc: int, out: str, err: str) -> str | None:
    problem = _common(rc, out, err) or _expect_rc(rc, EXIT_OK)
    if problem:
        return problem
    m = re.fullmatch(r"theta_opt=(\S+) deg, v_opt=(\S+) m/s\n", out)
    if not m:
        return f"unexpected optimize output {out!r}"
    angle, speed = optimum(**inputs["params"])
    if abs(float(m.group(1)) - angle) > TOL_1DP:
        return f"theta_opt {m.group(1)} deg, reference {angle:.6f} deg"
    if abs(float(m.group(2)) - speed) > TOL_1DP:
        return f"v_opt {m.group(2)} m/s, reference {speed:.6f} m/s"
    return None


def check_velocity(inputs: dict, rc: int, out: str, err: str) -> str | None:
    p = inputs["params"]
    angle_deg = inputs["angle"]
    speed = required_speed(p["a"], p["d"], p["h"], p["g"], math.radians(angle_deg))
    if speed is None:
        problem = _common(rc, out, err) or _expect_rc(rc, EXIT_DOMAIN)
        if problem:
            return problem
        if not out.startswith("INFEASIBLE"):
            return f"infeasible angle {angle_deg} printed {out!r}"
        return None
    problem = _common(rc, out, err) or _expect_rc(rc, EXIT_OK)
    if problem:
        return problem
    m = re.fullmatch(r"v=(\S+) m/s\n", out)
    if not m:
        return f"unexpected velocity output {out!r}"
    if abs(float(m.group(1)) - speed) > TOL_1DP:
        return f"v {m.group(1)} m/s, reference {speed:.6f} m/s"
    return None


def check_trajectory(inputs: dict, rc: int, out: str, err: str) -> str | None:
    problem = _common(rc, out, err) or _expect_rc(rc, EXIT_OK)
    if problem:
        return problem
    p = inputs["params"]
    a, d, g = p["a"], p["d"], p["g"]
    theta = math.radians(inputs["angle"])
    v = inputs["speed"]
    vx, vy = v * math.cos(theta), v * math.sin(theta)
    t_end = min(d / vx, (vy + math.sqrt(vy * vy + 2 * g * a)) / g)
    lines = out.splitlines()
    if not lines or lines[0] != "t,x,y":
        return "trajectory CSV header missing"
    rows = lines[1:]
    if len(rows) != inputs["samples"]:
        return f"{len(rows)} trajectory rows, expected {inputs['samples']}"
    for i, row in enumerate(rows):
        t, x, y = (float(f) for f in row.split(","))
        t_ref = t_end * i / (len(rows) - 1)
        # each printed field is rounded to 6 decimals
        tol = 1e-6 + (abs(vx) + abs(vy) + g * t_ref) * 1e-6
        if abs(t - t_ref) > 1e-6:
            return f"row {i}: t={t}, reference {t_ref:.6f}"
        if abs(x - vx * t) > tol or abs(y - (a + vy * t - 0.5 * g * t * t)) > tol:
            return f"row {i}: ({x}, {y}) off the reference trajectory"
    return None


def check_sweep_csv(inputs: dict, rc: int, out: str, err: str) -> str | None:
    problem = _common(rc, out, err) or _expect_rc(rc, EXIT_OK)
    if problem:
        return problem
    lines = out.splitlines()
    if not lines or lines[0] != "d,theta_opt_deg,v_opt,altitude":
        return "sweep CSV header missing"
    grid = inputs["grid"]
    h, g = inputs["params"]["h"], inputs["params"]["g"]
    expected = [(alt, d) for alt in inputs["altitudes"] for d in grid]
    rows = lines[1:]
    if len(rows) != len(expected):
        return f"{len(rows)} sweep rows, expected {len(expected)}"
    for row, (alt, d) in zip(rows, expected):
        fields = row.split(",")
        if len(fields) != 4:
            return f"malformed sweep row {row!r}"
        d_out, theta_out, v_out, alt_out = (float(f) for f in fields)
        if abs(d_out - d) > 1e-6 or abs(alt_out - alt) > 1e-6:
            return f"sweep row {row!r} is not (d={d}, altitude={alt})"
        angle, speed = optimum(alt, d, h, g)
        if abs(theta_out - angle) > TOL_CSV_DEG:
            return f"theta_opt {theta_out} deg at d={d}, a={alt}; reference {angle:.6f}"
        if abs(v_out - speed) > TOL_CSV_SPEED * max(1.0, speed):
            return f"v_opt {v_out} at d={d}, a={alt}; reference {speed:.6f}"
    return None


def check_validate_ladder(inputs: dict, rc: int, out: str, err: str) -> str | None:
    want = inputs["violations"]
    problem = _common(rc, out, err) or _expect_rc(rc, EXIT_OK if want == 0 else EXIT_DOMAIN)
    if problem:
        return problem
    lines = out.splitlines()
    if not lines or lines[0] != f"{want} violations":
        return f"validate-ladder printed {lines[:1]}, expected '{want} violations'"
    if want and (len(lines) < 2 or not lines[1].startswith(inputs["first_kind"])):
        return f"first violation {lines[1:2]}, expected {inputs['first_kind']}"
    return None


def check_contract_probe(inputs: dict, rc: int, out: str, err: str) -> str | None:
    """Inputs that break the documented contract must end in exit 2
    with a message, no traceback and nothing non-finite on stdout."""
    return _common(rc, out, err) or _expect_rc(rc, EXIT_USAGE)


def check_svg_text(data: bytes) -> str | None:
    """Structure every rendered figure must have."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return "figure is not UTF-8"
    if not text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg '):
        return "figure does not start with the XML declaration and <svg>"
    if not text.endswith("</svg>\n"):
        return "figure does not end with </svg>"
    for value in SVG_NUMBER_ATTR.findall(text):
        if not THREE_DECIMALS.fullmatch(value):
            return f"numeric attribute {value!r} is not printed with 3 decimals"
    if NON_FINITE.search(text):
        return "non-finite value in figure"
    return None


def check_ladder_json(text: str, hoopshot_ladder) -> str | None:
    """The written spec round-trips byte for byte and has 0 violations.
    `hoopshot_ladder` is the program's ladder module, untraced."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"ladder.json is not JSON: {exc}"
    if json.dumps(doc, indent=2, sort_keys=True) != text:
        return "ladder.json is not in canonical form"
    spec = hoopshot_ladder.ladder_from_json(text)
    if hoopshot_ladder.ladder_to_json(spec) != text:
        return "ladder.json does not round-trip"
    violations = hoopshot_ladder.validate_ladder(spec)
    if violations:
        return f"ladder.json has {len(violations)} violations"
    return None


def check_figures(
    inputs: dict,
    rc: int,
    out: str,
    err: str,
    out_dir: Path,
    golden: dict[str, bytes] | None,
    hoopshot_ladder,
) -> str | None:
    """A figure set: 7 SVGs and ladder.json listed on stdout, each SVG
    well formed, the default scenario byte-equal to the golden files,
    the fan labels and the stage captions' numbers right."""
    problem = _common(rc, out, err) or _expect_rc(rc, EXIT_OK)
    if problem:
        return problem
    names = [f"figure_{i:02d}.svg" for i in range(1, 8)] + ["ladder.json"]
    listed = [Path(line).name for line in out.splitlines()]
    if listed != names:
        return f"figures listed {listed}"
    svgs = {}
    for name in names[:-1]:
        try:
            svgs[name] = (out_dir / name).read_bytes()
        except OSError as exc:
            return f"cannot read {name}: {exc}"
        problem = check_svg_text(svgs[name])
        if problem:
            return f"{name}: {problem}"
    if golden is not None:
        for name, want in golden.items():
            if svgs[name] != want:
                return f"{name} differs from the golden file"
    fan = svgs["figure_02.svg"].decode("utf-8")
    for v in inputs["velocities"]:
        if f'fill="#CC0000">{v:g}</text>' not in fan:
            return f"figure_02.svg lacks the label for {v:g} m/s"
    text = (out_dir / "ladder.json").read_text(encoding="utf-8")
    problem = check_ladder_json(text, hoopshot_ladder)
    if problem:
        return problem
    return _check_captions(json.loads(text), inputs["params"])


def _check_captions(doc: dict, p: dict) -> str | None:
    captions = {stage["id"]: stage["caption"] for stage in doc["stages"]}
    m = re.search(r"reaches the hoop at (\S+) m/s", captions.get(3, ""))
    speed = required_speed(p["a"], p["d"], p["h"], p["g"], math.radians(30.0))
    if not m or speed is None or abs(float(m.group(1)) - speed) > TOL_1DP:
        return f"stage 3 caption {captions.get(3)!r}, reference speed {speed}"
    m = re.search(r"minimized at (\S+) deg, where (\S+) m/s", captions.get(4, ""))
    angle, v_opt = optimum(**p)
    if (
        not m
        or abs(float(m.group(1)) - angle) > TOL_1DP
        or abs(float(m.group(2)) - v_opt) > TOL_1DP
    ):
        return f"stage 4 caption {captions.get(4)!r}, reference {angle:.3f} deg {v_opt:.3f} m/s"
    return None
