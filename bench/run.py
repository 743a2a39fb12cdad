"""hoopshot benchmark: CLI start-up, solver sweeps and figure rendering.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload cli_quick --seed 1 --seconds 30 --trace 0

  --trace 0  end-to-end metrics from an untraced closed loop
  --trace 1  per-layer metrics from the traced op list (see layers.json)
  --out F    also append the result, with its workload and seed, to F

Run every workload and print each end-to-end metric (per-layer ones
with --trace 1) by name and unit, with the error rate and checks:

    python3 bench/run.py --all --seed 1 --seconds 30 [--trace 1] [--out F]

Compare two result sets written with --out:

    python3 bench/run.py --compare BASE.jsonl CHANGE.jsonl

The program is taken from src/ of the checkout that holds this file;
inputs, outputs and traces live under .bench/ there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
STATE = ROOT / ".bench"
sys.path.insert(0, str(BENCH))
# in-process imports of the program cache bytecode, as the children do
sys.dont_write_bytecode = False

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, empty_snapshot, merge_snapshots  # noqa: E402

SETUP_REPEATS = 11
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 60
# ops of the workload's own pool in the traced op list (before the
# layer probe); sized so one untraced pass takes about a second
TRACE_OPS = {"cli_quick": 10, "sweep_dense": 16, "figures_fan": 6}
CHECKERS = {
    "optimize": checks.check_optimize,
    "velocity": checks.check_velocity,
    "trajectory": checks.check_trajectory,
    "sweep": checks.check_sweep_csv,
    "validate_ladder": checks.check_validate_ladder,
    "contract_probe": checks.check_contract_probe,
}
clock = time.perf_counter_ns


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def require_checkout() -> None:
    """Refuse to run anywhere but a checkout with the program's source."""
    missing = [
        str(p.relative_to(ROOT))
        for p in (SRC / "hoopshot" / "cli.py", GOLDEN / "figure_01.svg")
        if not p.is_file()
    ]
    if missing:
        print(f"not a hoopshot checkout: missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def local_ratios(op_ns: list[int], ref_ns: list[int], half_window: int = 4) -> list[float]:
    """Each op's time divided by the median of the reference tasks run
    around it (its own and `half_window` either side).  Dividing each op
    by references taken at the same time cancels the machine's slow and
    fast spells, which on a shared host move raw times by up to 1.7x
    for seconds to minutes at a time."""
    ratios = []
    for i, op in enumerate(op_ns):
        near = ref_ns[max(0, i - half_window) : i + half_window + 1]
        ratios.append(op / statistics.median(near))
    return ratios


# --- executing ops ------------------------------------------------------------


class InProcess:
    """Calls `hoopshot.cli.run` in this process with stdout captured."""

    def __init__(self) -> None:
        self.cli = None

    def load(self) -> None:
        """Import the program afresh from src/ (part of set-up)."""
        for name in [m for m in sys.modules if m == "hoopshot" or m.startswith("hoopshot.")]:
            del sys.modules[name]
        if sys.path[0] != str(SRC):
            sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("hoopshot.cli")
        if Path(self.cli.__file__).resolve().parent != SRC / "hoopshot":
            raise RuntimeError(f"imported hoopshot from {self.cli.__file__}, not src/")

    def call(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        caught = None
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaping exception is a failed op
            rc, caught = 1, exc
        elapsed = clock() - start
        if caught is not None:
            err.write("".join(traceback.format_exception(caught)))
        return rc, out.getvalue(), err.getvalue(), elapsed

    def reference(self) -> int:
        start = clock()
        cpu_reference_task()
        return clock() - start


GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


def _launch_speed(theta: float, d: float, dh: float) -> float:
    c = math.cos(theta)
    den = 2.0 * c * c * (d * math.tan(theta) - dh)
    return math.sqrt(9.8 * d * d / den) if den > 0.0 else 1e9


def cpu_reference_task() -> int:
    """Fixed stdlib work used as the yardstick for machine speed in
    op_p50_rel and op_p90_rel of the in-process workloads: golden-section
    searches over a launch-speed function, as the solver does, with each
    result formatted as a CSV row and a polyline, as sweep and render do.
    Work of the same kind slows down with the machine the way the ops do."""
    lines = []
    for k in range(12):
        d, dh = 1.0 + k, 1.35
        lo, hi = math.atan2(dh, d) + 1e-6, 1.55
        x1, x2 = hi - GOLDEN_RATIO * (hi - lo), lo + GOLDEN_RATIO * (hi - lo)
        f1, f2 = _launch_speed(x1, d, dh), _launch_speed(x2, d, dh)
        for _ in range(45):
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - GOLDEN_RATIO * (hi - lo)
                f1 = _launch_speed(x1, d, dh)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + GOLDEN_RATIO * (hi - lo)
                f2 = _launch_speed(x2, d, dh)
        points = " ".join(f"{d * i / 40:.3f},{x1 * i / 40:.3f}" for i in range(40))
        lines.append(f'<polyline points="{points}" stroke="#{k:06x}"/>')
        lines.append(f"{d:.6f},{math.degrees(x1):.6f},{f1:.6f}")
    return len("\n".join(lines))


class Children:
    """Runs the CLI in child processes and keeps each child's rusage."""

    def __init__(self, work: Path) -> None:
        # Children see no PYTHON* settings of the caller's shell (such as
        # PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED), so every machine
        # runs the CLI the way an installed one runs: bytecode cached
        # after the first call, stdout buffered.
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(SRC)
        self.env = env
        self.work = work
        self._current = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._current is not None:
            self._current.kill()

    def spawn(self, cmd: list[str]):
        """(exit code, stdout, stderr, wall ns, max RSS in KiB) of one child."""
        with open(self.work / "child.out", "w+b") as fo, open(self.work / "child.err", "w+b") as fe:
            start = clock()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, env=self.env, cwd=ROOT
            )
            self._current = proc
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                self._current = None
            elapsed = clock() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fo.seek(0)
            fe.seek(0)
            out = fo.read().decode("utf-8", "replace")
            err = fe.read().decode("utf-8", "replace")
        return proc.returncode, out, err, elapsed, usage.ru_maxrss

    def call(self, argv: list[str], trace_file: Path | None = None):
        if trace_file is None:
            return self.spawn([sys.executable, "-m", "hoopshot.cli", *argv])
        return self.spawn([sys.executable, str(BENCH / "child_trace.py"), str(trace_file), *argv])

    def reference(self) -> int:
        return self.spawn([sys.executable, "-c", "pass"])[3]


# --- one workload run ---------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = STATE / f"work-{workload}-{os.getpid()}"
        self.in_process = workload != "cli_quick"
        self.golden = {p.name: p.read_bytes() for p in sorted(GOLDEN.glob("figure_*.svg"))}
        self.errors: list[str] = []
        self.pool: list[workloads.Op] = []
        self.executor = InProcess() if self.in_process else None
        self.children = Children(self.work)

    # set-up ---------------------------------------------------------------

    def setup_once(self) -> None:
        """Everything a run needs before its first timed op."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        files, self.pool = workloads.generate(self.workload, self.seed, self.work)
        for name, text in files.items():
            (self.work / name).write_text(text, encoding="utf-8")
        if self.in_process:
            self.executor.load()
            warm = workloads.warm_up_op(self.workload, self.work)
            self.setup_results = [(warm, self.executor.call(warm.argv))]
            return
        files, figure_ops = workloads.cli_quick_setup(self.seed, self.work)
        for name, text in files.items():
            (self.work / name).write_text(text, encoding="utf-8")
        self.setup_results = [(op, self.children.call(op.argv)) for op in figure_ops]
        default_ladder = workloads.LADDER_FILES["default"](self.work)
        if default_ladder.is_file():
            workloads.LADDER_FILES["mutated"](self.work).write_text(
                workloads.mutate_ladder(default_ladder.read_text(encoding="utf-8")),
                encoding="utf-8",
            )
        warm = workloads.Op("optimize", ["optimize"], {"params": dict(workloads.DEFAULT_PARAMS)})
        self.setup_results.append((warm, self.children.call(warm.argv)))

    def setup(self) -> float:
        """Set up once and check what set-up produced; seconds taken."""
        start = clock()
        self.setup_once()
        elapsed = (clock() - start) / 1e9
        for op, result in self.setup_results:
            problem = self.check(op, result)
            if problem:
                self.errors.append(f"set-up {' '.join(op.argv)}: {problem}")
        return elapsed

    def ladder_module(self):
        """The program's ladder module, for checking written specs."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        return importlib.import_module("hoopshot.ladder")

    # ops -------------------------------------------------------------------

    def prepare(self, op: workloads.Op) -> None:
        if op.out_dir is not None:
            shutil.rmtree(op.out_dir, ignore_errors=True)

    def call(self, op: workloads.Op, trace_file: Path | None = None):
        if self.in_process:
            return self.executor.call(op.argv)
        return self.children.call(op.argv, trace_file)

    def reference(self) -> int:
        return self.executor.reference() if self.in_process else self.children.reference()

    def check(self, op: workloads.Op, result) -> str | None:
        rc, out, err = result[:3]
        try:
            if op.kind == "figures":
                golden = self.golden if op.inputs["default"] else None
                return checks.check_figures(
                    op.inputs, rc, out, err, Path(op.out_dir), golden, self.ladder_module()
                )
            return CHECKERS[op.kind](op.inputs, rc, out, err)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return f"malformed output ({type(exc).__name__}: {exc})"

    # untraced closed loop -----------------------------------------------------

    def run_loop(self) -> dict:
        # Set-up is repeated at even intervals through the run, so its
        # median samples the same machine states as the ops do; the op
        # loop's own `seconds` exclude set-up time.
        setup_times = [self.setup()]
        op_ns, ref_ns = [], []
        attempted = failed = probes = probe_failures = 0
        peak_child_kb = 0
        first_failures: list[str] = []
        start = time.monotonic()
        setup_total = 0.0
        i = 0
        while True:
            measured = time.monotonic() - start - setup_total
            if measured >= self.seconds and i > 0:
                break
            if len(setup_times) < SETUP_REPEATS * min(1.0, measured / self.seconds):
                setup_times.append(self.setup())
                setup_total += setup_times[-1]
                continue
            op = self.pool[i % len(self.pool)]
            i += 1
            self.prepare(op)
            ref_ns.append(self.reference())
            result = self.call(op)
            op_ns.append(result[3])
            if not self.in_process:
                peak_child_kb = max(peak_child_kb, result[4])
            problem = self.check(op, result)
            if op.probe:
                probes += 1
                probe_failures += problem is not None
                continue
            attempted += 1
            if problem:
                failed += 1
                if len(first_failures) < 5:
                    first_failures.append(f"{' '.join(op.argv)}: {problem}")
        if self.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = peak_child_kb
        ratios = local_ratios(op_ns, ref_ns)
        metrics = {
            "op_p50_rel": (median(ratios), "ratio"),
            "op_p90_rel": (p90(ratios), "ratio"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MiB"),
        }
        # raw times follow the host's speed, so they are shown, not gated
        raw = {
            "op_p50_ms": median(op_ns) / 1e6,
            "op_p90_ms": p90(op_ns) / 1e6,
            "ops_per_s": len(op_ns) / (sum(op_ns) / 1e9),
            "reference_ms": median(ref_ns) / 1e6,
        }
        error_rate = (failed + probe_failures) / (attempted + probes)
        notes = [
            f"samples: {len(op_ns)} ops, {len(ref_ns)} reference tasks",
            "raw (not gated): " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()),
            f"ops on documented inputs: {attempted} attempted, {failed} failed",
            f"contract probes: {probes} attempted, {probe_failures} failed",
            f"error_rate (all ops, probes included): {error_rate:.4f}",
        ]
        notes += [f"FAILED {f}" for f in first_failures + self.errors]
        return self.result(attempted, failed, metrics, notes, extra={
            "error_rate": error_rate,
            "contract_probes": probes,
            "contract_probe_failures": probe_failures,
            "op_samples": len(op_ns),
            **raw,
        })

    # traced run -----------------------------------------------------------------

    def run_traced(self) -> dict:
        self.setup()
        imports = measure_imports(self.children)
        ops = self.pool[: TRACE_OPS[self.workload]] + workloads.layer_probe(self.work)
        tracer = Tracer() if self.in_process else None
        untraced_ns, traced_ns, snapshots = [], [], []
        spans = []
        attempted = failed = 0
        deadline = time.monotonic() + self.seconds
        while time.monotonic() < deadline or len(snapshots) < 2:
            keep_spans = not snapshots
            for traced in (False, True):
                snapshot = empty_snapshot()
                if tracer is not None:
                    tracer.reset()
                    tracer.keep_spans = keep_spans
                pass_ns = 0
                for index, op in enumerate(ops):
                    self.prepare(op)
                    if not traced:
                        result = self.call(op)
                    elif tracer is not None:
                        tracer.install()
                        tracer.begin_op()
                        result = self.call(op)
                        tracer.uninstall()
                    else:
                        trace_file = self.work / "child_trace.json"
                        trace_file.unlink(missing_ok=True)
                        result = self.call(op, trace_file)
                        try:
                            child = json.loads(trace_file.read_text(encoding="utf-8"))
                        except (OSError, ValueError) as exc:
                            self.errors.append(f"no trace from {' '.join(op.argv)}: {exc}")
                            continue
                        merge_snapshots(snapshot, child["snapshot"])
                        if keep_spans:
                            spans.extend(_rebase(child["spans"], len(spans), index + 1))
                    pass_ns += result[3]
                    problem = self.check(op, result)
                    if op.probe:
                        continue
                    attempted += 1
                    if problem:
                        failed += 1
                        self.errors.append(f"{' '.join(op.argv)}: {problem}")
                if traced:
                    if tracer is not None:
                        snapshot = tracer.snapshot()
                        if keep_spans:
                            spans = list(tracer.span_rows())
                    snapshots.append(snapshot)
                    traced_ns.append(pass_ns)
                else:
                    untraced_ns.append(pass_ns)
        metrics, mismatches = layer_metrics(snapshots, len(ops), imports)
        overhead = (median(traced_ns) / median(untraced_ns) - 1.0) * 100.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        metrics["trace.counter_mismatches"] = (len(mismatches), "count")
        trace_path = STATE / "traces" / f"{self.workload}-seed{self.seed}.tsv"
        write_spans(trace_path, spans)
        notes = [
            f"traced op list: {len(ops)} ops ({len(ops) - 3} from the pool, 3 layer-probe ops)",
            f"passes: {len(snapshots)} traced, {len(untraced_ns)} untraced",
            f"spans of the first traced pass: {trace_path.relative_to(ROOT)} ({len(spans)} spans)",
        ]
        notes += [f"COUNTER NOT EXACT {m}" for m in mismatches]
        notes += [f"FAILED {e}" for e in self.errors[:10]]
        return self.result(attempted, failed, metrics, notes)

    def result(self, attempted, failed, metrics, notes, extra=None) -> dict:
        return {
            "correct": failed == 0 and not self.errors,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes,
            "extra": extra or {},
        }

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _rebase(rows, offset: int, op_id: int):
    """A child's span rows renumbered to follow the spans kept so far."""
    for index, name, start, end, parent, _ in rows:
        yield (index + offset, name, start, end, parent + offset if parent >= 0 else -1, op_id)


def write_spans(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
        for row in rows:
            fh.write("\t".join(str(f) for f in row) + "\n")


# --- per-layer metrics ---------------------------------------------------------

IMPORT_CLI = "import hoopshot.cli"
COUNT_CLI = "import sys; n = len(sys.modules); import hoopshot.cli; print(len(sys.modules) - n)"
COUNT_OPTIMIZE = (
    "import sys, io, contextlib; n = len(sys.modules); from hoopshot import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()): cli.run(['optimize'])\n"
    "print(len(sys.modules) - n)"
)


def _importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """-X importtime lines as name -> (cumulative us, indent); the first
    line per name wins.  Top-level imports have indent 1."""
    table = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        table.setdefault(raw.strip(), (int(parts[1]), len(raw) - len(raw.lstrip())))
    return table


def measure_imports(children: Children) -> dict:
    """Interpreter start, import time and module counts, from fresh
    child interpreters."""
    py = sys.executable
    start, cli_ms, render_ms, n_cli, n_opt = [], [], [], [], []
    for _ in range(IMPORT_REPEATS):
        start.append(children.spawn([py, "-c", "pass"])[3] / 1e6)
        err = children.spawn([py, "-X", "importtime", "-c", IMPORT_CLI])[2]
        table = _importtime(err)
        top = [name for name, (_, indent) in table.items() if indent == 1]
        cli_ms.append(
            sum(table[n][0] for n in top if n == "hoopshot" or n.startswith("hoopshot.")) / 1e3
        )
        err = children.spawn([py, "-X", "importtime", "-c", "import hoopshot.render"])[2]
        render_ms.append(_importtime(err).get("hoopshot.render", (0, 0))[0] / 1e3)
        n_cli.append(int(children.spawn([py, "-c", COUNT_CLI])[1]))
        n_opt.append(int(children.spawn([py, "-c", COUNT_OPTIMIZE])[1]))
    return {
        "startup.interp_ms": (median(start), "ms"),
        "import.cli_ms": (median(cli_ms), "ms"),
        "import.render_cum_ms": (median(render_ms), "ms"),
        "exact": {"import.modules_cli": n_cli, "import.modules_optimize": n_opt},
    }


MODULE_SELF = ("solver", "scalarmin", "kinematics", "figures")
EXACT_COUNTERS = (
    "solver.optimal_angle.calls",
    "solver.required_velocity.calls",
    "solver.evals_per_optimum",
    "scalarmin.minimize_scalar.calls",
    "kinematics.sample_trajectory.calls",
    "kinematics.samples",
    "figures.polyline_points",
    "render.svg_bytes",
    "render.polylines_emitted",
    "io.bytes_written",
)


def _pass_metrics(snap: dict, n_ops: int) -> dict[str, float]:
    fns = snap["functions"]
    counters = snap["counters"]
    durations = snap["durations"]

    def calls(name):
        return fns.get(name, (0, 0, 0))[0]

    def mean_of(key, scale):
        values = durations.get(key, [])
        return sum(values) / len(values) / scale if values else 0.0

    def module_ns(prefix, column):
        return sum(v[column] for name, v in fns.items() if name.startswith(prefix + "."))

    sets = counters.get("render.figure_sets", 0)
    m = {
        "cli.build_parser_us": mean_of("cli.build_parser", 1e3),
        "cli.load_scenario_us": mean_of("cli.load_scenario", 1e3),
        "solver.optimal_angle.calls": calls("solver.optimal_angle"),
        "solver.required_velocity.calls": calls("solver.required_velocity"),
        "solver.evals_per_optimum": (
            counters.get("solver.evals_in_optimum", 0) / calls("solver.optimal_angle")
            if calls("solver.optimal_angle")
            else 0.0
        ),
        "solver.sweep_csv_ms": mean_of("solver.sweep_csv", 1e6),
        "scalarmin.minimize_scalar.calls": calls("scalarmin.minimize_scalar"),
        "kinematics.sample_trajectory.calls": calls("kinematics.sample_trajectory"),
        "kinematics.samples": counters.get("kinematics.samples", 0),
        "figures.polyline_points": counters.get("figures.polyline_points", 0),
        "render.svg_ms": (
            fns.get("render.render_svg", (0, 0, 0))[1] / sets / 1e6 if sets else 0.0
        ),
        "render.svg_bytes": counters.get("render.svg_bytes", 0),
        "render.polylines_emitted": counters.get("render.polylines_emitted", 0),
        "ladder.validate_us": mean_of("ladder.validate", 1e3),
        "ladder.to_json_us": mean_of("ladder.to_json", 1e3),
        "ladder.from_json_us": mean_of("ladder.from_json", 1e3),
        "io.write_ms": (
            (fns.get("render.export_figures", (0, 0, 0))[2] + module_ns("io", 1)) / sets / 1e6
            if sets
            else 0.0
        ),
        "io.bytes_written": counters.get("io.bytes_written", 0),
    }
    for module in MODULE_SELF:
        m[f"{module}.self_ms"] = module_ns(module, 2) / n_ops / 1e6
    for k in range(1, 8):
        m[f"render.fig{k:02d}_ms"] = mean_of(f"render.fig{k:02d}", 1e6)
    return m


def layer_metrics(snapshots: list[dict], n_ops: int, imports: dict):
    """Times: median over the traced passes.  Exact counters: the first
    pass, with every later pass required to repeat it."""
    passes = [_pass_metrics(s, n_ops) for s in snapshots]
    mismatches = []
    for name in EXACT_COUNTERS:
        values = [p[name] for p in passes]
        if len(set(values)) > 1:
            mismatches.append(f"{name}: {values}")
    for name, values in imports["exact"].items():
        if len(set(values)) > 1:
            mismatches.append(f"{name}: {values}")
    units = load_units()
    metrics = {}
    for name in passes[0]:
        value = passes[0][name] if name in EXACT_COUNTERS else median([p[name] for p in passes])
        metrics[name] = (value, units[name])
    for name in ("startup.interp_ms", "import.cli_ms", "import.render_cum_ms"):
        metrics[name] = imports[name]
    for name, values in imports["exact"].items():
        metrics[name] = (values[0], units[name])
    return metrics, mismatches


def load_units() -> dict[str, str]:
    spec = load_benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}


# --- entry points ----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    require_checkout()
    run = Run(workload, seed, seconds)
    try:
        return run.run_traced() if trace else run.run_loop()
    finally:
        run.close()


def emit(result: dict, args) -> None:
    for line in result["notes"]:
        print(f"# {line}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    if args.out:
        record = dict(final, workload=args.workload, seed=args.seed, trace=args.trace,
                      extra=result["extra"])
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(final))


def run_all(args) -> int:
    """Each workload in its own interpreter; prints a table of the
    end-to-end metrics (per-layer ones with --trace 1)."""
    require_checkout()
    rows = []
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        rate = next((ln for ln in lines if ln.startswith("# error_rate")), "# error_rate ?")
        rows.append((workload, result, rate[2:]))
    for workload, result, rate in rows:
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}" + ("" if args.trace else f"; {rate}"))
        for name, m in result["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.4f} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record to this JSON-lines file")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, load_benchmark_spec())
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload, --all or --compare is required")
    emit(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)), args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
