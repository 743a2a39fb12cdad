"""Span tracer installed from outside the program under test.

`Tracer.install()` replaces every public function of the hoopshot
modules with a timing wrapper, at every module attribute bound to it,
so names imported with `from ... import` are covered too.  Each call
records a span (name, start, end, parent span, op id) and a call count
in memory; self time (span time minus the time its child spans cover)
is accumulated online.  `uninstall()` puts the original functions back,
so output checks run on untraced code.

Writes through `pathlib.Path.write_text`/`write_bytes` are traced as
the pseudo-module `io`, so file output is measured where it happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import sys
import time

MODULES = (
    "cli",
    "solver",
    "scalarmin",
    "kinematics",
    "figures",
    "ladder",
    "render",
)
IO_METHODS = ("write_text", "write_bytes")


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    """Spans and counts for the calls into each module's public functions.

    Span tuples are (name_id, start_ns, end_ns, parent_index, op_id);
    parent_index is -1 for a root span.  Spans are kept only while
    `keep_spans` is true, so a long run can keep counting without
    growing without bound.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {}
        self.spans: list = []
        self.keep_spans = True
        self.op_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers: dict[int, object] = {}
        self._nids: dict[str, set[int]] = {}
        self._render_index = 0

    # --- bookkeeping ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        nid = len(self.names) - 1
        self._nids.setdefault(name, set()).add(nid)
        return nid

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def begin_op(self) -> None:
        self.op_id += 1
        self._render_index = 0

    def _wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        stack = self._stack
        spans = self.spans
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = -1
            if tracer.keep_spans:
                index = len(spans)
                spans.append(None)
            frame = [0, index, nid, clock()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[3]
                calls[nid] += 1
                total_ns[nid] += dur
                self_ns[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if index >= 0:
                    spans[index] = (nid, frame[3], end, parent, tracer.op_id)
            if hook is not None:
                # hook time is bench work: keep it out of the caller's self time
                hook_start = clock()
                hook(tracer, args, kwargs, result, dur)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result

        return wrapper

    def is_open(self, name: str) -> bool:
        """Whether a span of `name` encloses the current call."""
        nids = self._nids.get(name, ())
        return any(frame[2] in nids for frame in self._stack)

    # --- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Wrap every public function, wherever a hoopshot module binds it."""
        if self._patches:
            return
        replacements = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"hoopshot.{short}")
            except ModuleNotFoundError:
                continue  # a layer that no longer exists reads 0
            for name, fn in _public_functions(module):
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrap(
                        fn, f"{short}.{name}", HOOKS.get(f"{short}.{name}")
                    )
                replacements[id(fn)] = (fn, self._wrappers[id(fn)])
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hoopshot" and not mod_name.startswith("hoopshot."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
        for method in IO_METHODS:
            original = getattr(pathlib.Path, method)
            if id(original) not in self._wrappers:
                self._wrappers[id(original)] = self._wrap(
                    original, f"io.{method}", _io_hook
                )
            self._patches.append(
                (pathlib.Path, method, original, self._wrappers[id(original)])
            )
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data: per-function calls, total and self
        time, the named counters and the per-call duration lists."""
        functions = {}
        for nid, name in enumerate(self.names):
            if self.calls[nid]:
                entry = functions.setdefault(name, [0, 0, 0])
                entry[0] += self.calls[nid]
                entry[1] += self.total_ns[nid]
                entry[2] += self.self_ns[nid]
        return {
            "functions": functions,
            "counters": dict(self.counters),
            "durations": {k: list(v) for k, v in self.durations.items()},
        }

    def reset(self) -> None:
        """Zero the aggregates; keep installed wrappers and name ids."""
        for nid in range(len(self.names)):
            self.calls[nid] = self.total_ns[nid] = self.self_ns[nid] = 0
        self.counters.clear()
        self.durations.clear()
        self.spans.clear()

    def span_rows(self):
        """Kept spans as (index, name, start_ns, end_ns, parent, op)."""
        for index, span in enumerate(self.spans):
            if span is not None:
                nid, start, end, parent, op = span
                yield (index, self.names[nid], start, end, parent, op)


def merge_snapshots(into: dict, other: dict) -> None:
    for name, (calls, total, self_t) in other["functions"].items():
        entry = into["functions"].setdefault(name, [0, 0, 0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_t
    for key, value in other["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value
    for key, values in other["durations"].items():
        into["durations"].setdefault(key, []).extend(values)


def empty_snapshot() -> dict:
    return {"functions": {}, "counters": {}, "durations": {}}


# --- per-function hooks: counts that need the arguments or the result ---


def _record(tracer: Tracer, key: str, dur: int) -> None:
    tracer.durations.setdefault(key, []).append(dur)


def _required_velocity_hook(tracer, args, kwargs, result, dur):
    if tracer.is_open("solver.optimal_angle"):
        tracer.count("solver.evals_in_optimum")


def _sample_trajectory_hook(tracer, args, kwargs, result, dur):
    tracer.count("kinematics.samples", len(result.samples))


def _polyline_hook(tracer, args, kwargs, result, dur):
    if tracer.is_open("figures.build_basketball_ladder"):
        tracer.count("figures.polyline_points", len(result.points))


def _render_svg_hook(tracer, args, kwargs, result, dur):
    tracer._render_index += 1
    _record(tracer, f"render.fig{tracer._render_index:02d}", dur)
    tracer.count("render.svg_bytes", len(result))
    tracer.count("render.polylines_emitted", result.count(b"<polyline "))


def _export_figures_hook(tracer, args, kwargs, result, dur):
    tracer.count("render.figure_sets")


def _io_hook(tracer, args, kwargs, result, dur):
    data = args[1] if len(args) > 1 else kwargs["data"]
    size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
    tracer.count("io.bytes_written", size)


def _per_call(key: str):
    def hook(tracer, args, kwargs, result, dur):
        _record(tracer, key, dur)

    return hook


HOOKS = {
    "solver.required_velocity": _required_velocity_hook,
    "kinematics.sample_trajectory": _sample_trajectory_hook,
    "render.polyline": _polyline_hook,
    "render.render_svg": _render_svg_hook,
    "render.export_figures": _export_figures_hook,
    "cli.build_parser": _per_call("cli.build_parser"),
    "cli.load_scenario": _per_call("cli.load_scenario"),
    "solver.sweep_csv": _per_call("solver.sweep_csv"),
    "ladder.validate_ladder": _per_call("ladder.validate"),
    "ladder.ladder_to_json": _per_call("ladder.to_json"),
    "ladder.ladder_from_json": _per_call("ladder.from_json"),
}
