"""Compare two result sets written by `run.py --out`.

For each workload and metric it prints each side's median and
quartiles and a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side, at least 10 pairs) and the medians differ,
              in the better direction, by more than the base's
              interquartile range
  regressed   the change's median is worse than the base's by more than
              the metric's bound (end-to-end metrics), or, for per-layer
              metrics, the base wins 9 of 10 pairs by more than its
              interquartile range
  unresolved  the spread between runs is wider than the bound and not
              every change run beats every base run, or a gain that
              rests on fewer than 10 pairs
  unchanged   otherwise

Runs pair up by seed (runs of one seed pair in order; with no seed in
common, all runs pair in order); exact counters that differ between
runs of the same seed are flagged.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

COUNT_UNITS = ("count", "bytes")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """(workload, trace) -> list of records, in file order."""
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    by_seed = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, change)):
        for r in records:
            by_seed[r["seed"]][side].append(r["metrics"][metric]["value"])
    out = []
    for b_values, c_values in by_seed.values():
        out.extend(zip(b_values, c_values))
    if not out:  # no seed in common: pair the runs in order
        out = [
            (b["metrics"][metric]["value"], c["metrics"][metric]["value"])
            for b, c in zip(base, change)
        ]
    return out


def verdict(b: list[float], c: list[float], matched, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(b)
    c_q1, c_med, c_q3 = quartiles(c)
    gain = sign * (c_med - b_med)
    wins = sum(1 for x, y in matched if sign * (y - x) > 0)
    losses = sum(1 for x, y in matched if sign * (y - x) < 0)
    n = len(matched)
    if wins >= WIN_SHARE * n > 0 and gain > b_q3 - b_q1:
        return "improved" if n >= MIN_PAIRS else "unresolved"
    if bound is None:
        if losses >= WIN_SHARE * n > 0 and -gain > b_q3 - b_q1:
            return "regressed"
        return "unchanged" if abs(gain) <= b_q3 - b_q1 else "unresolved"
    scale = abs(b_med) or 1.0
    if -gain / scale > bound:
        return "regressed"
    spread = max((b_q3 - b_q1) / scale, (c_q3 - c_q1) / (abs(c_med) or 1.0))
    all_better = min(sign * y for y in c) > max(sign * x for x in b)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def inexact_counters(records: list[dict], metrics: list[dict]) -> list[str]:
    flagged = []
    for m in metrics:
        if m["unit"] not in COUNT_UNITS:
            continue
        by_seed = defaultdict(set)
        for r in records:
            by_seed[r["seed"]].add(r["metrics"][m["name"]]["value"])
        for seed, values in by_seed.items():
            if len(values) > 1:
                flagged.append(f"{m['name']} (seed {seed}): {sorted(values)}")
    return flagged


def main(base_path: str, change_path: str, spec: dict) -> int:
    base, change = load(base_path), load(change_path)
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        kind = "per-layer (traced)" if trace else "end-to-end"
        print(f"== {workload}: {kind}; {len(b_runs)} base runs, {len(c_runs)} change runs")
        for side, runs in (("base", b_runs), ("change", c_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            probe_failures = sum(r["extra"].get("contract_probe_failures", 0) for r in runs)
            print(f"   {side}: {attempted} ops attempted, {failed} failed, "
                  f"{probe_failures} contract-probe failures, "
                  f"{sum(not r['correct'] for r in runs)} runs not correct")
            for flag in inexact_counters(runs, metrics):
                print(f"   {side}: COUNTER NOT EXACT {flag}")
        print(f"   {'metric':<34} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'wins':>6}  verdict")
        for m in metrics:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            matched = pairs(b_runs, c_runs, name)
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for x, y in matched if sign * (y - x) > 0)
            bq, cq = quartiles(b), quartiles(c)
            print(
                f"   {name:<34} {bq[1]:>12.4f} [{bq[0]:.4f}, {bq[2]:.4f}]"
                f" {cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {wins:>3}/{len(matched):<3}"
                f" {verdict(b, c, matched, m['better'], m.get('bound'))}"
            )
        if sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in b_runs):
            print("   more ops fail on the change than on the base: no gain counts")
    return 0
