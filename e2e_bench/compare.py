#!/usr/bin/env python3
"""Compare runs of a parent commit and a change, one verdict per workload.

    python3 e2e_bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result documents of one side, written
by ``e2e.py --out DIR/NAME.json``.  Runs are paired in start order; the
two sides must have been run alternately, and every run must have
measured for the same number of seconds.  For every end-to-end metric in
``BENCHMARK.json`` on every workload, and for serve's client-side
:data:`SERVE_GATES`:

* fewer than :data:`MIN_PAIRS` pairs, or runs not alternated: unresolved;
* the change's median worse than the parent's by more than the metric's
  bound: **regressed**;
* the parent's own spread (interquartile range over median) wider than
  the bound: unresolved, unless every change run beats every parent run;
* the change wins at least :data:`WIN_SHARE` of all pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range: **improved**;
* otherwise: **no-change**.

A workload whose change runs failed more operations than its parent runs
is **regressed**, whatever its timings say.  A workload's row takes its
worst verdict (regressed, then unresolved, then improved).  Any result
digest that differs between runs of the same seed fails the comparison.
Exit code 1 on a regression, a digest difference or runs of different
lengths, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import BENCHMARK_JSON, load_json, median, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9
ORDER = ("regressed", "unresolved", "improved", "no-change")

#: serve's client-side numbers, gated beside the end-to-end metrics:
#: name -> (better, bound).  They exist on serve only, so BENCHMARK.json
#: lists them as per-layer metrics, which carry no bound.
SERVE_GATES: Dict[str, Tuple[str, float]] = {
    "server.jobs_per_s": ("higher", 0.10),
    "server.job_p50_ms": ("lower", 0.10),
    "server.job_p90_ms": ("lower", 0.10),
}


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, str]:
    """One metric's verdict and a short reason, from paired samples."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "unresolved", f"{n} pairs < {MIN_PAIRS}"
    sign = 1.0 if better == "lower" else -1.0
    parent, change = list(parent[:n]), list(change[:n])
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = median(parent), median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    tally = f"{wins} wins, {losses} losses of {n}"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regressed", f"median worse by more than {bound:.0%}; {tally}"
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if iqr > bound * abs(p_med) and not every_run_better:
        return "unresolved", f"parent spread {iqr / abs(p_med):.1%} > bound {bound:.0%}"
    if wins >= WIN_SHARE * n and sign * (c_med - p_med) < 0 and abs(c_med - p_med) > iqr:
        return "improved", tally
    return "no-change", tally


def alternated(parent_starts: Sequence[float], change_starts: Sequence[float]) -> bool:
    """True when, in start order, every consecutive pair has one run per side."""
    runs = sorted([(t, "p") for t in parent_starts] + [(t, "c") for t in change_starts])
    return all(runs[k][1] != runs[k + 1][1] for k in range(0, len(runs) - 1, 2))


def load_runs(directory: Path) -> List[Dict]:
    """The untraced result documents in ``directory``, in start order."""
    docs = [load_json(path) for path in sorted(directory.glob("*.json"))]
    return sorted((d for d in docs if not d.get("trace")), key=lambda d: d["started_at"])


def digest_differences(parent: List[Dict], change: List[Dict]) -> List[str]:
    """Cells whose digest differs between the two sides at the same seed."""
    seen: Dict[Tuple[str, str, str], str] = {}
    problems = []
    for doc in parent + change:
        for workload, report in doc["workloads"].items():
            for seed, cells in report.get("digests", {}).items():
                for label, digest in cells.items():
                    key = (workload, seed, label)
                    if seen.setdefault(key, digest) != digest:
                        problems.append(f"{workload} seed {seed} {label}")
    return sorted(set(problems))


def _value(report: Dict, name: str) -> Optional[float]:
    """An end-to-end metric of a workload report, or one of its layers'."""
    if name in report.get("metrics", {}):
        return report["metrics"][name]["value"]
    return report.get("layers", {}).get(name)


def _gates(workload: str, spec: Dict) -> List[Tuple[str, str, float]]:
    gates = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if workload == "serve":
        gates += [(name, better, bound) for name, (better, bound) in SERVE_GATES.items()]
    return gates


def compare(parent: List[Dict], change: List[Dict], spec: Dict) -> Tuple[Dict, List[str]]:
    """Per-workload verdicts and digest differences.

    Returns ``({workload: (row verdict, [metric lines])}, [differences])``.
    """
    lengths = {d["seconds"] for d in parent + change}
    if len(lengths) > 1:
        raise ValueError(f"runs measured for different lengths: {sorted(lengths)} s")
    ok_order = alternated([d["started_at"] for d in parent],
                          [d["started_at"] for d in change])
    workloads = sorted({w for d in parent + change for w in d["workloads"]})
    rows = {}
    for workload in workloads:
        reports = [[d["workloads"][workload] for d in side if workload in d["workloads"]]
                   for side in (parent, change)]
        lines, labels = [], []
        failed = [sum(r["failed"] for r in side) for side in reports]
        if failed[1] > failed[0]:
            labels.append("regressed")
            lines.append(f"  {'failed':<18s} regressed   parent {failed[0]}  "
                         f"change {failed[1]}  (more failed operations)")
        for name, better, bound in _gates(workload, spec):
            values = [[v for v in (_value(r, name) for r in side) if v is not None]
                      for side in reports]
            if ok_order:
                label, why = verdict(values[0], values[1], better, bound)
            else:
                label, why = "unresolved", "runs were not alternated"
            labels.append(label)
            p = values[0] or [float("nan")]
            c = values[1] or [float("nan")]
            lines.append(f"  {name:<18s} {label:<11s} parent {median(p):.6g} "
                         f"[{quartiles(p)[0]:.6g}, {quartiles(p)[1]:.6g}]  change "
                         f"{median(c):.6g} [{quartiles(c)[0]:.6g}, {quartiles(c)[1]:.6g}]"
                         f"  ({why})")
        rows[workload] = (min(labels, key=ORDER.index), lines)
    return rows, digest_differences(parent, change)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory of parent runs")
    parser.add_argument("change", type=Path, help="directory of change runs")
    args = parser.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    try:
        rows, mismatches = compare(parent, change, load_json(BENCHMARK_JSON))
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    print(f"{len(parent)} parent runs, {len(change)} change runs")
    for workload, (row, lines) in rows.items():
        print(f"{workload:<18s} {row}")
        for line in lines:
            print(line)
    for problem in mismatches:
        print(f"DIGEST DIFFERS: {problem}")
    failed = mismatches or any(row == "regressed" for row, _ in rows.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
