#!/usr/bin/env python3
"""End-to-end benchmark of the DARE reproduction.

One command runs the workloads, prints every end-to-end metric with its
unit, median, quartiles and sample count, checks the outputs, and writes
``e2e_bench/results/e2e_latest.json``::

    PYTHONPATH=src python e2e_bench/e2e.py                      # all five
    python3 e2e_bench/e2e.py --workload serve --seed 7
    python3 e2e_bench/e2e.py --workload scale_10k --trace       # per-layer

Each workload runs in its own fresh subprocess (so ``ru_maxrss`` is the
workload's own), importing ``repro`` from this checkout's ``src/``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace`` the per-layer ones).  The exit code is 0 only when every
check passed; without a ``src/`` to benchmark it is 2 and nothing is
printed on standard output.

``--write-golden`` records the result digests of a default-seed run in
``golden.json`` instead of checking them.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BENCHMARK_JSON,
    CANONICAL_SEED,
    E2E_UNITS,
    GOLDEN_PATH,
    RESULTS_DIR,
    ROOT,
    SRC,
    load_json,
    src_available,
    summarize,
)

WORKLOADS = ("paper_grid", "scale_10k", "scale_100k_meso", "rollout", "serve")

#: a workload subprocess is killed (with everything it started) after this
CHILD_TIMEOUT_S = 170.0


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child(args: argparse.Namespace) -> int:
    """Run one workload in this (fresh) process; print its report as JSON."""
    import resource

    from common import use_checkout_source

    use_checkout_source()
    name = args.child
    golden = None
    if not args.write_golden:
        golden = load_json(GOLDEN_PATH).get(name, {}) if GOLDEN_PATH.is_file() else {}
    if name == "serve":
        import serve

        report = serve.run(args.seed, args.seconds, golden)
    else:
        import sim

        if args.trace:
            report = sim.run_traced(name, args.seed, args.seconds, golden,
                                    RESULTS_DIR / f"spans_{name}.json")
        else:
            report = sim.run(name, args.seed, args.seconds, golden)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report["values"]["peak_rss_mb"] = rss_mb
            report["samples"]["peak_rss_mb"] = [rss_mb]
    print(json.dumps(report))
    return 0


def _run_child(name: str, args: argparse.Namespace) -> Dict:
    """Spawn the workload's subprocess and collect its report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.write_golden:
        cmd.append("--write-golden")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # one fixed string-hash seed for the workload and every process it
    # starts: the simulator's speed depends on it (8 runs of one scale_10k
    # cell spread by 13% with a fresh seed per process, 4.5% with seed 0),
    # its results do not.  An inherited PYTHONHASHSEED is kept, so a
    # claimed gain can be cross-checked under another seed.
    env.setdefault("PYTHONHASHSEED", "0")
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _broken(f"timed out after {CHILD_TIMEOUT_S:g}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _broken(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def _broken(reason: str) -> Dict:
    return {"attempted": 1, "failed": 1, "errors": [reason], "values": {},
            "samples": {}, "golden": {"status": "unchecked", "digests": {}},
            "host_slowdown": None}


def _metrics(report: Dict, trace: bool) -> Dict[str, Dict]:
    """The contract's metric block: end-to-end, or per-layer under trace."""
    if trace:
        import layers

        values = report.get("layers", {})
        return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit, _, _ in layers.LAYER_METRICS}
    out = {}
    for name, unit in E2E_UNITS.items():
        if name in report.get("values", {}):
            out[name] = dict(summarize(report["samples"][name]),
                             value=report["values"][name], unit=unit)
    return out


def _print_table(name: str, report: Dict, metrics: Dict[str, Dict], trace: bool) -> None:
    slowdown = report["host_slowdown"]
    print(f"{name}: attempted {report['attempted']}, failed {report['failed']}, "
          f"golden {report['golden']['status']}, host slowdown "
          f"{'?' if slowdown is None else format(slowdown, '.2f')}")
    for metric, m in metrics.items():
        if trace:
            print(f"  {metric:<48s} {m['value']:>14.6g} {m['unit']}")
        else:
            print(f"  {metric:<12s} {m['value']:<12.6g} {m['unit']:<3s} samples: median "
                  f"{m['median']:<10.6g} q1 {m['q1']:<10.6g} q3 {m['q3']:<10.6g} "
                  f"n {m['n']}")
    for error in report["errors"][:10]:
        print(f"  ERROR {error}")


def _write_golden(reports: Dict[str, Dict]) -> None:
    golden = load_json(GOLDEN_PATH) if GOLDEN_PATH.is_file() else {}
    for name, report in reports.items():
        if report["golden"]["status"] == "written":
            golden[name] = report["golden"]["digests"]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all five)")
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED,
                        help=f"input seed (default {CANONICAL_SEED})")
    parser.add_argument("--seconds", type=float,
                        help="measured time per workload (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (wrappers on)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the default seed's digests in golden.json")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR / "e2e_latest.json",
                        help="where to write the result document")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_golden and args.seed != CANONICAL_SEED:
        parser.error(f"--write-golden records the default seed {CANONICAL_SEED} only")

    if args.child:
        return _child(args)
    if not src_available():
        print(f"e2e: no repro sources under {SRC}; nothing to benchmark",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_json(BENCHMARK_JSON)["run_seconds"])
    RESULTS_DIR.mkdir(exist_ok=True)

    started_at = time.time()
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = {}
    for name in names:
        report = _run_child(name, args)
        report["metrics"] = _metrics(report, bool(args.trace))
        reports[name] = report
        _print_table(name, report, report["metrics"], bool(args.trace))
    if args.write_golden:
        _write_golden(reports)

    doc = {
        "started_at": started_at,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": _git_commit(),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": reports,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    correct = all(not r["errors"] and not r["failed"] for r in reports.values())
    if len(names) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in reports.items()
                   for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                    for m, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
