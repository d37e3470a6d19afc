"""Machine-readable performance benchmark with a CI regression gate.

Measures the simulator's headline numbers — engine event throughput,
cancel-churn cost, NameNode locality queries, the ElephantTrap update,
one timed end-to-end sweep cell, checkpoint snapshot/restore cost, the
fork-vs-cold wall-clock of a prefix-shared what-if grid, and the rollout
engine's epoch fork-score-apply loop — and writes them as JSON::

    PYTHONPATH=src python benchmarks/run_bench.py --out BENCH_latest.json
    PYTHONPATH=src python benchmarks/run_bench.py --check benchmarks/baseline.json

``--check`` exits non-zero when any metric's wall time regresses more than
``BENCH_TOLERANCE`` (default 0.25, i.e. 25%) over the committed baseline,
or when the prefix-sharing speedup of the what-if grid drops below
``MIN_FORK_SPEEDUP``; this is the CI performance budget.
Faster-than-baseline is always fine.
``--write-baseline`` refreshes the committed baseline after an intentional
change (run on a quiet machine, then commit the file); it merges into the
existing baseline, so the core and ``--scale`` sets can be refreshed
independently.

``--scale`` switches to the node-count scaling benches
(``scale_100`` .. ``scale_100k_meso``): one fixed 30-job trace per N with
end-to-end events/sec and peak RSS, each N in its own subprocess so
``ru_maxrss`` is per-configuration.  Under ``--check`` the 10k-node run
must also hold a >= ``MIN_SCALE_10K_SPEEDUP`` events/sec improvement over
the committed pre-sharding reference, and ``--scale-svg`` renders the
scaling curve via :mod:`repro.viz`.

Stdlib-only by design (``time.perf_counter`` best-of-N) so the gate does
not depend on pytest-benchmark being installed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from typing import Callable, Dict, Tuple

import numpy as np

#: allowed fractional wall-time regression before --check fails
TOLERANCE = float(os.environ.get("BENCH_TOLERANCE", "0.25"))

#: minimum fork-vs-cold speedup the prefix-sharing sweep path must keep
MIN_FORK_SPEEDUP = float(os.environ.get("BENCH_MIN_FORK_SPEEDUP", "2.0"))

#: pre-PR reference for the engine throughput bench (seconds, best-of-N on
#: the machine that recorded benchmarks/baseline.json); kept so the JSON
#: artifact documents the optimization this budget protects
PRE_OPTIMIZATION_ENGINE_S = 0.0092

#: the node-count scaling benches: one fixed-seed 30-job WL1 trace per N.
#: ``lite`` is the event-accurate O(N) path (per-node network model, one
#: heartbeat event per node), ``meso`` adds per-rack heartbeat hubs with
#: idle-node pooling (the only feasible mode at 100k nodes)
SCALE_BENCHES: Tuple[Tuple[str, int, str], ...] = (
    ("scale_100", 100, "lite"),
    ("scale_1k", 1_000, "lite"),
    ("scale_10k", 10_000, "lite"),
    ("scale_100k_meso", 100_000, "meso"),
)

#: trace length of every scaling bench (events scale with N, not jobs)
SCALE_JOBS = 30

#: end-to-end events/sec of the 10k-node lite run *before* the NameNode
#: sharding + array-backed store rework (same machine as the committed
#: baseline; per-pair bandwidth matrix, per-object dict hot paths)
PRE_SHARDING_10K_EVENTS_PER_S = 5_589.0

#: minimum events/sec improvement scale_10k must hold over that reference
MIN_SCALE_10K_SPEEDUP = float(os.environ.get("BENCH_MIN_SCALE_10K_SPEEDUP", "5.0"))

#: serial rollout overhead over the host cell *before* the incremental
#: snapshot + parallel fork-scoring rework (policy_rollout_fork_grid on
#: the machine that recorded benchmarks/baseline.json)
PRE_PARALLEL_ROLLOUT_OVERHEAD_X = 16.17

#: worker count used by the parallel rollout bench and its CI gate
ROLLOUT_BENCH_JOBS = 4

#: minimum parallel-over-serial rollout speedup at ROLLOUT_BENCH_JOBS
MIN_ROLLOUT_SPEEDUP = float(os.environ.get("BENCH_MIN_ROLLOUT_SPEEDUP", "2.0"))

#: maximum rollout-over-host overhead at ROLLOUT_BENCH_JOBS
MAX_ROLLOUT_OVERHEAD = float(os.environ.get("BENCH_MAX_ROLLOUT_OVERHEAD", "6.0"))


def best_of(fn: Callable[[], object], rounds: int) -> float:
    """Minimum wall time of ``rounds`` calls (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


# -- the measured workloads ---------------------------------------------------


def bench_engine_throughput() -> Dict[str, float]:
    """10k chained events — mirrors test_engine_event_throughput."""
    from repro.simulation.engine import Engine

    def run():
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                engine.schedule_in(1.0, tick)

        engine.schedule(0.0, tick)
        engine.run()
        assert count[0] == 10_000

    wall = best_of(run, rounds=20)
    return {"wall_s": wall, "events_per_sec": 10_000 / wall}


def bench_cancel_churn() -> Dict[str, float]:
    """Speculation-style churn: 7 of every 8 scheduled events cancelled."""
    from repro.simulation.engine import Engine

    def run():
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 2_000:
                copies = [engine.schedule_in(1.0 + i, tick) for i in range(8)]
                for ev in copies[1:]:
                    engine.cancel(ev)

        engine.schedule(0.0, tick)
        engine.run()
        assert count[0] == 2_000

    wall = best_of(run, rounds=10)
    return {"wall_s": wall, "events_per_sec": 2_000 / wall}


def bench_locality_queries() -> Dict[str, float]:
    """Scheduler-style is_local scans over a 200-block file."""
    from repro.cluster.cluster import CCT_SPEC, Cluster
    from repro.hdfs.block import DEFAULT_BLOCK_SIZE
    from repro.hdfs.namenode import NameNode
    from repro.simulation.rng import RandomStreams

    cluster = Cluster(CCT_SPEC, RandomStreams(3))
    nn = NameNode(cluster)
    f = nn.create_file("data", 200 * DEFAULT_BLOCK_SIZE)
    block_ids = [b.block_id for b in f.blocks]

    def run():
        hits = 0
        for node in range(1, 20):
            for bid in block_ids:
                if nn.is_local(bid, node):
                    hits += 1
        assert hits == 3 * 200

    wall = best_of(run, rounds=20)
    return {"wall_s": wall, "queries_per_sec": 19 * 200 / wall}


def bench_elephant_trap() -> Dict[str, float]:
    """Trap lifecycle: adds, accesses, eviction walks."""
    from repro.core.elephant_trap import ElephantTrapPolicy
    from repro.hdfs.block import DEFAULT_BLOCK_SIZE
    from repro.hdfs.inode import INode

    blocks = INode(0, "f").allocate_blocks(64 * DEFAULT_BLOCK_SIZE, 0)
    other = INode(1, "g").allocate_blocks(8 * DEFAULT_BLOCK_SIZE, 100)

    def run():
        et = ElephantTrapPolicy(0.3, 1, random.Random(7))
        for b in blocks[:32]:
            et.add(b)
        for i in range(2000):
            et.on_local_access(blocks[i % 32])
            if i % 10 == 0:
                victim = et.pick_victim(other[i % 8])
                if victim is not None:
                    et.remove(victim.block_id)
                    et.add(blocks[32 + (i // 10) % 32])

    wall = best_of(run, rounds=10)
    return {"wall_s": wall}


def bench_e2e_cell(n_jobs: int) -> Dict[str, float]:
    """One end-to-end sweep cell: fair + ElephantTrap on WL1."""
    from repro.core.config import DareConfig
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.workloads.swim import synthesize_wl1

    rng = np.random.default_rng(20110926)
    workload = synthesize_wl1(rng, n_jobs=n_jobs)
    config = ExperimentConfig(
        scheduler="fair", dare=DareConfig.elephant_trap(), seed=20110926
    )

    best_wall = float("inf")
    events = 0
    for _ in range(3):
        result = run_experiment(config, workload)
        events = result.events_processed
        if result.engine_wall_s < best_wall:
            best_wall = result.engine_wall_s
    return {
        "wall_s": best_wall,
        "events": float(events),
        "events_per_sec": events / best_wall,
        "n_jobs": float(n_jobs),
    }


def bench_snapshot_restore(n_jobs: int) -> Dict[str, float]:
    """Freeze/thaw cost of a mid-flight simulation at half makespan."""
    from repro.checkpoint import snapshot as take_snapshot
    from repro.core.config import DareConfig
    from repro.experiments.runner import (
        ExperimentConfig,
        Simulation,
        make_tracer,
        run_experiment,
    )
    from repro.workloads.swim import synthesize_wl1

    config = ExperimentConfig(
        scheduler="fair", dare=DareConfig.elephant_trap(), seed=20110926
    )
    workload = synthesize_wl1(np.random.default_rng(20110926), n_jobs=n_jobs)
    makespan = run_experiment(config, workload).makespan_s

    sim = Simulation(config, workload, tracer=make_tracer(config))
    sim.run(until=makespan / 2)
    snapshot_s = best_of(lambda: take_snapshot(sim), rounds=10)
    snap = take_snapshot(sim)
    sim.close()
    restore_s = best_of(lambda: snap.restore().close(), rounds=10)
    return {
        "wall_s": snapshot_s + restore_s,
        "snapshot_s": snapshot_s,
        "restore_s": restore_s,
        "snapshot_bytes": float(len(snap.payload) + len(snap.static_payload)),
    }


def bench_fork_vs_cold(n_jobs: int) -> Dict[str, float]:
    """Prefix-shared what-if grid vs re-simulating every cell from zero.

    Ten variants of one base run diverge at 90% of its makespan — the
    late-divergence shape of a what-if grid ("same morning, different
    afternoon").  The shared path simulates the common prefix once and
    forks it, the cold path replays it per cell.  The measured speedup
    backs the >= 2x claim gated by ``MIN_FORK_SPEEDUP`` under ``--check``.
    """
    from repro.core.config import DareConfig
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.experiments.sweep import (
        ForkCell,
        WorkloadSpec,
        results_of,
        run_fork_cells,
    )

    config = ExperimentConfig(
        scheduler="fair", dare=DareConfig.greedy_lru(), seed=20110926
    )
    spec = WorkloadSpec("wl1", n_jobs=n_jobs, seed=20110926)
    makespan = run_experiment(config, spec.materialize()).makespan_s
    patches = ("", "policy:et", "policy:lfu", "policy:off",
               "pin:1:5", "pin:2:6", "pin:3:7", "pin:4:8",
               "pin:5:9", "pin:6:10")
    cells = [
        ForkCell(config, spec, fork_time=0.9 * makespan, patch=p, tag=f"v{i}")
        for i, p in enumerate(patches)
    ]

    def timed(share_prefix: bool) -> float:
        t0 = time.perf_counter()
        results_of(run_fork_cells(cells, share_prefix=share_prefix))
        return time.perf_counter() - t0

    shared_s = min(timed(True) for _ in range(2))
    cold_s = min(timed(False) for _ in range(2))
    return {
        "wall_s": shared_s,
        "cold_wall_s": cold_s,
        "speedup": cold_s / shared_s,
        "n_cells": float(len(cells)),
    }


def bench_policy_rollout_fork_grid() -> Dict[str, float]:
    """The rollout engine's epoch fork-score-apply loop on one pinned cell.

    Times ``repro run --policy rollout``'s hot path — snapshot the live
    run at every decision epoch, fork one branch per candidate action,
    run each fork to completion, apply strict improvements — on the
    policy benchmark's pinned smoke cell (WL1 x 32 jobs, seed 7), and
    reports the overhead over the plain greedy-LRU host cell.
    """
    from repro.experiments.runner import run_experiment
    from repro.policies.bench import SMOKE_JOBS, bench_config
    from repro.workloads.swim import synthesize_wl1

    workload = synthesize_wl1(np.random.default_rng(7), n_jobs=SMOKE_JOBS)
    rollout_config = bench_config("rollout")
    host_config = bench_config("greedy-lru")

    rollout_s = best_of(lambda: run_experiment(rollout_config, workload), rounds=3)
    host_s = best_of(lambda: run_experiment(host_config, workload), rounds=3)
    result = run_experiment(rollout_config, workload)
    return {
        "wall_s": rollout_s,
        "host_wall_s": host_s,
        "overhead_x": rollout_s / host_s,
        "rollout_bytes": float(result.traffic_bytes.get("rollout", 0)),
        "n_jobs": float(SMOKE_JOBS),
    }


def bench_policy_rollout_parallel() -> Dict[str, float]:
    """Parallel vs serial fork scoring on the pinned rollout bench cell.

    Runs the same cell as :func:`bench_policy_rollout_fork_grid` three
    ways — serial (``jobs=1``), parallel (``jobs=ROLLOUT_BENCH_JOBS``),
    and the plain greedy-LRU host — and reports the parallel speedup and
    the remaining overhead over the host.  Decisions and traces are
    byte-identical between the serial and parallel runs (the CI
    ``policy-bench`` job ``cmp``-gates that separately); this bench gates
    only the wall clock.  The speedup/overhead gates are skipped when the
    machine has fewer cores than workers — the byte-identity contract
    holds anywhere, the wall-clock one needs the cores.
    """
    import dataclasses

    from repro.experiments.runner import run_experiment
    from repro.policies.bench import SMOKE_JOBS, bench_config
    from repro.workloads.swim import synthesize_wl1

    workload = synthesize_wl1(np.random.default_rng(7), n_jobs=SMOKE_JOBS)
    serial_config = bench_config("rollout")
    parallel_config = dataclasses.replace(
        serial_config,
        rollout=serial_config.rollout._replace(jobs=ROLLOUT_BENCH_JOBS),
    )
    host_config = bench_config("greedy-lru")

    serial_s = best_of(lambda: run_experiment(serial_config, workload), rounds=3)
    parallel_s = best_of(lambda: run_experiment(parallel_config, workload), rounds=3)
    host_s = best_of(lambda: run_experiment(host_config, workload), rounds=3)
    return {
        "wall_s": parallel_s,
        "serial_wall_s": serial_s,
        "host_wall_s": host_s,
        "speedup": serial_s / parallel_s,
        "overhead_x": parallel_s / host_s,
        "serial_overhead_x": serial_s / host_s,
        "jobs": float(ROLLOUT_BENCH_JOBS),
        "cpus": float(os.cpu_count() or 1),
        "n_jobs": float(SMOKE_JOBS),
    }


def rollout_speedup_reference(metrics: Dict[str, float]) -> Dict[str, object]:
    """The ``reference`` entries for the parallel rollout speedup.

    On a machine with fewer CPUs than workers the speedup measures
    contention, not parallelism, so it is recorded as ``null`` with the
    reason (the CPU and worker counts) rather than as a number.  Both
    keys are always written, so merging a later, measured run into a
    baseline clears a stale reason.
    """
    if metrics["cpus"] < metrics["jobs"]:
        return {
            "rollout_parallel_speedup": None,
            "rollout_parallel_speedup_unmeasured": {
                "cpus": int(metrics["cpus"]), "jobs": int(metrics["jobs"]),
            },
        }
    return {
        "rollout_parallel_speedup": round(metrics["speedup"], 2),
        "rollout_parallel_speedup_unmeasured": None,
    }


def write_rollout_svg(metrics: Dict[str, float], path: str) -> None:
    """Render the rollout-overhead bars (host / parallel / serial / pre-PR)."""
    from repro.viz.svg import bar_chart

    host = metrics["host_wall_s"]
    svg = bar_chart(
        ["host", f"rollout jobs={int(metrics['jobs'])}", "rollout serial",
         "pre-rework serial"],
        [1.0, metrics["overhead_x"], metrics["serial_overhead_x"],
         PRE_PARALLEL_ROLLOUT_OVERHEAD_X],
        title=(f"Rollout overhead over the host cell "
               f"(host {host * 1e3:.0f} ms, {int(metrics['cpus'])} CPUs)"),
        ylabel="wall time / host wall time",
    )
    with open(path, "w") as fh:
        fh.write(svg)
    print(f"wrote {path}")


def bench_scale_one(name: str) -> Dict[str, float]:
    """One scaling point, run inside a dedicated subprocess.

    Isolation matters for the memory number: ``ru_maxrss`` is a
    process-lifetime high-water mark, so each N must be the only
    simulation its process ever ran.  Wall time is the full
    ``run_experiment`` call (cluster build + event loop), matching how
    the pre-sharding reference was measured.
    """
    import resource

    from repro.cluster.cluster import scale_spec
    from repro.core.config import DareConfig
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.workloads.swim import synthesize_wl1

    by_name = {n: (nodes, mode) for n, nodes, mode in SCALE_BENCHES}
    n_nodes, mode = by_name[name]
    spec = scale_spec(n_nodes, mesoscale=(mode == "meso"))
    workload = synthesize_wl1(np.random.default_rng(20110926), n_jobs=SCALE_JOBS)
    config = ExperimentConfig(
        cluster_spec=spec, scheduler="fair",
        dare=DareConfig.elephant_trap(), seed=20110926,
    )
    rounds = 3 if n_nodes <= 1_000 else (2 if n_nodes <= 10_000 else 1)
    best = float("inf")
    events = 0
    makespan = 0.0
    locality = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run_experiment(config, workload)
        wall = time.perf_counter() - t0
        if wall < best:
            best = wall
        events = result.events_processed
        makespan = result.makespan_s
        locality = result.job_locality
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": best,
        "events": float(events),
        "events_per_sec": events / best,
        "peak_rss_mb": peak_rss_mb,
        "makespan_s": makespan,
        "job_locality": locality,
        "n_nodes": float(n_nodes),
    }


def collect_scale() -> Dict[str, Dict[str, float]]:
    """Run every scaling bench, each in its own subprocess."""
    script = os.path.abspath(__file__)
    results: Dict[str, Dict[str, float]] = {}
    for name, n_nodes, mode in SCALE_BENCHES:
        print(f"  {name} ({n_nodes:,} nodes, {mode}) ...", end="", flush=True)
        proc = subprocess.run(
            [sys.executable, script, "--scale-one", name],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(" FAILED")
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"scaling bench {name} failed")
        metrics = json.loads(proc.stdout.splitlines()[-1])
        results[name] = metrics
        print(f" {metrics['wall_s']:.2f}s  "
              f"{metrics['events_per_sec']:,.0f} events/s  "
              f"rss {metrics['peak_rss_mb']:.0f}MB")
    return results


def write_scale_svg(results: Dict[str, Dict[str, float]], path: str) -> None:
    """Render the scaling curve (events/sec and peak RSS vs N, log-log)."""
    from repro.viz.svg import line_chart

    ordered = [results[name] for name, _, _ in SCALE_BENCHES if name in results]
    svg = line_chart(
        [
            ("events/s (end-to-end)",
             [(m["n_nodes"], m["events_per_sec"]) for m in ordered]),
            ("peak RSS (MB)",
             [(m["n_nodes"], m["peak_rss_mb"]) for m in ordered]),
        ],
        title=f"Simulator scaling, {SCALE_JOBS}-job WL1 trace",
        xlabel="cluster size (nodes)",
        ylabel="events/s  /  MB (log)",
        xlog=True,
        ylog=True,
    )
    with open(path, "w") as fh:
        fh.write(svg)
    print(f"wrote {path}")


def collect(n_jobs: int) -> Dict[str, Dict[str, float]]:
    """Run every benchmark and return {name: metrics}."""
    results: Dict[str, Dict[str, float]] = {}
    for name, fn in (
        ("engine_event_throughput", bench_engine_throughput),
        ("engine_cancel_churn", bench_cancel_churn),
        ("namenode_locality_queries", bench_locality_queries),
        ("elephant_trap_update", bench_elephant_trap),
    ):
        print(f"  {name} ...", end="", flush=True)
        results[name] = fn()
        print(f" {results[name]['wall_s'] * 1e3:.2f}ms")
    print("  e2e_fair_et ...", end="", flush=True)
    results["e2e_fair_et"] = bench_e2e_cell(n_jobs)
    print(f" {results['e2e_fair_et']['wall_s'] * 1e3:.1f}ms "
          f"({results['e2e_fair_et']['events_per_sec']:,.0f} events/s)")
    print("  checkpoint_snapshot_restore ...", end="", flush=True)
    results["checkpoint_snapshot_restore"] = bench_snapshot_restore(n_jobs)
    print(f" {results['checkpoint_snapshot_restore']['snapshot_s'] * 1e3:.2f}ms"
          f" + {results['checkpoint_snapshot_restore']['restore_s'] * 1e3:.2f}ms "
          f"({results['checkpoint_snapshot_restore']['snapshot_bytes']:,.0f} bytes)")
    print("  checkpoint_fork_vs_cold ...", end="", flush=True)
    results["checkpoint_fork_vs_cold"] = bench_fork_vs_cold(n_jobs)
    print(f" {results['checkpoint_fork_vs_cold']['wall_s'] * 1e3:.0f}ms shared vs "
          f"{results['checkpoint_fork_vs_cold']['cold_wall_s'] * 1e3:.0f}ms cold "
          f"({results['checkpoint_fork_vs_cold']['speedup']:.2f}x)")
    print("  policy_rollout_fork_grid ...", end="", flush=True)
    results["policy_rollout_fork_grid"] = bench_policy_rollout_fork_grid()
    print(f" {results['policy_rollout_fork_grid']['wall_s'] * 1e3:.0f}ms "
          f"({results['policy_rollout_fork_grid']['overhead_x']:.1f}x over "
          f"the plain host cell)")
    print("  policy_rollout_parallel ...", end="", flush=True)
    results["policy_rollout_parallel"] = bench_policy_rollout_parallel()
    print(f" {results['policy_rollout_parallel']['wall_s'] * 1e3:.0f}ms at "
          f"jobs={ROLLOUT_BENCH_JOBS} "
          f"({results['policy_rollout_parallel']['speedup']:.2f}x over serial, "
          f"{results['policy_rollout_parallel']['overhead_x']:.1f}x over host)")
    return results


def collect_rollout() -> Dict[str, Dict[str, float]]:
    """Just the two rollout benches (the CI policy-bench job's subset)."""
    results: Dict[str, Dict[str, float]] = {}
    print("  policy_rollout_fork_grid ...", end="", flush=True)
    results["policy_rollout_fork_grid"] = bench_policy_rollout_fork_grid()
    print(f" {results['policy_rollout_fork_grid']['wall_s'] * 1e3:.0f}ms "
          f"({results['policy_rollout_fork_grid']['overhead_x']:.1f}x over "
          f"the plain host cell)")
    print("  policy_rollout_parallel ...", end="", flush=True)
    results["policy_rollout_parallel"] = bench_policy_rollout_parallel()
    print(f" {results['policy_rollout_parallel']['wall_s'] * 1e3:.0f}ms at "
          f"jobs={ROLLOUT_BENCH_JOBS} "
          f"({results['policy_rollout_parallel']['speedup']:.2f}x over serial, "
          f"{results['policy_rollout_parallel']['overhead_x']:.1f}x over host)")
    return results


def check_against(
    results: Dict[str, Dict[str, float]], baseline_path: str, tolerance: float
) -> int:
    """Compare wall times to the baseline; return the number of regressions."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_results = baseline.get("results", baseline)
    failures = 0
    for name, metrics in sorted(results.items()):
        base = base_results.get(name)
        if base is None:
            print(f"  {name:<28s} (no baseline entry, skipped)")
            continue
        ratio = metrics["wall_s"] / base["wall_s"]
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = f"REGRESSION (> {tolerance:.0%} budget)"
            failures += 1
        print(f"  {name:<28s} {base['wall_s'] * 1e3:8.2f}ms -> "
              f"{metrics['wall_s'] * 1e3:8.2f}ms  ({ratio:5.2f}x)  {verdict}")
    return failures


def _write_doc(path: str, doc: Dict, merge: bool) -> None:
    if merge and os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
        existing.setdefault("results", {}).update(doc["results"])
        existing.setdefault("reference", {}).update(doc.get("reference", {}))
        doc = existing
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int,
                        default=int(os.environ.get("REPRO_BENCH_JOBS", "120")),
                        help="e2e cell trace length (default $REPRO_BENCH_JOBS or 120)")
    parser.add_argument("--out", default="BENCH_latest.json", metavar="PATH",
                        help="write results JSON (default BENCH_latest.json; "
                             "empty string skips the write)")
    parser.add_argument("--check", default="", metavar="BASELINE",
                        help="fail on > tolerance wall-time regression vs BASELINE")
    parser.add_argument("--write-baseline", default="", metavar="PATH",
                        help="merge fresh numbers into the committed baseline file")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help=f"allowed fractional regression (default {TOLERANCE})")
    parser.add_argument("--scale", action="store_true",
                        help="run the node-count scaling benches "
                             "(scale_100 .. scale_100k_meso) instead of the core set")
    parser.add_argument("--scale-svg", default="", metavar="PATH",
                        help="with --scale: render the scaling curve as SVG")
    parser.add_argument("--rollout-svg", default="", metavar="PATH",
                        help="render the rollout-overhead bars as SVG")
    parser.add_argument("--rollout-only", action="store_true",
                        help="run only the rollout benches (+ their gates "
                             "under --check)")
    parser.add_argument("--scale-one", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.scale_one:
        # subprocess entry point for one scaling configuration: emit the
        # metrics as a single JSON line for the parent to collect
        print(json.dumps(bench_scale_one(args.scale_one)))
        return 0

    if args.rollout_only:
        print("running rollout benches ...")
        results = collect_rollout()
        doc = {
            "generated_by": "benchmarks/run_bench.py --rollout-only",
            "results": results,
            "reference": {
                "pre_parallel_rollout_overhead_x":
                    PRE_PARALLEL_ROLLOUT_OVERHEAD_X,
                **rollout_speedup_reference(results["policy_rollout_parallel"]),
            },
        }
        if args.rollout_svg:
            write_rollout_svg(results["policy_rollout_parallel"],
                              args.rollout_svg)
    elif args.scale:
        print(f"running scaling benches ({SCALE_JOBS}-job trace per N) ...")
        results = collect_scale()
        speedup_10k = (
            results["scale_10k"]["events_per_sec"] / PRE_SHARDING_10K_EVENTS_PER_S
        )
        doc = {
            "generated_by": "benchmarks/run_bench.py --scale",
            "n_jobs": SCALE_JOBS,
            "results": results,
            "reference": {
                "pre_sharding_scale_10k_events_per_sec":
                    PRE_SHARDING_10K_EVENTS_PER_S,
                "scale_10k_speedup": round(speedup_10k, 2),
            },
        }
        if args.scale_svg:
            write_scale_svg(results, args.scale_svg)
    else:
        print(f"running benchmarks (e2e cell: {args.jobs} jobs) ...")
        results = collect(args.jobs)
        doc = {
            "generated_by": "benchmarks/run_bench.py",
            "n_jobs": args.jobs,
            "results": results,
            "reference": {
                "pre_optimization_engine_event_throughput_s":
                    PRE_OPTIMIZATION_ENGINE_S,
                "engine_event_throughput_speedup": round(
                    PRE_OPTIMIZATION_ENGINE_S
                    / results["engine_event_throughput"]["wall_s"],
                    3,
                ),
                "pre_parallel_rollout_overhead_x":
                    PRE_PARALLEL_ROLLOUT_OVERHEAD_X,
                **rollout_speedup_reference(results["policy_rollout_parallel"]),
            },
        }
        if args.rollout_svg:
            write_rollout_svg(results["policy_rollout_parallel"],
                              args.rollout_svg)

    if args.out:
        _write_doc(args.out, doc, merge=False)
    if args.write_baseline:
        # merge so --scale and the core set can refresh independently
        _write_doc(args.write_baseline, doc, merge=True)

    if args.check:
        print(f"checking against {args.check} (tolerance {args.tolerance:.0%}):")
        failures = check_against(results, args.check, args.tolerance)
        if "checkpoint_fork_vs_cold" in results:
            speedup = results["checkpoint_fork_vs_cold"]["speedup"]
            if speedup < MIN_FORK_SPEEDUP:
                print(f"  fork-vs-cold speedup {speedup:.2f}x is below the "
                      f"{MIN_FORK_SPEEDUP:.1f}x floor")
                failures += 1
            else:
                print(f"  fork speedup {speedup:.2f}x >= "
                      f"{MIN_FORK_SPEEDUP:.1f}x floor")
        if "policy_rollout_parallel" in results:
            pr = results["policy_rollout_parallel"]
            if pr["cpus"] < pr["jobs"]:
                print(f"  rollout parallel gate skipped, speedup unmeasured: "
                      f"{int(pr['cpus'])} CPU(s) < jobs={int(pr['jobs'])} "
                      f"(byte-identity still holds; wall-clock gate "
                      f"needs the cores)")
            else:
                if pr["speedup"] < MIN_ROLLOUT_SPEEDUP:
                    print(f"  rollout parallel speedup {pr['speedup']:.2f}x "
                          f"is below the {MIN_ROLLOUT_SPEEDUP:.1f}x floor")
                    failures += 1
                else:
                    print(f"  rollout parallel speedup {pr['speedup']:.2f}x "
                          f">= {MIN_ROLLOUT_SPEEDUP:.1f}x floor")
                if pr["overhead_x"] > MAX_ROLLOUT_OVERHEAD:
                    print(f"  rollout overhead {pr['overhead_x']:.2f}x over "
                          f"the host exceeds the {MAX_ROLLOUT_OVERHEAD:.1f}x "
                          f"ceiling (pre-rework: "
                          f"{PRE_PARALLEL_ROLLOUT_OVERHEAD_X:.1f}x)")
                    failures += 1
                else:
                    print(f"  rollout overhead {pr['overhead_x']:.2f}x <= "
                          f"{MAX_ROLLOUT_OVERHEAD:.1f}x ceiling (pre-rework: "
                          f"{PRE_PARALLEL_ROLLOUT_OVERHEAD_X:.1f}x)")
        if "scale_10k" in results:
            speedup_10k = (
                results["scale_10k"]["events_per_sec"]
                / PRE_SHARDING_10K_EVENTS_PER_S
            )
            if speedup_10k < MIN_SCALE_10K_SPEEDUP:
                print(f"  scale_10k throughput {speedup_10k:.2f}x over the "
                      f"pre-sharding reference is below the "
                      f"{MIN_SCALE_10K_SPEEDUP:.1f}x floor")
                failures += 1
            else:
                print(f"  scale_10k throughput {speedup_10k:.2f}x >= "
                      f"{MIN_SCALE_10K_SPEEDUP:.1f}x over pre-sharding reference")
        if failures:
            print(f"FAILED: {failures} metric(s) over the performance budget")
            return 1
        print("all metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
