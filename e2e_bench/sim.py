"""The four simulation workloads, driven serially through the public API.

Every workload is a list of cells that one *pass* runs; a run repeats
the same pass until its time is up.  Each cell synthesizes its own
trace: ``WorkloadSpec.materialize`` -> ``Simulation(config, workload)``
(set-up) -> ``run()`` + ``finalize()`` (run).  Rollout cells go
``materialize`` (set-up) -> ``run_experiment`` (run): ``run_experiment``
builds its host ``Simulation`` itself, so rollout's run time includes
that build.
Nothing goes through ``run_cells``, whose from-import of
``run_experiment`` would bypass the layer wrappers.

Inputs: cell ``j`` of a run seeded ``S`` simulates with seed ``S + j``,
which draws the cluster, block placement, heartbeat phases and every
policy coin.  The SWIM traces stay fixed (the paper's syntheses at the
default seed; the policy-bench pair for rollout): across trace seeds one
paper_grid pass varies by ~12% and one scale_10k run by ~60%, which
would swamp any bound, against ~4% across simulation seeds.  One
scale_100k_meso cell still moves by up to 12% between simulation seeds,
and one rollout cell by up to 30%, so their passes run :data:`MESO_SEEDS`
and :data:`ROLLOUT_SEEDS` seeds; a scale_10k cell moves by ~2%, and its
pass stays one cell so that a run repeats it often.

Timing: each cell's set-up and run are scaled to the reference CPU by
the speed sampled while they ran (:class:`common.SpeedSampler`).  A
metric takes, for each cell, the median of its scaled repetitions,
summed over the cells.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
import traceback
from typing import Dict, List, Optional

from common import (
    CANONICAL_SEED,
    SpeedSampler,
    median,
    result_digest,
)

from repro.cluster.cluster import scale_spec
from repro.core.config import DareConfig
from repro.experiments import runner
from repro.experiments.figures import fig7_cells, fig10_cells
from repro.experiments.runner import ExperimentConfig, Simulation
from repro.experiments.serialize import result_to_dict
from repro.experiments.sweep import DEFAULT_SEED, SweepCell, WorkloadSpec
from repro.policies.bench import BENCH_SEEDS, SMOKE_JOBS, bench_config

#: jobs per scale-workload trace (the run_bench.py scaling benches' size)
SCALE_JOBS = 30

#: simulation seeds a scale_100k_meso pass runs
MESO_SEEDS = 3

#: simulation seeds each rollout trace runs under in one pass
ROLLOUT_SEEDS = 4

#: each workload's :class:`common.SpeedSampler` sensitivity: the
#: exponent that left scaled times least dependent on the host's
#: slowdown over 10-seed campaigns on the 2-vCPU Xeon this was tuned
#: on, where runs at slowdown 1.0 and 1.7 then read within ~3%.
#: scale_100k_meso's cells wait on memory, which a busy sibling
#: hyperthread slows less than it slows the loop.
SENSITIVITY = {"paper_grid": 1.2, "scale_10k": 1.2, "scale_100k_meso": 0.8,
               "rollout": 1.2}


def cells(workload: str, seed: int) -> List[SweepCell]:
    """The cells of one pass of ``workload`` for a run seeded ``seed``."""
    if workload == "paper_grid":
        grid = fig7_cells(500, DEFAULT_SEED) + fig10_cells(500, DEFAULT_SEED)
        return [c._replace(config=dataclasses.replace(c.config, seed=seed + j))
                for j, c in enumerate(grid)]
    if workload in ("scale_10k", "scale_100k_meso"):
        spec, n_seeds = ((scale_spec(10_000), 1) if workload == "scale_10k"
                         else (scale_spec(100_000, mesoscale=True), MESO_SEEDS))
        config = ExperimentConfig(cluster_spec=spec, scheduler="fair",
                                  dare=DareConfig.elephant_trap())
        return [SweepCell(dataclasses.replace(config, seed=seed + j),
                          WorkloadSpec("wl1", SCALE_JOBS, DEFAULT_SEED),
                          tag=f"{workload}/{j}")
                for j in range(n_seeds)]
    if workload == "rollout":
        base = bench_config("rollout")
        pairs = [(trace_seed, k) for trace_seed in BENCH_SEEDS
                 for k in range(ROLLOUT_SEEDS)]
        return [SweepCell(dataclasses.replace(base, seed=seed + j),
                          WorkloadSpec("wl1", SMOKE_JOBS, trace_seed),
                          tag=f"rollout/wl1-{trace_seed}/{k}")
                for j, (trace_seed, k) in enumerate(pairs)]
    raise ValueError(f"unknown simulation workload {workload!r}")


def check_result(result, workload) -> List[str]:
    """Seed-independent sanity checks on one finished cell."""
    problems = []
    if result.n_jobs != workload.n_jobs:
        problems.append(f"{result.n_jobs}/{workload.n_jobs} jobs finished")
    maps = len(result.collector.map_records)
    if result.locality.total != maps:
        problems.append(f"locality counts {result.locality.total} != {maps} maps")
    if not 0.0 <= result.job_locality <= 1.0:
        problems.append(f"job locality {result.job_locality} outside [0, 1]")
    if not result.makespan_s > 0:
        problems.append(f"makespan {result.makespan_s}")
    return problems


@dataclasses.dataclass
class PassResult:
    """Per-cell timings, digests and failures of one pass."""

    #: cell label -> scaled seconds (see the module docstring)
    setup_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    run_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: unscaled seconds of set-up plus run, summed over the cells
    wall_s: float = 0.0
    digests: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: cell label -> what went wrong (one entry per failed cell)
    errors: Dict[str, str] = dataclasses.field(default_factory=dict)
    events: int = 0
    cells: int = 0

    @property
    def setup_total(self) -> float:
        return sum(self.setup_s.values())

    @property
    def run_total(self) -> float:
        return sum(self.run_s.values())


def run_pass(workload: str, seed: int, sampler: SpeedSampler) -> PassResult:
    """Run every cell of one pass; time set-up and run separately.

    The previous cell's garbage is collected before the next cell starts,
    so that every cell starts from the same heap and ``ru_maxrss`` is
    one cell's peak.
    """
    out = PassResult()
    for cell in cells(workload, seed):
        label = cell.label()
        out.cells += 1
        sim = result = None
        try:
            t0 = time.perf_counter()
            mark = sampler.mark()
            trace = cell.workload.materialize()
            if cell.config.rollout is None:
                sim = Simulation(cell.config, trace)
            setup_s = sampler.scaled(mark)
            mark = sampler.mark()
            if sim is None:
                result = runner.run_experiment(cell.config, trace)
            else:
                sim.run()
                result = sim.finalize()
            run_s = sampler.scaled(mark)
            t1 = time.perf_counter()
        except Exception:
            out.errors[label] = traceback.format_exc().strip()
            gc.collect()
            continue
        out.setup_s[label] = setup_s
        out.run_s[label] = run_s
        out.wall_s += t1 - t0
        out.events += result.events_processed
        out.digests[label] = result_digest(result_to_dict(result))
        problems = check_result(result, trace)
        if problems:
            out.errors[label] = "; ".join(problems)
        sim = result = None
        gc.collect()
    return out


def _passes(workload: str, seed: int, deadline: float, sampler: SpeedSampler,
            on_pass=None) -> List[PassResult]:
    """Repeat the pass until the next would overrun ``deadline`` (at least once)."""
    done: List[PassResult] = []
    while True:
        started = time.perf_counter()
        result = run_pass(workload, seed, sampler)
        if on_pass is not None:
            on_pass(result)
        done.append(result)
        took = time.perf_counter() - started
        if time.perf_counter() + took > deadline:
            return done


def _report(passes: List[PassResult], seed: int, golden: Optional[Dict],
            sampler: SpeedSampler) -> Dict:
    """Outcome counts and digests.

    Every repetition must reproduce pass 0's digests.  ``golden`` (the
    default seed's digests) is checked only on a default-seed run;
    ``None`` means the digests are being recorded instead.
    """
    first = passes[0].digests
    errors = [f"{label}: {msg}" for p in passes for label, msg in p.errors.items()]
    failed = sum(len(p.errors) for p in passes)
    for k, p in enumerate(passes[1:], start=1):
        for label in sorted(set(p.digests) & set(first)):
            if p.digests[label] != first[label]:
                errors.append(f"{label}: pass {k} result differs from pass 0")
                failed += 1
    if golden is None:
        status = "written"
    elif seed != CANONICAL_SEED:
        status = "not checked (non-default seed)"
    else:
        wrong = sorted(label for label in set(golden) | set(first)
                       if golden.get(label) != first.get(label))
        status = "mismatch" if wrong else "match"
        errors.extend(f"{label}: digest differs from golden.json" for label in wrong)
        failed += len(wrong)
    return {
        "attempted": sum(p.cells for p in passes),
        "failed": failed,
        "errors": errors,
        "golden": {"status": status, "digests": first},
        "digests": {str(seed): first},
        "events": passes[0].events,
        "host_slowdown": sampler.slowdown(),
    }


def median_per_cell(passes: List[PassResult], phase: str) -> float:
    """Each cell's median over the run's repetitions, summed over the cells."""
    per_cell: Dict[str, List[float]] = {}
    for p in passes:
        for label, seconds in getattr(p, phase).items():
            per_cell.setdefault(label, []).append(seconds)
    return sum(median(times) for times in per_cell.values())


def run(workload: str, seed: int, seconds: float, golden: Optional[Dict]) -> Dict:
    """An untraced run: the end-to-end metrics of the workload."""
    deadline = time.perf_counter() + seconds
    with SpeedSampler(SENSITIVITY[workload]) as sampler:
        passes = _passes(workload, seed, deadline, sampler)
    report = _report(passes, seed, golden, sampler)
    report["values"] = {"setup_s": median_per_cell(passes, "setup_s"),
                        "run_s": median_per_cell(passes, "run_s")}
    report["samples"] = {"setup_s": [p.setup_total for p in passes],
                         "run_s": [p.run_total for p in passes],
                         "wall_s": [p.wall_s for p in passes]}
    return report


def run_traced(workload: str, seed: int, seconds: float, golden: Optional[Dict],
               spans_path) -> Dict:
    """A traced run: one untraced pass, then traced passes.

    Counts are those of the first traced pass (every pass repeats them
    exactly); times are medians over the traced passes; the overhead
    ratio compares the first traced pass with the untraced one.
    """
    import layers

    deadline = time.perf_counter() + seconds
    ledger = layers.Ledger()
    per_pass: List[Dict[str, float]] = []
    mark = ledger.totals()

    def measure(p: PassResult) -> None:
        nonlocal mark
        now = ledger.totals()
        totals = layers.delta(now, mark)
        mark = now
        values = layers.ledger_values(totals)
        values["simulation.events"] = float(p.events)
        values["trace.layer_coverage"] = (
            layers.self_time_sum(totals) / p.wall_s if p.wall_s else 0.0)
        per_pass.append(values)

    with SpeedSampler(SENSITIVITY[workload]) as sampler:
        untraced = run_pass(workload, seed, sampler)
        patches = layers.install(ledger)
        try:
            passes = _passes(workload, seed, deadline, sampler, on_pass=measure)
        finally:
            layers.uninstall(patches)
    with open(spans_path, "w") as fh:
        json.dump(ledger.spans_doc(), fh)

    report = _report(passes, seed, golden, sampler)
    if passes[0].digests != untraced.digests:
        report["errors"].append("traced digests differ from the untraced run")
        report["failed"] += 1
    values = {}
    for name in per_pass[0]:
        if layers.is_time_metric(name) or name == "trace.layer_coverage":
            values[name] = median([v[name] for v in per_pass])
        else:
            values[name] = per_pass[0][name]
    values["trace.overhead_ratio"] = passes[0].run_total / untraced.run_total
    report["layers"] = values
    report["samples"] = {"traced_run_s": [p.run_total for p in passes]}
    return report
