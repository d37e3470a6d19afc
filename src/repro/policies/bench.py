"""The learned-vs-baseline policy benchmark grid.

``repro policy-bench`` (and the CI ``policy-bench`` job) run every
registered replica-management policy — the paper baselines, the offline
learned scorer, and the checkpoint-fork rollout engine — over a pinned
set of workload seeds, and reduce the runs to one JSON document plus one
grouped-bar SVG.  The document carries a machine-checkable **gate**: the
rollout-greedy policy's mean data locality must be at least its greedy
host's on every pinned seed, which holds by construction (the rollout
driver only replaces the no-op branch on a strict improvement) and so
regresses only when the fork/score/apply machinery breaks.

Everything here is deterministic: fixed workload seeds, the fixed
simulation seed, and the baked-in model weights.  Two invocations of
:func:`run_policy_bench` produce byte-identical documents.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import CCT_SPEC
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, ExperimentResult
from repro.experiments.sweep import ProgressFn, SweepCell, WorkloadSpec, results_of, run_cells
from repro.policies.learned import DEFAULT_WEIGHTS
from repro.policies.rollout import RolloutConfig

#: workload seeds every policy is scored on (simulation seed is fixed)
BENCH_SEEDS: Tuple[int, ...] = (7, 20110926)

#: jobs per run in the PR-smoke tier; the nightly tier uses more
SMOKE_JOBS = 32
FULL_JOBS = 96

#: rollout knobs used by the benchmark (10s epochs catch the remote-read
#: bursts that 120s epochs sleep through at this workload scale)
BENCH_ROLLOUT = RolloutConfig(epoch_s=10.0, branches=4, max_epochs=64)

#: benchmark columns, in reporting order
POLICY_COLUMNS: Tuple[str, ...] = (
    "off",
    "greedy-lru",
    "greedy-lfu",
    "elephant-trap",
    "learned",
    "rollout",
)


def bench_config(
    policy: str, model: Sequence[float] = DEFAULT_WEIGHTS
) -> ExperimentConfig:
    """The experiment cell for one benchmark column: a
    :data:`~repro.core.config.POLICY_NAMES` name, or ``rollout`` (the
    rollout engine over a greedy-lru host)."""
    base = ExperimentConfig(cluster_spec=CCT_SPEC, scheduler="fifo")
    if policy == "rollout":
        return dataclasses.replace(
            base, dare=DareConfig.named("lru"), rollout=BENCH_ROLLOUT
        )
    return dataclasses.replace(base, dare=DareConfig.named(policy, model=model))


def policy_cells(
    n_jobs: int = SMOKE_JOBS,
    seeds: Sequence[int] = BENCH_SEEDS,
    model: Sequence[float] = DEFAULT_WEIGHTS,
    policies: Sequence[str] = POLICY_COLUMNS,
) -> List[SweepCell]:
    """The benchmark grid, seed-major: every policy column on each
    seed's WL1 trace (``sweep --grid policies`` runs the same cells)."""
    return [
        SweepCell(bench_config(policy, model), WorkloadSpec("wl1", n_jobs, seed),
                  tag=f"policies/{policy}/s{seed}", x=float(seed))
        for seed, policy in itertools.product(seeds, policies)
    ]


def _row(policy: str, seed: int, result: ExperimentResult) -> Dict:
    return {
        "policy": policy,
        "seed": seed,
        "job_locality": result.job_locality,
        "makespan_s": result.makespan_s,
        "blocks_created": result.blocks_created,
        "blocks_evicted": result.blocks_evicted,
        "rollout_bytes": result.traffic_bytes.get("rollout", 0),
        "remote_read_bytes": result.traffic_bytes.get("remote_map_reads", 0),
    }


def run_policy_bench(
    n_jobs: int = SMOKE_JOBS,
    seeds: Sequence[int] = BENCH_SEEDS,
    model: Sequence[float] = DEFAULT_WEIGHTS,
    policies: Sequence[str] = POLICY_COLUMNS,
    progress: Optional[ProgressFn] = None,
) -> Dict:
    """Run the grid serially (``progress`` as in ``run_cells``) and
    reduce it to the benchmark document."""
    outcomes = run_cells(policy_cells(n_jobs, seeds, model, policies), progress=progress)
    rows = [_row(policy, seed, result) for (seed, policy), result
            in zip(itertools.product(seeds, policies), results_of(outcomes))]
    mean_locality = {
        policy: sum(r["job_locality"] for r in rows if r["policy"] == policy)
        / len(seeds)
        for policy in policies
    }
    gate = check_gate(rows) if {"rollout", "greedy-lru"} <= set(policies) else None
    return {
        "n_jobs": n_jobs,
        "seeds": list(seeds),
        "policies": list(policies),
        "rows": rows,
        "mean_locality": mean_locality,
        "gate": gate,
    }


def check_gate(rows: Sequence[Dict]) -> Dict:
    """The CI gate: rollout locality >= greedy-lru locality, per seed."""
    greedy = {r["seed"]: r["job_locality"] for r in rows if r["policy"] == "greedy-lru"}
    rollout = {r["seed"]: r["job_locality"] for r in rows if r["policy"] == "rollout"}
    per_seed = {
        str(seed): {
            "greedy": greedy[seed],
            "rollout": rollout[seed],
            "ok": rollout[seed] >= greedy[seed],
        }
        for seed in sorted(greedy)
    }
    return {
        "rule": "rollout job_locality >= greedy-lru job_locality on every seed",
        "per_seed": per_seed,
        "ok": all(v["ok"] for v in per_seed.values()),
    }


def render_policy_grid(doc: Dict) -> str:
    """The benchmark document as one grouped-bar SVG (locality by seed)."""
    from repro.viz.svg import grouped_bar_chart

    seeds = doc["seeds"]
    by = {(r["policy"], r["seed"]): r["job_locality"] for r in doc["rows"]}
    series = [
        (policy, [by[(policy, seed)] for seed in seeds])
        for policy in doc["policies"]
    ]
    return grouped_bar_chart(
        [f"seed {s}" for s in seeds],
        series,
        title=f"Policy benchmark — wl1 x {doc['n_jobs']} jobs",
        ylabel="job data locality",
    )


def format_report(doc: Dict) -> str:
    """Printable summary table of a benchmark document."""
    lines = [f"policy benchmark (wl1 x {doc['n_jobs']} jobs, seeds {doc['seeds']}):"]
    header = f"  {'policy':<14s}" + "".join(f"seed {s:<12d}" for s in doc["seeds"])
    lines.append(header + "mean")
    by = {(r["policy"], r["seed"]): r for r in doc["rows"]}
    for policy in doc["policies"]:
        cells = "".join(
            f"{by[(policy, s)]['job_locality']:<17.4f}" for s in doc["seeds"]
        )
        lines.append(
            f"  {policy:<14s}{cells}{doc['mean_locality'][policy]:.4f}"
        )
    gate: Optional[Dict] = doc.get("gate")
    if gate is not None:
        lines.append(f"  gate: {gate['rule']} -> {'ok' if gate['ok'] else 'FAIL'}")
    return "\n".join(lines)
