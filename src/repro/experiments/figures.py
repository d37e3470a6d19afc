"""One driver per evaluation figure (Figs. 2-11).

Every function is deterministic given its seed, returns plain data
structures a caller can print or plot, and takes an ``n_jobs`` knob so the
benchmark suite can run reduced-scale versions while
``examples/reproduce_paper.py`` runs the full 500-job traces.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.access_log import AccessLog, generate_access_log
from repro.analysis.patterns import (
    age_at_access_cdf,
    median_age_hours,
    popularity_by_rank,
    window_distribution,
)
from repro.cluster.cluster import CCT_SPEC, EC2_SPEC, ClusterSpec
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, ExperimentResult
from repro.experiments.sweep import (
    ResultCache,
    SweepCell,
    WorkloadSpec,
    results_of,
    run_cells,
)

#: seed used throughout the reproduction
DEFAULT_SEED = 20110926

#: the paper's headline DARE configurations (Fig. 7/10 captions)
LRU_CONFIG = DareConfig.greedy_lru(budget=0.2)
ET_CONFIG = DareConfig.elephant_trap(p=0.3, threshold=1, budget=0.2)


# --------------------------------------------------------------------------
# Section III figures (audit-log analyses)
# --------------------------------------------------------------------------


def _log(seed: int) -> AccessLog:
    return generate_access_log(np.random.default_rng(seed))


def fig2_popularity(seed: int = DEFAULT_SEED) -> Dict[str, np.ndarray]:
    """File popularity vs rank, raw and block-weighted (Fig. 2)."""
    log = _log(seed)
    return {
        "raw": popularity_by_rank(log, weighted=False),
        "weighted": popularity_by_rank(log, weighted=True),
    }


def fig3_age_cdf(
    seed: int = DEFAULT_SEED, grid_hours: Optional[np.ndarray] = None
) -> Dict[str, np.ndarray]:
    """CDF of file age at access (Fig. 3)."""
    log = _log(seed)
    if grid_hours is None:
        grid_hours = np.concatenate(
            [np.linspace(0.1, 24, 48), np.linspace(25, 168, 72)]
        )
    return {
        "grid_hours": grid_hours,
        "cdf": age_at_access_cdf(log, grid_hours),
        "median_hours": np.asarray([median_age_hours(log)]),
    }


def fig4_windows(seed: int = DEFAULT_SEED) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """80 %-access window distribution over the week (Fig. 4)."""
    log = _log(seed)
    return {
        "unweighted": window_distribution(log, weighted=False),
        "weighted": window_distribution(log, weighted=True),
    }


def fig5_windows_day(
    seed: int = DEFAULT_SEED, day: int = 1
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """80 %-access window distribution within one day (Fig. 5; day 2 of the
    data set is ``day=1`` zero-based)."""
    log = _log(seed)
    start, end = day * 24.0, (day + 1) * 24.0
    return {
        "unweighted": window_distribution(log, weighted=False, start_h=start, end_h=end),
        "weighted": window_distribution(log, weighted=True, start_h=start, end_h=end),
    }


def fig6_access_cdf(n_jobs: int = 500, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Empirical access CDF by file rank of the experiment workload (Fig. 6)."""
    return WorkloadSpec("wl1", n_jobs, seed).materialize().empirical_access_cdf()


# --------------------------------------------------------------------------
# Figures 7 and 10: the headline cluster experiments
# --------------------------------------------------------------------------

#: policy labels in the figures' bar order
POLICY_LABELS = ("vanilla", "lru", "elephant-trap")
_POLICIES = (DareConfig.off(), LRU_CONFIG, ET_CONFIG)


class Fig7Cell(NamedTuple):
    """One bar group of Fig. 7 (a scheduler x workload combination)."""

    scheduler: str
    workload: str
    #: job data locality per policy, Fig. 7a bar heights
    locality: Dict[str, float]
    #: GMTT normalized to vanilla, Fig. 7b
    gmtt_normalized: Dict[str, float]
    #: mean slowdown, Fig. 7c
    slowdown: Dict[str, float]
    #: mean map-task time normalized to vanilla (Section V-C)
    map_time_normalized: Dict[str, float]
    #: raw results, for deeper inspection
    results: Dict[str, ExperimentResult]


def _policy_cells(
    cluster_spec: ClusterSpec,
    scheduler: str,
    workload: WorkloadSpec,
    seed: int,
    grid: str,
) -> List[SweepCell]:
    """One bar group's cells: the three policies of one scheduler x workload."""
    return [
        SweepCell(
            ExperimentConfig(
                cluster_spec=cluster_spec, scheduler=scheduler, dare=dare, seed=seed
            ),
            workload,
            tag=f"{grid}/{workload.kind}/{scheduler}/{label}",
        )
        for label, dare in zip(POLICY_LABELS, _POLICIES)
    ]


def _assemble_cell(
    scheduler: str, workload_name: str, results: Dict[str, ExperimentResult]
) -> Fig7Cell:
    base = results["vanilla"]
    return Fig7Cell(
        scheduler=scheduler,
        workload=workload_name,
        locality={k: r.job_locality for k, r in results.items()},
        gmtt_normalized={k: r.gmtt_s / base.gmtt_s for k, r in results.items()},
        slowdown={k: r.slowdown for k, r in results.items()},
        map_time_normalized={
            k: r.mean_map_s / base.mean_map_s for k, r in results.items()
        },
        results=results,
    )


def _run_policy_grid(
    cells: List[SweepCell], jobs: int, cache: Optional[ResultCache]
) -> List[Fig7Cell]:
    """Run bar-group cells (built by :func:`_policy_cells`, POLICY_LABELS
    per group, group order preserved) and fold them into Fig7Cells."""
    results = results_of(run_cells(cells, jobs=jobs, cache=cache))
    out = []
    for start in range(0, len(cells), len(POLICY_LABELS)):
        group = {
            label: results[start + k] for k, label in enumerate(POLICY_LABELS)
        }
        cell = cells[start]
        out.append(
            _assemble_cell(cell.config.scheduler, cell.workload.kind, group)
        )
    return out


def fig7_cells(n_jobs: int = 500, seed: int = DEFAULT_SEED) -> List[SweepCell]:
    """The 12 cells behind Fig. 7: wl1/wl2 x FIFO/Fair x three policies."""
    cells = []
    for wl_name in ("wl1", "wl2"):
        workload = WorkloadSpec(wl_name, n_jobs, seed)
        for scheduler in ("fifo", "fair"):
            cells.extend(_policy_cells(CCT_SPEC, scheduler, workload, seed, "fig7"))
    return cells


def fig7_cct(
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[Fig7Cell]:
    """The 20-node CCT experiments (Fig. 7a-c): FIFO/Fair x wl1/wl2.

    ``jobs``/``cache`` fan the cells out over worker processes and the
    sweep result cache; results are identical to the serial default.
    """
    return _run_policy_grid(fig7_cells(n_jobs, seed), jobs, cache)


def fig10_cells(n_jobs: int = 500, seed: int = DEFAULT_SEED) -> List[SweepCell]:
    """The 6 cells behind Fig. 10: wl1 on EC2 x FIFO/Fair x three policies."""
    workload = WorkloadSpec("wl1", n_jobs, seed)
    cells = []
    for scheduler in ("fifo", "fair"):
        cells.extend(_policy_cells(EC2_SPEC, scheduler, workload, seed, "fig10"))
    return cells


def fig10_ec2(
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[Fig7Cell]:
    """The 100-node EC2 experiments (Fig. 10a-c): FIFO/Fair on wl1."""
    return _run_policy_grid(fig10_cells(n_jobs, seed), jobs, cache)


def print_fig7(cells: List[Fig7Cell], title: str = "Fig. 7 (20-node CCT)") -> None:
    """Render the three panels as rows."""
    print(title)
    hdr = f"{'cell':<14s}" + "".join(f"{p:>15s}" for p in POLICY_LABELS)
    for metric, panel in [
        ("locality", "(a) data locality"),
        ("gmtt_normalized", "(b) normalized GMTT"),
        ("slowdown", "(c) mean slowdown"),
        ("map_time_normalized", "(V-C) normalized map time"),
    ]:
        print(panel)
        print(hdr)
        for cell in cells:
            vals = getattr(cell, metric)
            row = f"{cell.scheduler}({cell.workload})"
            print(f"{row:<14s}" + "".join(f"{vals[p]:>15.3f}" for p in POLICY_LABELS))


# --------------------------------------------------------------------------
# Figures 8 and 9: sensitivity analyses (wl2, per the captions)
# --------------------------------------------------------------------------


class SweepPoint(NamedTuple):
    """One x-value of a sensitivity sweep, for one scheduler."""

    x: float
    scheduler: str
    locality: float
    blocks_per_job: float


def _sweep_cells(
    grid: str,
    workload: WorkloadSpec,
    schedulers: Sequence[str],
    configs: Sequence[Tuple[float, DareConfig]],
    seed: int,
    cluster_spec: ClusterSpec = CCT_SPEC,
) -> List[SweepCell]:
    """Sensitivity-sweep cells: scheduler x x-value, x carried on the cell."""
    return [
        SweepCell(
            ExperimentConfig(
                cluster_spec=cluster_spec, scheduler=scheduler, dare=dare, seed=seed
            ),
            workload,
            tag=f"{grid}/{workload.kind}/{scheduler}/x={x:g}",
            x=x,
        )
        for scheduler in schedulers
        for x, dare in configs
    ]


def _run_sweep(
    cells: List[SweepCell], jobs: int, cache: Optional[ResultCache]
) -> List[SweepPoint]:
    results = results_of(run_cells(cells, jobs=jobs, cache=cache))
    return [
        SweepPoint(c.x, c.config.scheduler, r.job_locality, r.blocks_created_per_job)
        for c, r in zip(cells, results)
    ]


def fig8a_cells(
    p_values: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
) -> List[SweepCell]:
    """Cells of the ElephantTrap p sweep (Fig. 8a)."""
    configs = [
        (
            p,
            DareConfig.off()
            if p == 0.0
            else DareConfig.elephant_trap(p=p, threshold=1, budget=0.2),
        )
        for p in p_values
    ]
    return _sweep_cells(
        "fig8a", WorkloadSpec("wl2", n_jobs, seed), ("fifo", "fair"), configs, seed
    )


def fig8a_p_sweep(
    p_values: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[SweepPoint]:
    """Locality and blocks/job vs ElephantTrap p (threshold=1, budget=0.2)."""
    return _run_sweep(fig8a_cells(p_values, n_jobs, seed), jobs, cache)


def fig8b_cells(
    thresholds: Sequence[int] = (1, 2, 3, 4, 5),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
    budget: float = 0.5,
) -> List[SweepCell]:
    """Cells of the aging-threshold sweep (Fig. 8b)."""
    configs = [
        (float(t), DareConfig.elephant_trap(p=0.9, threshold=t, budget=budget))
        for t in thresholds
    ]
    return _sweep_cells(
        "fig8b", WorkloadSpec("wl2", n_jobs, seed), ("fifo", "fair"), configs, seed
    )


def fig8b_threshold_sweep(
    thresholds: Sequence[int] = (1, 2, 3, 4, 5),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
    budget: float = 0.5,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[SweepPoint]:
    """Locality and blocks/job vs aging threshold (p=0.9; the paper's
    caption uses budget=0.5).

    At the caption's generous budget evictions are rare and the sweep is
    flat — consistent with the paper's conclusion that DARE "is not too
    sensitive to changes in the threshold parameter".  Pass a tight
    ``budget`` (e.g. 0.1) to surface the mechanism the paper describes:
    higher thresholds evict slightly too eagerly, costing a little
    locality while creating slightly more replicas."""
    return _run_sweep(fig8b_cells(thresholds, n_jobs, seed, budget), jobs, cache)


def fig9a_cells(
    budgets: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
) -> List[SweepCell]:
    """Cells of the greedy-LRU budget sweep (Fig. 9a)."""
    configs = [
        (b, DareConfig.off() if b == 0.0 else DareConfig.greedy_lru(budget=b))
        for b in budgets
    ]
    return _sweep_cells(
        "fig9a", WorkloadSpec("wl2", n_jobs, seed), ("fifo", "fair"), configs, seed
    )


def fig9a_budget_sweep_lru(
    budgets: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[SweepPoint]:
    """Locality and blocks/job vs budget under greedy LRU (Fig. 9a)."""
    return _run_sweep(fig9a_cells(budgets, n_jobs, seed), jobs, cache)


def _fig9b_cells_for_p(
    p: float, budgets: Sequence[float], n_jobs: int, seed: int
) -> List[SweepCell]:
    configs = [
        (
            b,
            DareConfig.off()
            if b == 0.0
            else DareConfig.elephant_trap(p=p, threshold=1, budget=b),
        )
        for b in budgets
    ]
    return _sweep_cells(
        f"fig9b/p={p:g}", WorkloadSpec("wl2", n_jobs, seed),
        ("fifo", "fair"), configs, seed,
    )


def fig9b_cells(
    budgets: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    p_values: Sequence[float] = (0.3, 0.9),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
) -> List[SweepCell]:
    """Cells of the ElephantTrap budget sweep (Fig. 9b), all p values."""
    cells: List[SweepCell] = []
    for p in p_values:
        cells.extend(_fig9b_cells_for_p(p, budgets, n_jobs, seed))
    return cells


def fig9b_budget_sweep_et(
    budgets: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    p_values: Sequence[float] = (0.3, 0.9),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[float, List[SweepPoint]]:
    """Locality and blocks/job vs budget under ElephantTrap (Fig. 9b)."""
    return {
        p: _run_sweep(_fig9b_cells_for_p(p, budgets, n_jobs, seed), jobs, cache)
        for p in p_values
    }


def print_sweep(points: List[SweepPoint], xlabel: str) -> None:
    """Render a sensitivity sweep as rows."""
    print(f"{xlabel:>10s} {'scheduler':>10s} {'locality%':>10s} {'blocks/job':>11s}")
    for pt in points:
        print(
            f"{pt.x:>10.2f} {pt.scheduler:>10s} {100 * pt.locality:>10.1f} "
            f"{pt.blocks_per_job:>11.2f}"
        )


# --------------------------------------------------------------------------
# Figure 11: replica-placement uniformity
# --------------------------------------------------------------------------


class Fig11Point(NamedTuple):
    """cv of node popularity indices before/after a DARE run."""

    p: float
    cv_before: float
    cv_after: float


def fig11_cells(
    p_values: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
) -> List[SweepCell]:
    """Cells of the placement-uniformity sweep (Fig. 11)."""
    configs = [
        (
            p,
            DareConfig.off()
            if p == 0.0
            else DareConfig.elephant_trap(p=p, threshold=1, budget=0.2),
        )
        for p in p_values
    ]
    return _sweep_cells(
        "fig11", WorkloadSpec("wl1", n_jobs, seed), ("fifo",), configs, seed
    )


def fig11_uniformity(
    p_values: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    n_jobs: int = 500,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[Fig11Point]:
    """cv of popularity indices vs p (wl1, FIFO, budget=0.2, threshold=1)."""
    cells = fig11_cells(p_values, n_jobs, seed)
    results = results_of(run_cells(cells, jobs=jobs, cache=cache))
    return [
        Fig11Point(c.x, r.cv_before, r.cv_after) for c, r in zip(cells, results)
    ]
