"""Randomized end-to-end scenario generation for the invariant harness.

A :class:`Scenario` names one full-stack simulation cell — cluster, policy,
scheduler, baseline, failures, workload — small enough to run in seconds
with the :class:`~repro.observability.invariants.InvariantChecker` armed at
every settled event (``invariant_sweep_every`` deliberately tiny).

Two generators feed the tests:

* :func:`named_scenarios` — a fixed grid guaranteeing coverage of greedy
  LRU/LFU, ElephantTrap, the Scarlett and CDRM baselines, failure
  injection, and all three schedulers;
* :func:`random_scenario` — seeded-random cells for the property sweep
  (`INVARIANT_EXAMPLES` controls how many; hypothesis, when installed,
  drives extra seeds through the same builder).

Both funnel through :func:`scenario_from_params`, a pure mapping from
independent dimensions (policy, scheduler, workload, failures, ...) to a
:class:`Scenario`.  The hypothesis property in
``test_end_to_end_properties`` draws each dimension separately and
composes them through the same function, so a failing example shrinks
*per dimension* — toward ``off``/``fifo``/no failures/fewest jobs — and
the minimal counterexample describes the workload that breaks, not just
an opaque seed.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.baselines.cdrm import CdrmConfig
from repro.baselines.scarlett import ScarlettConfig
from repro.cluster.cluster import CCT_SPEC
from repro.core.config import DareConfig, Policy
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.workloads.swim import Workload, synthesize_wl1, synthesize_wl2

#: 1 master + 9 slaves: big enough for placement spread, small enough for CI
SPEC = CCT_SPEC._replace(n_nodes=10)


@dataclass(frozen=True)
class Scenario:
    """One reproducible end-to-end cell."""

    name: str
    dare: DareConfig
    scheduler: str = "fifo"
    workload: str = "wl1"
    n_jobs: int = 10
    seed: int = 20110926
    scarlett: bool = False
    failures: Tuple[Tuple[float, int], ...] = ()
    cdrm: bool = False

    def to_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            cluster_spec=SPEC,
            scheduler=self.scheduler,
            dare=self.dare,
            seed=self.seed,
            scarlett=ScarlettConfig(epoch_s=60.0) if self.scarlett else None,
            cdrm=CdrmConfig(period_s=40.0) if self.cdrm else None,
            failures=self.failures,
            check_invariants=True,
            invariant_sweep_every=50,
        )

    def build_workload(self) -> Workload:
        rng = np.random.default_rng(self.seed)
        synth = synthesize_wl1 if self.workload == "wl1" else synthesize_wl2
        return synth(rng, n_jobs=self.n_jobs)


def run_scenario(scenario: Scenario) -> ExperimentResult:
    """Run one scenario with the checker armed; raises on any violation.

    When ``INVARIANT_TRACE_DIR`` is set (the CI property sweep does this),
    each run writes its JSONL trace there and removes it again on success —
    a failing scenario leaves its trace behind as a replayable artifact
    for ``python -m repro replay``.
    """
    config = scenario.to_config()
    trace_dir = os.environ.get("INVARIANT_TRACE_DIR", "")
    trace_path = ""
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{scenario.name}.jsonl")
        config = dataclasses.replace(config, trace_path=trace_path)
    result = run_experiment(config, scenario.build_workload())
    if trace_path:
        os.remove(trace_path)
    return result


def named_scenarios() -> Tuple[Scenario, ...]:
    """The fixed coverage grid (policy x scheduler x baseline x failures)."""
    return (
        Scenario("off-fifo", DareConfig.off()),
        Scenario("lru-fifo", DareConfig.greedy_lru(budget=0.15)),
        Scenario(
            "lfu-fair",
            DareConfig(policy=Policy.GREEDY_LFU, budget=0.1),
            scheduler="fair",
        ),
        Scenario("et-fifo", DareConfig.elephant_trap(p=0.5, threshold=1)),
        Scenario(
            "et-fair-skip",
            DareConfig.elephant_trap(p=1.0, threshold=2, budget=0.1),
            scheduler="fair-skip",
            workload="wl2",
        ),
        Scenario("off-scarlett", DareConfig.off(), scarlett=True, n_jobs=12),
        Scenario("et-scarlett", DareConfig.elephant_trap(p=0.3), scarlett=True),
        Scenario(
            "lru-failures",
            DareConfig.greedy_lru(budget=0.2),
            failures=((25.0, 2), (70.0, 6)),
            n_jobs=12,
        ),
        Scenario(
            "et-failures-scarlett",
            DareConfig.elephant_trap(p=0.7, threshold=1, budget=0.1),
            scarlett=True,
            failures=((40.0, 4),),
            scheduler="fair",
            n_jobs=12,
        ),
        Scenario("lru-cdrm", DareConfig.greedy_lru(budget=0.15), cdrm=True, n_jobs=12),
        Scenario(
            "et-cdrm-failures",
            DareConfig.elephant_trap(p=0.5, threshold=1, budget=0.1),
            cdrm=True,
            failures=((30.0, 3), (90.0, 7)),
            scheduler="fair",
            workload="wl2",
            n_jobs=12,
        ),
    )


#: the independent dimensions a property-based shrinker should minimize,
#: each with its simplest value first
POLICY_CHOICES = ("off", "lru", "lfu", "et")
SCHEDULER_CHOICES = ("fifo", "fair", "fair-skip")
WORKLOAD_CHOICES = ("wl1", "wl2")
BUDGET_CHOICES = (0.05, 0.1, 0.2, 0.4)
P_CHOICES = (0.1, 0.3, 0.5, 1.0)


def scenario_from_params(
    policy: str,
    scheduler: str,
    workload: str,
    n_jobs: int,
    seed: int,
    budget: float = 0.2,
    p: float = 0.3,
    threshold: int = 1,
    scarlett: bool = False,
    failures: Tuple[Tuple[float, int], ...] = (),
    name: str = "",
) -> Scenario:
    """Pure mapping from independent scenario dimensions to a cell.

    Every generator (seeded-random, hypothesis) builds scenarios through
    this function, so each dimension can vary — and shrink — on its own.
    ``p`` and ``threshold`` only matter for the ElephantTrap policy,
    ``budget`` for any enabled policy.
    """
    return Scenario(
        name=name or f"{policy}-{scheduler}-{workload}-j{n_jobs}-s{seed}",
        dare=DareConfig.named(policy, p, threshold, budget),
        scheduler=scheduler,
        workload=workload,
        n_jobs=n_jobs,
        seed=seed,
        scarlett=scarlett,
        failures=failures,
    )


def random_scenario(seed: int) -> Scenario:
    """Derive a pseudo-random scenario cell from ``seed``."""
    rng = random.Random(seed)
    policy = rng.choice(["off", "lru", "lfu", "et", "et"])
    failures: Tuple[Tuple[float, int], ...] = ()
    if rng.random() < 0.35:
        # at most two distinct slave crashes: with replication 3 no block
        # can lose every replica, so the run always completes
        nodes = rng.sample(range(1, SPEC.n_nodes), rng.randint(1, 2))
        failures = tuple(
            sorted((round(rng.uniform(10.0, 150.0), 1), n) for n in nodes)
        )
    return scenario_from_params(
        policy=policy,
        scheduler=rng.choice(SCHEDULER_CHOICES),
        workload=rng.choice(WORKLOAD_CHOICES),
        n_jobs=rng.randint(8, 14),
        seed=seed,
        budget=rng.choice(BUDGET_CHOICES),
        p=rng.choice(P_CHOICES),
        threshold=rng.randint(1, 3),
        scarlett=rng.random() < 0.25,
        failures=failures,
        name=f"random-{seed}",
    )
