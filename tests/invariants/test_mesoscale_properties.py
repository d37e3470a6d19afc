"""Mesoscale promotion/demotion invariants, checked on live simulations.

The mesoscale pool replaces idle TaskTrackers with bare slot-capacity
entries.  The runtime invariant checker audits those entries through the
JobTracker's slot store like any other node's; this suite checks the
pool's own contract on top, on running
:class:`~repro.experiments.runner.Simulation` objects — mid-run and after
drain:

* the rack hubs partition the slave set, with no node in two hubs;
* ``accurate`` members are exactly the nodes with a live TaskTracker, and
  ``promotions - demotions`` always equals the accurate population;
* pooled members never hold an occupied slot (work implies promotion);
* an explicitly mis-sequenced promote/demote raises instead of corrupting
  the pool;
* a mesoscale run produces **identical** results to the
  batched-but-accurate mode on the same seed, because promotion is driven
  by the same beat decisions the accurate tracker would have made;
* and a checked mesoscale run matches an unchecked one, while a corrupted
  pooled node's slot count fails the check.

``INVARIANT_EXAMPLES`` scales the randomized sweep (default 6; CI's
nightly job sets 500).
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.cluster.cluster import scale_spec
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, Simulation, run_experiment
from repro.experiments.serialize import result_to_dict
from repro.observability.invariants import InvariantViolation
from repro.workloads.swim import synthesize_wl1

N_RANDOM = int(os.environ.get("INVARIANT_EXAMPLES", "6"))


def _build(n_nodes: int, n_jobs: int, seed: int, *,
           mesoscale: bool = True, scheduler: str = "fair") -> Simulation:
    spec = scale_spec(n_nodes, mesoscale=mesoscale, hb_batch=True)
    workload = synthesize_wl1(np.random.default_rng(seed), n_jobs=n_jobs)
    config = ExperimentConfig(
        cluster_spec=spec, scheduler=scheduler,
        dare=DareConfig.elephant_trap(), seed=seed,
    )
    return Simulation(config, workload)


def _check_hub_invariants(sim: Simulation) -> None:
    jt = sim.jobtracker
    hubs = jt.hubs
    assert hubs, "batched mode must create rack hubs"
    rack_of = sim.cluster.topology.rack_of

    seen: set = set()
    for hub in hubs:
        members = set(hub.member_ids)
        assert hub.member_ids == sorted(members)
        assert not (members & seen), "a node belongs to two hubs"
        seen |= members
        assert all(int(rack_of[nid]) == hub.rack for nid in members)

        assert hub.accurate <= members
        if hub.mesoscale:
            assert hub.promotions - hub.demotions == len(hub.accurate)
        else:
            # batched-but-accurate: everyone materialised at construction,
            # never through the counted promote path
            assert hub.accurate == members
            assert hub.promotions == hub.demotions == 0

        for nid in members:
            if nid in hub.accurate:
                assert nid in jt.tasktrackers
            else:
                # pooled: no tracker object, and provably idle — any work
                # offer would have promoted the node first
                assert nid not in jt.tasktrackers
                assert jt.slots.all_free(nid)

    assert seen == set(sim.cluster.slave_ids)


@pytest.mark.parametrize("case", range(N_RANDOM))
def test_random_mesoscale_run_preserves_pool_invariants(case: int) -> None:
    rng = random.Random(0xDA7E + case)
    sim = _build(
        n_nodes=rng.randrange(60, 300),
        n_jobs=rng.randrange(4, 13),
        seed=rng.randrange(1, 10_000_000),
        scheduler=rng.choice(["fifo", "fair"]),
    )
    sim.run(until=40.0)
    _check_hub_invariants(sim)  # mid-run: promotions in flight
    sim.run()
    _check_hub_invariants(sim)  # drained: stragglers demoted or inert
    result = sim.finalize()
    sim.close()
    assert result.n_jobs == sim.workload.n_jobs
    assert result.makespan_s > 0
    assert sum(h.promotions for h in sim.jobtracker.hubs) > 0


@pytest.mark.parametrize("scheduler", ["fifo", "fair"])
def test_mesoscale_matches_batched_accurate(scheduler: str) -> None:
    """Pooling idle trackers must not change a single result metric."""
    results = {}
    for mode in ("batch", "meso"):
        spec = scale_spec(200, mesoscale=(mode == "meso"), hb_batch=True)
        workload = synthesize_wl1(np.random.default_rng(7), n_jobs=10)
        config = ExperimentConfig(
            cluster_spec=spec, scheduler=scheduler,
            dare=DareConfig.elephant_trap(), seed=7,
        )
        d = result_to_dict(run_experiment(config, workload))
        d.pop("config")  # differs by construction (the mesoscale flag)
        results[mode] = d
    assert results["meso"] == results["batch"]


def test_mis_sequenced_promote_and_demote_raise() -> None:
    sim = _build(n_nodes=80, n_jobs=6, seed=11)
    sim.run(until=60.0)
    hub = next(h for h in sim.jobtracker.hubs if h.accurate)

    accurate = min(hub.accurate)
    with pytest.raises(RuntimeError, match="already accurate"):
        hub.promote(accurate)

    pooled = sorted(set(hub.member_ids) - hub.accurate)
    if pooled:
        with pytest.raises(RuntimeError, match="not accurate"):
            hub.demote(pooled[0])

    # an accurate node that is NOT demotable (busy slots, stored blocks,
    # or in-flight attempts) must refuse demotion
    busy = [n for n in sorted(hub.accurate) if not hub._demotable(n)]
    if busy:
        with pytest.raises(RuntimeError):
            hub.demote(busy[0])

    sim.run()
    sim.finalize()
    sim.close()


def _meso_config(check_invariants: bool) -> ExperimentConfig:
    return ExperimentConfig(
        cluster_spec=scale_spec(200, mesoscale=True), scheduler="fair",
        dare=DareConfig.elephant_trap(), seed=3,
        check_invariants=check_invariants,
    )


def test_checked_mesoscale_cell_matches_unchecked() -> None:
    """The invariant checker audits pooled nodes without perturbing them."""
    results = {}
    for checked in (False, True):
        workload = synthesize_wl1(np.random.default_rng(3), n_jobs=8)
        d = result_to_dict(run_experiment(_meso_config(checked), workload))
        # differ by construction: the config flag and the checker's tallies
        d.pop("config")
        results[checked] = (
            d.pop("trace_records_checked"), d.pop("invariant_sweeps"), d
        )
    assert results[False][:2] == (0, 0)
    assert min(results[True][:2]) > 0, "the checked run never audited"
    assert results[True][2] == results[False][2]


def test_corrupted_pooled_node_slots_raise() -> None:
    workload = synthesize_wl1(np.random.default_rng(3), n_jobs=8)
    sim = Simulation(_meso_config(True), workload)
    sim.run(until=40.0)
    jt = sim.jobtracker
    pooled = min(
        nid for hub in jt.hubs for nid in hub.member_ids
        if nid not in hub.accurate
    )
    assert pooled not in jt.tasktrackers
    jt.slots.free_map[pooled] = jt.slots.cap_map[pooled] + 1
    with pytest.raises(InvariantViolation, match=f"node {pooled}: free map slots"):
        sim.checker.check_now()
    sim.close()
