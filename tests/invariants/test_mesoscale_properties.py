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
* a slave's ``Node`` is built only once it holds a DataNode, is promoted
  or is stopped (the cluster builds nodes on first use);
* an explicitly mis-sequenced promote/demote raises instead of corrupting
  the pool;
* a mesoscale run produces **identical** results to hubs whose members
  all hold a TaskTracker (the oracle of the deleted batched-accurate
  mode) on the same seed, because promotion is driven by the same beat
  decisions the accurate tracker would have made;
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
from repro.mapreduce.heartbeat_hub import HeartbeatHub
from repro.observability.invariants import InvariantViolation
from repro.workloads.swim import synthesize_wl1
from tests.conftest import materialize_hubs

N_RANDOM = int(os.environ.get("INVARIANT_EXAMPLES", "6"))


def _build(n_nodes: int, n_jobs: int, seed: int, *,
           scheduler: str = "fair") -> Simulation:
    spec = scale_spec(n_nodes, mesoscale=True)
    workload = synthesize_wl1(np.random.default_rng(seed), n_jobs=n_jobs)
    config = ExperimentConfig(
        cluster_spec=spec, scheduler=scheduler,
        dare=DareConfig.elephant_trap(), seed=seed,
    )
    return Simulation(config, workload)


def _check_hub_invariants(sim: Simulation, promoted: set) -> None:
    jt = sim.jobtracker
    hubs = jt.hubs
    assert hubs, "mesoscale mode must create rack hubs"
    rack_of = sim.cluster.topology.rack_of

    seen: set = set()
    for hub in hubs:
        members = set(hub.member_ids)
        assert hub.member_ids == sorted(members)
        assert not (members & seen), "a node belongs to two hubs"
        seen |= members
        assert all(int(rack_of[nid]) == hub.rack for nid in members)

        assert hub.accurate <= members
        assert hub.promotions - hub.demotions == len(hub.accurate)

        for nid in members:
            if nid in hub.accurate:
                assert nid in jt.tasktrackers
            else:
                # pooled: no tracker object, and provably idle — any work
                # offer would have promoted the node first
                assert nid not in jt.tasktrackers
                assert jt.slots.all_free(nid)

    assert seen == set(sim.cluster.slave_ids)

    # a Node is built iff it is the master, holds a DataNode or a tracker
    # (now, or since a promotion: demotion keeps the Node), or was stopped
    cluster = sim.cluster
    built = {nid for nid, node in enumerate(cluster.nodes) if node is not None}
    users = {0, *sim.namenode.datanodes, *jt.tasktrackers, *promoted, *cluster.dead_slaves}
    assert built == users, (sorted(built - users), sorted(users - built))


def _record_promotions(monkeypatch) -> set:
    """Every node id a rack hub promotes from now on."""
    promoted: set = set()
    promote = HeartbeatHub.promote

    def recording(self, node_id):
        promoted.add(node_id)
        return promote(self, node_id)

    monkeypatch.setattr(HeartbeatHub, "promote", recording)
    return promoted


@pytest.mark.parametrize("case", range(N_RANDOM))
def test_random_mesoscale_run_preserves_pool_invariants(case: int, monkeypatch) -> None:
    rng = random.Random(0xDA7E + case)
    sim = _build(
        n_nodes=rng.randrange(60, 300),
        n_jobs=rng.randrange(4, 13),
        seed=rng.randrange(1, 10_000_000),
        scheduler=rng.choice(["fifo", "fair"]),
    )
    promoted = _record_promotions(monkeypatch)
    sim.run(until=40.0)
    _check_hub_invariants(sim, promoted)  # mid-run: promotions in flight
    sim.run()
    _check_hub_invariants(sim, promoted)  # drained: stragglers demoted or inert
    result = sim.finalize()
    sim.close()
    assert result.n_jobs == sim.workload.n_jobs
    assert result.makespan_s > 0
    assert sum(h.promotions for h in sim.jobtracker.hubs) > 0


@pytest.mark.parametrize("scheduler", ["fifo", "fair"])
def test_mesoscale_matches_batched_accurate(scheduler: str, monkeypatch) -> None:
    """Pooling idle trackers must not change a single result metric."""
    config = ExperimentConfig(
        cluster_spec=scale_spec(200, mesoscale=True), scheduler=scheduler,
        dare=DareConfig.elephant_trap(), seed=7,
    )
    results = {}
    for mode in ("meso", "batch"):
        if mode == "batch":
            materialize_hubs(monkeypatch)
        workload = synthesize_wl1(np.random.default_rng(7), n_jobs=10)
        results[mode] = result_to_dict(run_experiment(config, workload))
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
