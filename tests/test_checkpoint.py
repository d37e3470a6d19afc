"""Checkpoint determinism: forked runs are byte-identical to cold runs.

The snapshot layer's contract is that pausing a simulation, freezing it,
and resuming a restored copy changes *nothing*: the resumed run fires the
same events in the same order with the same RNG draws, so its JSONL trace
is byte-for-byte the trace of an uninterrupted run from the same seed.
These tests enforce that across every policy x scheduler cell, under
failure injection, under speculative execution, and with the invariant
checker armed — plus the disk round trip and fork independence.
"""

import itertools

import numpy as np
import pytest

from repro.checkpoint import (
    SNAPSHOT_FORMAT,
    Snapshot,
    SnapshotSession,
    StaticPool,
    parse_patch,
    snapshot,
)
from repro.checkpoint.incremental import _dumps
from repro.checkpoint.snapshot import _unpickler
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, Simulation, make_tracer
from repro.observability.trace import NULL_TRACER, JsonlSink
from repro.workloads.swim import synthesize_wl1, synthesize_wl2

POLICIES = {
    "off": DareConfig.off(),
    "lru": DareConfig.greedy_lru(),
    "et": DareConfig.elephant_trap(),
}
SCHEDULERS = ("fifo", "fair", "fair-skip")
SEED = 20110926
N_JOBS = 12


def _config(policy, scheduler, trace_path, **overrides) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler=scheduler,
        dare=POLICIES[policy],
        seed=SEED,
        trace_path=str(trace_path),
        **overrides,
    )


def _workload():
    return synthesize_wl1(np.random.default_rng(SEED), n_jobs=N_JOBS)


def _build(config) -> Simulation:
    return Simulation(config, _workload(), tracer=make_tracer(config))


def _cold_run(config):
    sim = _build(config)
    sim.run()
    result = sim.finalize()
    sim.close()
    return result


def _snapshot_at(config, t):
    sim = _build(config)
    sim.run(until=t)
    snap = snapshot(sim)
    sim.close()
    return snap


def _finish_fork(snap, trace_path, patch=""):
    sim = snap.restore(trace_path=str(trace_path))
    if patch:
        parse_patch(patch).apply(sim)
    sim.run()
    result = sim.finalize()
    sim.close()
    return result


# ---------------------------------------------------------------------------
# the full cell matrix: fork at mid-makespan, run to the end, compare bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "policy,scheduler", list(itertools.product(POLICIES, SCHEDULERS))
)
def test_fork_trace_is_byte_identical_to_cold_run(policy, scheduler, tmp_path):
    cold = _cold_run(_config(policy, scheduler, tmp_path / "cold.jsonl"))
    snap = _snapshot_at(
        _config(policy, scheduler, tmp_path / "warm.jsonl"), cold.makespan_s / 2
    )
    result = _finish_fork(snap, tmp_path / "fork.jsonl")
    assert (tmp_path / "fork.jsonl").read_bytes() == \
        (tmp_path / "cold.jsonl").read_bytes(), \
        f"{policy}/{scheduler}: forked run diverged from the cold run"
    assert result.events_processed == cold.events_processed
    assert result.gmtt_s == cold.gmtt_s


def test_fork_under_failure_injection(tmp_path):
    """Snapshot between two planned failures: one fired, one still queued."""
    failures = ((20.0, 2), (45.0, 6))
    kw = dict(failures=failures, check_invariants=True)
    cold = _cold_run(_config("lru", "fair", tmp_path / "cold.jsonl", **kw))
    assert cold.blocks_lost_replicas > 0
    snap = _snapshot_at(_config("lru", "fair", tmp_path / "warm.jsonl", **kw), 30.0)
    result = _finish_fork(snap, tmp_path / "fork.jsonl")
    assert (tmp_path / "fork.jsonl").read_bytes() == \
        (tmp_path / "cold.jsonl").read_bytes()
    assert result.blocks_lost_replicas == cold.blocks_lost_replicas
    assert result.repairs_completed == cold.repairs_completed


def test_fork_under_speculation(tmp_path):
    kw = dict(speculative=True)
    cold = _cold_run(_config("et", "fair", tmp_path / "cold.jsonl", **kw))
    snap = _snapshot_at(
        _config("et", "fair", tmp_path / "warm.jsonl", **kw), cold.makespan_s / 2
    )
    result = _finish_fork(snap, tmp_path / "fork.jsonl")
    assert (tmp_path / "fork.jsonl").read_bytes() == \
        (tmp_path / "cold.jsonl").read_bytes()
    assert result.speculative_launched == cold.speculative_launched


# ---------------------------------------------------------------------------
# fork independence and the disk round trip
# ---------------------------------------------------------------------------


def test_forks_are_independent(tmp_path):
    """Running one fork to completion leaves a sibling fork untouched."""
    cold = _cold_run(_config("et", "fifo", tmp_path / "cold.jsonl"))
    snap = _snapshot_at(
        _config("et", "fifo", tmp_path / "warm.jsonl"), cold.makespan_s / 2
    )
    _finish_fork(snap, tmp_path / "first.jsonl")
    _finish_fork(snap, tmp_path / "second.jsonl")
    reference = (tmp_path / "cold.jsonl").read_bytes()
    assert (tmp_path / "first.jsonl").read_bytes() == reference
    assert (tmp_path / "second.jsonl").read_bytes() == reference


def test_snapshot_survives_disk_round_trip(tmp_path):
    cold = _cold_run(_config("lru", "fifo", tmp_path / "cold.jsonl"))
    snap = _snapshot_at(
        _config("lru", "fifo", tmp_path / "warm.jsonl"), cold.makespan_s / 2
    )
    snap.save(str(tmp_path / "snap.ckpt"))
    loaded = Snapshot.load(str(tmp_path / "snap.ckpt"))
    assert loaded.time == snap.time
    assert loaded.events_processed == snap.events_processed
    _finish_fork(loaded, tmp_path / "fork.jsonl")
    assert (tmp_path / "fork.jsonl").read_bytes() == \
        (tmp_path / "cold.jsonl").read_bytes()


def test_restore_shares_each_racks_control_set():
    """A restored NameNode and its DataNodes hold one control set per rack."""
    workload = synthesize_wl2(np.random.default_rng(5), n_jobs=20)
    sim = Simulation(
        ExperimentConfig(scheduler="fifo", dare=POLICIES["lru"], seed=5), workload
    )
    sim.run(until=68.0)  # nodes with replica announcements still queued
    queued = [set(ids) for ids in sim.namenode.control_by_rack]
    assert any(queued)
    nn = snapshot(sim).restore().namenode
    sim.close()
    assert [set(ids) for ids in nn.control_by_rack] == queued
    for node_id, dn in nn.datanodes.items():
        assert dn.control is nn.control_by_rack[nn._rack_of[node_id]]


def test_load_rejects_unknown_format(tmp_path):
    import pickle

    path = tmp_path / "bad.ckpt"
    path.write_bytes(pickle.dumps({"format": 999}))
    with pytest.raises(ValueError, match="unsupported snapshot format"):
        Snapshot.load(str(path))
    # checkpoints written before snapshots carried a static payload
    path.write_bytes(pickle.dumps({"format": 1, "payload": b""}))
    with pytest.raises(ValueError, match="unsupported snapshot format 1"):
        Snapshot.load(str(path))
    # checkpoints written before the scheduler kept ready-job lists
    path.write_bytes(pickle.dumps({"format": 2, "payload": b""}))
    with pytest.raises(ValueError, match="unsupported snapshot format 2"):
        Snapshot.load(str(path))
    # checkpoints written before the NameNode kept per-rack control sets
    path.write_bytes(pickle.dumps({"format": 3, "payload": b""}))
    with pytest.raises(ValueError, match="unsupported snapshot format 3"):
        Snapshot.load(str(path))
    # checkpoints written before the event heap held (time, seq, event)
    # tuples and TaskTracker.beat re-armed its own heartbeat event
    path.write_bytes(pickle.dumps({"format": 4, "payload": b""}))
    with pytest.raises(ValueError, match="unsupported snapshot format 4"):
        Snapshot.load(str(path))
    # checkpoints written while ClusterSpec carried hb_batch and hubs a
    # mesoscale flag
    path.write_bytes(pickle.dumps({"format": 5, "payload": b""}))
    with pytest.raises(ValueError, match="unsupported snapshot format 5"):
        Snapshot.load(str(path))


def test_restore_with_trace_requires_a_traced_source(tmp_path):
    config = ExperimentConfig(dare=POLICIES["off"], seed=SEED)
    sim = _build(config)
    sim.run(until=10.0)
    snap = snapshot(sim)
    assert snap.trace_prefix is None
    with pytest.raises(ValueError, match="no trace prefix"):
        snap.restore(trace_path=str(tmp_path / "out.jsonl"))
    # without a trace path the restore works and finishes the run
    fork = snap.restore()
    fork.run()
    assert fork.finished


# ---------------------------------------------------------------------------
# what-if patches: deterministic, and each one actually changes the world
# ---------------------------------------------------------------------------


def test_patched_forks_are_deterministic(tmp_path):
    """The same patch on two forks of one snapshot: identical bytes."""
    snap = _snapshot_at(_config("lru", "fair", tmp_path / "warm.jsonl"), 30.0)
    a = _finish_fork(snap, tmp_path / "a.jsonl", patch="kill:4")
    b = _finish_fork(snap, tmp_path / "b.jsonl", patch="kill:4")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert a.blocks_lost_replicas == b.blocks_lost_replicas > 0


def test_kill_patch_diverges_from_unpatched_run(tmp_path):
    cold = _cold_run(_config("lru", "fair", tmp_path / "cold.jsonl"))
    snap = _snapshot_at(
        _config("lru", "fair", tmp_path / "warm.jsonl"), cold.makespan_s / 2
    )
    patched = _finish_fork(snap, tmp_path / "patched.jsonl", patch="kill:3")
    assert (tmp_path / "patched.jsonl").read_bytes() != \
        (tmp_path / "cold.jsonl").read_bytes()
    assert patched.blocks_lost_replicas > 0 and cold.blocks_lost_replicas == 0


def test_policy_flip_patch_swaps_the_service(tmp_path):
    # past the first job's arrival: a live dynamic replica exists to carry
    snap = _snapshot_at(
        _config("lru", "fair", tmp_path / "warm.jsonl", check_invariants=True), 60.0
    )
    sim = snap.restore(trace_path=str(tmp_path / "flip.jsonl"))
    live_before = {
        node_id: [
            bid for bid in dn.dynamic_blocks if bid not in dn.pending_deletion
        ]
        for node_id, dn in sim.namenode.datanodes.items()
    }
    parse_patch("policy:et").apply(sim)
    assert sim.dare is sim.jobtracker.dare
    assert sim.checker is not None and sim.checker.dare is sim.dare
    assert sim.config.dare.policy.value == "greedy-lru"  # config is history
    assert any(live_before.values())
    for node_id, live in live_before.items():
        state = sim.dare.states.get(node_id)
        if state is None:
            tracked = []  # no policy built on this node: it tracks nothing
        elif hasattr(state.policy, "tracked_blocks"):
            tracked = sorted(state.policy.tracked_blocks())
        else:
            tracked = sorted(b.block_id for b in state.policy.ring_blocks())
        assert tracked == sorted(live), \
            f"node {node_id}: live replicas not carried into the new policy"
    sim.run()
    assert sim.finished  # and the invariant checker stayed quiet throughout
    sim.finalize()
    sim.close()


def test_pin_patch_makes_the_block_local(tmp_path):
    snap = _snapshot_at(_config("off", "fifo", tmp_path / "warm.jsonl"), 20.0)
    sim = snap.restore()
    block_id = next(iter(sim.namenode.blocks))
    target = next(
        n for n in sorted(sim.namenode.datanodes)
        if not sim.namenode.datanode(n).has_block(block_id)
    )
    parse_patch(f"pin:{block_id}:{target}").apply(sim)
    assert sim.namenode.is_local(block_id, target)
    # pinning is idempotent
    parse_patch(f"pin:{block_id}:{target}").apply(sim)
    sim.run()
    assert sim.finished


def test_parse_patch_rejects_malformed_specs():
    for bad in ("", "kill", "kill:x", "policy:both", "pin:1", "teleport:3"):
        with pytest.raises(ValueError):
            parse_patch(bad)


# ---------------------------------------------------------------------------
# the sweep consumer: shared prefixes produce the cold path's exact results
# ---------------------------------------------------------------------------


def test_fork_cells_shared_prefix_matches_cold_path(tmp_path):
    from repro.experiments.serialize import result_to_json
    from repro.experiments.sweep import (
        ForkCell,
        WorkloadSpec,
        results_of,
        run_fork_cells,
    )

    workload = WorkloadSpec("wl1", N_JOBS, SEED)
    cells = [
        ForkCell(
            ExperimentConfig(scheduler="fair", dare=POLICIES["lru"], seed=SEED),
            workload,
            fork_time=30.0,
            patch=patch,
            tag=tag,
        )
        for tag, patch in (
            ("control", ""),
            ("kill2", "kill:2"),
            ("kill5", "kill:5"),
            ("flip-et", "policy:et"),
        )
    ]
    shared = results_of(run_fork_cells(cells, no_cache=True, share_prefix=True))
    cold = results_of(run_fork_cells(cells, no_cache=True, share_prefix=False))
    assert [result_to_json(r) for r in shared] == [result_to_json(r) for r in cold]
    # the kill patches actually produced futures distinct from the control
    control, kill2, kill5 = (result_to_json(shared[i]) for i in (0, 1, 2))
    assert kill2 != control and kill5 != control and kill2 != kill5

    # cached rerun returns the same bytes without recomputing
    from repro.experiments.sweep import ResultCache

    cache = ResultCache(tmp_path / "cache")
    first = results_of(run_fork_cells(cells, cache=cache))
    assert cache.misses == len(cells)
    again = results_of(run_fork_cells(cells, cache=cache))
    assert cache.hits == len(cells)
    assert [result_to_json(r) for r in again] == [result_to_json(r) for r in first]


# ---------------------------------------------------------------------------
# session snapshots: the rollout engine's per-epoch fast path
# ---------------------------------------------------------------------------


def _session_sim(**overrides):
    config = ExperimentConfig(dare=DareConfig.greedy_lru(), seed=SEED, **overrides)
    sim = Simulation(config, _workload(), tracer=make_tracer(config))
    sim.run(until=20.0)
    return sim


def test_delta_snapshot_round_trips_like_a_full_snapshot():
    """Session-restored and tokenless-pickled forks finish identically."""
    from repro.experiments.serialize import result_to_json

    sim = _session_sim()
    session = SnapshotSession(sim, check=True)  # self-check every epoch
    for until in (30.0, 40.0):
        delta = session.snapshot()
        full = _dumps(sim)  # the whole live graph, no static tokens
        assert delta.format == SNAPSHOT_FORMAT
        assert delta.time == sim.now
        # the delta payload really is a delta, not a second full pickle
        assert len(delta.payload) < len(full)
        a = delta.restore()
        b = _unpickler(full, NULL_TRACER).load()
        a.run()
        b.run()
        assert result_to_json(a.finalize()) == result_to_json(b.finalize())
        sim.run(until=until)
    sim.close()


def test_self_check_catches_a_mutated_static_object():
    """A static object changed behind the session's back fails loudly."""
    sim = _session_sim()
    session = SnapshotSession(sim, check=True)
    session.snapshot()
    # renaming an INode leaves the file-tree version alone, so the session
    # keeps its stale static payload instead of rebasing
    inode = next(iter(sim.namenode.files.values()))
    inode.name = inode.name + "-renamed"
    sim.run(until=30.0)
    with pytest.raises(AssertionError, match="re-pickle to different bytes"):
        session.snapshot()
    sim.close()


def test_session_snapshot_never_touches_the_trace_sink(tmp_path, monkeypatch):
    """Only the one-shot snapshot() embeds a trace prefix."""
    sim = _session_sim(trace_path=str(tmp_path / "run.jsonl"))
    session = SnapshotSession(sim, check=True)

    def boom(self):
        raise AssertionError("the session flushed the trace sink")

    with monkeypatch.context() as patched:
        patched.setattr(JsonlSink, "flush", boom)
        snap = session.snapshot()
    assert snap.trace_prefix is None
    with pytest.raises(ValueError, match="no trace prefix"):
        snap.restore(trace_path=str(tmp_path / "fork.jsonl"))
    assert snapshot(sim).trace_prefix
    sim.close()


def test_delta_forks_share_immutable_statics_without_crosstalk():
    """Pool-restored forks share static objects; the host is untouched."""
    from repro.experiments.serialize import result_to_json

    sim = _session_sim()
    session = SnapshotSession(sim)
    snap = session.snapshot()
    # restoring against the session's pool shares the *live* objects
    fork = snap.restore(pool=session.pool)
    assert fork.config is sim.config
    assert fork.workload is sim.workload
    assert fork.cluster.topology is sim.cluster.topology
    fork.run()
    # a second pool shares across sibling forks but not with the host
    pool = StaticPool()
    f1, f2 = snap.restore(pool=pool), snap.restore(pool=pool)
    assert f1.config is f2.config is not sim.config
    f1.run()
    # the host, its forks, and a cold run all agree after the fork ran
    sim.run()
    f2.run()
    host_doc = result_to_json(sim.finalize())
    assert result_to_json(f2.finalize()) == host_doc
    cold = ExperimentConfig(dare=DareConfig.greedy_lru(), seed=SEED)
    cold_sim = Simulation(cold, _workload(), tracer=make_tracer(cold))
    cold_sim.run()
    assert result_to_json(cold_sim.finalize()) == host_doc


def test_delta_session_rebases_when_the_file_tree_changes():
    from repro.hdfs.block import DEFAULT_BLOCK_SIZE

    sim = _session_sim()
    session = SnapshotSession(sim)
    a = session.snapshot()
    b = session.snapshot()
    # steady state: the static payload is pickled once and reused
    assert a.static_payload is b.static_payload
    sim.namenode.create_file("late-arrival", 2 * DEFAULT_BLOCK_SIZE)
    c = session.snapshot()
    assert c.static_payload != a.static_payload
    fork = c.restore()
    assert any(f.name == "late-arrival" for f in fork.namenode.files.values())
    fork.run()  # the rebased snapshot is still a working checkpoint
    sim.close()


def test_static_pool_caches_by_payload_bytes():
    sim = _session_sim()
    session = SnapshotSession(sim)
    snap = session.snapshot()
    pool = StaticPool()
    first = pool.resolve(snap.static_payload)
    assert pool.resolve(snap.static_payload) is first  # cache hit
    assert pool.resolve(snap.static_payload)[0] is first[0]
    sim.namenode.create_file("other", 1)
    rebased = session.snapshot()
    assert pool.resolve(rebased.static_payload) is not first  # miss on rebase
    sim.close()
