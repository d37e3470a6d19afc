"""Replication policies: how they are built, the learned scorer, and
the rollout engine.

Pins the contracts the policy layer promises:

* the DARE service builds the policy ``DareConfig.policy`` names with
  the historical arguments (same RNG stream names, same argument order),
  so fixed-seed runs reproduce their pinned results;
* configs naming no policy, or out-of-range service configs, fail loudly
  before a simulation is built;
* the learned policy's one ``AccessStats`` survives checkpoint
  snapshot/fork round-trips, still shared by every node policy;
* the rollout engine is seed-deterministic, degenerates to its host run
  when it never acts, and never scores below its greedy host on the
  pinned benchmark seeds (the CI ``policy-bench`` gate).
"""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.baselines.cdrm import CdrmConfig
from repro.baselines.scarlett import ScarlettConfig
from repro.checkpoint import snapshot
from repro.cluster.cluster import CCT_SPEC, Cluster
from repro.core.config import DareConfig, Policy
from repro.core.elephant_trap import ElephantTrapPolicy
from repro.core.greedy import GreedyLFUPolicy, GreedyLRUPolicy
from repro.core.manager import DareReplicationService
from repro.experiments.runner import (
    ExperimentConfig,
    Simulation,
    make_tracer,
    run_experiment,
)
from repro.experiments.serialize import (
    config_from_dict,
    config_to_dict,
    result_to_json,
)
from repro.hdfs.namenode import NameNode
from repro.policies import ReplicationPolicy
from repro.policies.learned import (
    DEFAULT_WEIGHTS,
    FEATURE_NAMES,
    N_FEATURES,
    AccessStats,
    LearnedPolicy,
    feature_vector,
    load_model,
    save_model,
)
from repro.policies.rollout import RolloutConfig, run_rollout_experiment
from repro.policies.train import (
    dataset_from_trace,
    fit_logistic,
    synthesize_corpus,
    trace_paths,
)
from repro.simulation.rng import RandomStreams
from repro.workloads.swim import synthesize_wl1

SEED = 20110926

#: the class the service builds for each policy that replicates
BUILT_CLASS = {
    Policy.GREEDY_LRU: GreedyLRUPolicy,
    Policy.GREEDY_LFU: GreedyLFUPolicy,
    Policy.ELEPHANT_TRAP: ElephantTrapPolicy,
    Policy.LEARNED: LearnedPolicy,
}


def _workload(n_jobs=12, seed=SEED):
    return synthesize_wl1(np.random.default_rng(seed), n_jobs=n_jobs)


def _config(policy):
    return DareConfig(
        policy=policy,
        model=DEFAULT_WEIGHTS if policy is Policy.LEARNED else (),
    )


def _service(config, seed=1234):
    """A DARE service over a fresh CCT NameNode, its RNG seeded ``seed``."""
    streams = RandomStreams(seed)
    namenode = NameNode(Cluster(CCT_SPEC, streams))
    return DareReplicationService(config, namenode, streams)


class TestRegistry:
    """The service builds the node policy ``DareConfig.policy`` names."""

    def test_builtin_names_registered(self):
        """Every policy but OFF builds its own class on first use."""
        assert set(BUILT_CLASS) == set(Policy) - {Policy.OFF}
        for policy, cls in BUILT_CLASS.items():
            service = _service(_config(policy))
            assert type(service.node_state(3).policy) is cls
            assert isinstance(service.node_state(3).policy, ReplicationPolicy)

    def test_policy_enum_values_resolve(self):
        """Each enum value, read back from its name, builds a policy that
        satisfies the protocol; OFF builds none."""
        for policy in Policy:
            service = _service(_config(Policy(policy.value)))
            if policy is Policy.OFF:
                with pytest.raises(ValueError, match="off"):
                    service.node_state(3)
                assert service.states == {}
                continue
            built = service.node_state(3).policy
            assert isinstance(built, ReplicationPolicy)
            assert isinstance(built, BUILT_CLASS[policy])

    def test_unknown_policy_lists_registered(self):
        with pytest.raises(ValueError, match="greedy-lru") as info:
            DareConfig(policy="no-such-policy").validate()
        for policy in Policy:
            assert policy.value in str(info.value)
        assert "'no-such-policy'" in str(info.value)

    def test_unknown_service_rejected(self):
        """Out-of-range baseline-service configs are refused by the cell
        check, before any Simulation is built."""
        with pytest.raises(ValueError, match="scarlett"):
            ExperimentConfig(scarlett=ScarlettConfig(epoch_s=0.0)).validate()
        with pytest.raises(ValueError, match="cdrm"):
            ExperimentConfig(cdrm=CdrmConfig(period_s=-1.0)).validate()
        ok = ExperimentConfig(scarlett=ScarlettConfig(), cdrm=CdrmConfig())
        assert ok.validate() is ok

    def test_duplicate_registration_rejected(self):
        """Two services built from one config give each node a policy of
        the same class with identical RNG draws."""
        for policy in BUILT_CLASS:
            a, b = _service(_config(policy)), _service(_config(policy))
            for node in (1, 7, 19):
                pa, pb = a.node_state(node).policy, b.node_state(node).policy
                assert type(pa) is type(pb)
                if policy is Policy.ELEPHANT_TRAP:
                    assert [pa._rng.random() for _ in range(32)] == \
                        [pb._rng.random() for _ in range(32)]

    def test_decorator_registration_roundtrip(self):
        """A learned service's node policies all share its one AccessStats."""
        service = _service(_config(Policy.LEARNED))
        assert isinstance(service.access_stats, AccessStats)
        policies = [service.node_state(node).policy for node in (1, 2, 5, 19)]
        assert all(p.stats is service.access_stats for p in policies)
        assert _service(DareConfig.greedy_lru()).access_stats is None

    def test_baselines_satisfy_protocol(self):
        p = 0.3
        rng = RandomStreams(1).python("x")
        for policy in (GreedyLRUPolicy(), GreedyLFUPolicy(),
                       ElephantTrapPolicy(p, 1, rng)):
            assert isinstance(policy, ReplicationPolicy)


class TestBaselineParity:
    """The service builds the baselines with their historical arguments."""

    def test_elephant_trap_uses_historical_stream(self):
        """ET must draw from the 'dare.coin.N' stream so fixed-seed runs
        reproduce the old traces exactly."""
        config = DareConfig.elephant_trap(p=0.5)
        built = _service(config, seed=99).node_state(3).policy
        reference = ElephantTrapPolicy(
            0.5, config.threshold, RandomStreams(99).python("dare.coin.3")
        )
        draws = [built._rng.random() for _ in range(64)]
        assert draws == [reference._rng.random() for _ in range(64)]

    #: (job_locality, makespan_s) of the 12-job WL1 cell at SEED, as the
    #: direct constructors computed them
    PINNED = {
        "lru": (0.19444444444444442, 73.76557357270343),
        "et": (0.19444444444444442, 74.06366030920226),
    }

    @pytest.mark.parametrize("policy", ["lru", "et"])
    def test_run_matches_pinned_golden(self, policy):
        """End-to-end fixed-seed runs still produce the pinned results."""
        dare = (DareConfig.greedy_lru() if policy == "lru"
                else DareConfig.elephant_trap())
        result = run_experiment(
            ExperimentConfig(dare=dare, seed=SEED), _workload()
        )
        assert (result.job_locality, result.makespan_s) == self.PINNED[policy]


class TestLearnedPolicy:
    def test_weight_arity_validated(self):
        with pytest.raises(ValueError, match="weights"):
            LearnedPolicy((1.0, 2.0), 0, None, AccessStats())
        with pytest.raises(ValueError, match="model weights"):
            DareConfig.learned((0.0,) * (N_FEATURES + 2))

    def test_recency_reads_previous_access(self):
        """The recency feature must not see the access being decided:
        observe() then feature_vector() reflects the *previous* sighting."""
        stats = AccessStats()
        stats.observe(0, 7, False, 100.0)
        first = feature_vector(stats, 0, 7, 3, 0.0, 100.0)
        assert first[FEATURE_NAMES.index("recency")] == 0.0
        stats.observe(0, 7, False, 160.0)
        second = feature_vector(stats, 0, 7, 3, 0.0, 160.0)
        assert 0.0 < second[FEATURE_NAMES.index("recency")] < 1.0

    def test_model_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(DEFAULT_WEIGHTS, path, accuracy=0.74)
        assert load_model(path) == DEFAULT_WEIGHTS

    def test_model_file_feature_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(DEFAULT_WEIGHTS, path)
        doc = json.loads(open(path).read())
        doc["features"][0] = "renamed"
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(ValueError, match="features"):
            load_model(path)

    def test_learned_run_deterministic(self):
        config = ExperimentConfig(
            dare=DareConfig.learned(DEFAULT_WEIGHTS), seed=SEED
        )
        a = run_experiment(config, _workload())
        b = run_experiment(config, _workload())
        assert result_to_json(a) == result_to_json(b)

    def test_config_model_roundtrip_and_omitted_at_default(self):
        learned = ExperimentConfig(dare=DareConfig.learned(DEFAULT_WEIGHTS))
        doc = config_to_dict(learned)
        assert doc["dare"]["model"] == list(DEFAULT_WEIGHTS)
        assert config_from_dict(doc) == learned
        # baselines serialize exactly as before the field existed
        baseline = config_to_dict(ExperimentConfig(dare=DareConfig.greedy_lru()))
        assert "model" not in baseline["dare"]
        assert "rollout" not in baseline


class TestPluginStateCheckpointing:
    def test_learned_state_survives_fork(self):
        """Snapshot mid-run, fork, finish both: byte-identical results,
        and the fork's node policies still share one AccessStats."""
        config = ExperimentConfig(
            dare=DareConfig.learned(DEFAULT_WEIGHTS), seed=SEED
        )
        cold = Simulation(config, _workload(), tracer=make_tracer(config))
        cold.run()
        cold_result = cold.finalize()

        warm = Simulation(config, _workload(), tracer=make_tracer(config))
        # past the first job's arrival: node policies exist at the snapshot
        warm.run(until=60.0)
        fork = snapshot(warm).restore()

        shared = fork.dare.access_stats
        assert isinstance(shared, AccessStats)
        assert fork.dare.states
        for state in fork.dare.states.values():
            assert state.policy.stats is shared
            assert state.observe is not None  # re-resolved after unpickling

        fork.run()
        assert result_to_json(fork.finalize()) == result_to_json(cold_result)


class TestTraining:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("corpus")
        synthesize_corpus(str(d), n_jobs=12, seeds=(SEED,))
        return str(d)

    def test_corpus_paths_sorted(self, corpus):
        paths = trace_paths(corpus)
        assert paths == sorted(paths) and len(paths) == 2

    def test_dataset_counts_remote_decisions(self, corpus):
        """One example per remote map read in the trace — the exact set
        of decision points on_map_task consults the policy for."""
        path = trace_paths(corpus)[0]
        remote = sum(
            1
            for line in open(path)
            for rec in [json.loads(line)]
            if rec.get("type") == "task.scheduled"
            and rec.get("kind") == "map"
            and not rec.get("data_local")
        )
        assert len(dataset_from_trace(path)) == remote > 0

    def test_fit_deterministic(self, corpus):
        examples = dataset_from_trace(trace_paths(corpus)[0])
        a = fit_logistic(examples, epochs=50)
        b = fit_logistic(examples, epochs=50)
        assert a.weights == b.weights
        assert len(a.weights) == N_FEATURES + 1

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            fit_logistic([])


class TestRollout:
    ROLLOUT = RolloutConfig(epoch_s=10.0, branches=4, max_epochs=64)

    def _cell(self, **overrides):
        overrides.setdefault("rollout", self.ROLLOUT)
        return ExperimentConfig(
            dare=DareConfig.greedy_lru(), seed=SEED, **overrides,
        )

    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="epoch_s"):
            RolloutConfig(epoch_s=0.0).validate()
        with pytest.raises(ValueError, match="branches"):
            RolloutConfig(branches=0).validate()
        with pytest.raises(ValueError, match="horizon_s"):
            RolloutConfig(horizon_s=-1.0).validate()
        with pytest.raises(ValueError, match="jobs"):
            RolloutConfig(jobs=0).validate()
        with pytest.raises(ValueError, match="prune"):
            RolloutConfig(prune=-1).validate()

    def test_rollout_deterministic_across_runs(self, tmp_path):
        """Same trace -> same actions: the acceptance criterion."""
        from repro.experiments.serialize import canonical_json, result_to_dict

        t1, t2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        wl = lambda: _workload(n_jobs=32, seed=7)  # noqa: E731
        a = run_experiment(self._cell(trace_path=t1), wl())
        b = run_experiment(self._cell(trace_path=t2), wl())
        da, db = result_to_dict(a), result_to_dict(b)
        da["config"]["trace_path"] = db["config"]["trace_path"] = ""
        assert canonical_json(da) == canonical_json(db)
        assert open(t1, "rb").read() == open(t2, "rb").read()
        # rollout.decision records pass the published replay schema
        from repro.replay.reader import read_trace

        records = list(read_trace(t1, validate=True))
        assert any(r.type == "rollout.decision" for r in records)

    def test_actionless_rollout_equals_host_run(self, tmp_path):
        """With an epoch beyond the makespan the engine never forks; the
        run (result *and* trace bytes) is exactly the plain host run."""
        host = ExperimentConfig(
            dare=DareConfig.greedy_lru(), seed=SEED,
            trace_path=str(tmp_path / "host.jsonl"),
        )
        degenerate = dataclasses.replace(
            host,
            rollout=RolloutConfig(epoch_s=1e6),
            trace_path=str(tmp_path / "roll.jsonl"),
        )
        a = run_experiment(host, _workload())
        b = run_experiment(degenerate, _workload())
        assert (a.job_locality, a.makespan_s) == (b.job_locality, b.makespan_s)
        assert (open(host.trace_path, "rb").read()
                == open(degenerate.trace_path, "rb").read())

    def test_rollout_config_roundtrip(self):
        cell = self._cell()
        assert config_from_dict(config_to_dict(cell)) == cell
        assert "+rollout" in cell.label()

    def test_rollout_serialization_hides_jobs_and_keeps_prune(self):
        """`jobs` never identifies a cell (parallel == serial, byte for
        byte); `prune` changes decisions, so it does — but is omitted at
        its default so pre-pruning documents still round-trip."""
        plain = config_to_dict(self._cell())["rollout"]
        assert "jobs" not in plain and "prune" not in plain
        tuned = self._cell(
            rollout=self.ROLLOUT._replace(jobs=4, prune=2)
        )
        doc = config_to_dict(tuned)["rollout"]
        assert "jobs" not in doc
        assert doc["prune"] == 2
        restored = config_from_dict(config_to_dict(tuned))
        assert restored.rollout.prune == 2
        assert restored.rollout.jobs == 1  # execution knob, not identity
        # a jobs-4 cell and the serial cell serialize identically
        assert config_to_dict(tuned) == config_to_dict(
            self._cell(rollout=self.ROLLOUT._replace(prune=2))
        )

    @pytest.mark.parametrize("jobs", (2, 4))
    def test_parallel_scoring_is_byte_identical_to_serial(self, jobs, tmp_path):
        """The tentpole contract: decisions, trace bytes, and the
        ExperimentResult are unchanged at any worker count."""
        from repro.experiments.serialize import canonical_json, result_to_dict

        serial_cell = self._cell(trace_path=str(tmp_path / "serial.jsonl"))
        parallel_cell = self._cell(
            rollout=self.ROLLOUT._replace(jobs=jobs),
            trace_path=str(tmp_path / f"j{jobs}.jsonl"),
        )
        wl = lambda: _workload(n_jobs=32, seed=7)  # noqa: E731
        a = run_experiment(serial_cell, wl())
        b = run_experiment(parallel_cell, wl())
        da, db = result_to_dict(a), result_to_dict(b)
        da["config"]["trace_path"] = db["config"]["trace_path"] = ""
        assert canonical_json(da) == canonical_json(db)
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / f"j{jobs}.jsonl").read_bytes()

    def test_process_pool_matches_serial(self, tmp_path):
        """The process pool goes through the same reduction as serial."""
        from repro.checkpoint import SnapshotSession
        from repro.observability.trace import Tracer
        from repro.policies.parallel import ForkScorer
        from repro.policies.rollout import FeatureTap

        config = ExperimentConfig(dare=DareConfig.greedy_lru(), seed=7)
        sim = Simulation(config, _workload(n_jobs=32, seed=7),
                         tracer=Tracer())
        tap = FeatureTap()
        sim.tracer.subscribe(tap)
        sim.run(until=80.0)
        candidates = tap.candidates(sim, 4)
        assert candidates, "pinned cell must produce candidates by t=80"
        snap = SnapshotSession(sim).snapshot()
        rcfg = RolloutConfig(epoch_s=10.0, branches=4)
        with ForkScorer(1) as serial, ForkScorer(2) as pooled:
            base_a, scores_a = serial.score_epoch(snap, candidates, rcfg)
            base_b, scores_b = pooled.score_epoch(snap, candidates, rcfg)
            assert len(pooled._workers) == 2  # really scored in the pool
        assert base_a == base_b
        assert scores_a == scores_b

        # truncated-horizon scoring is deterministic and comparable too
        from repro.policies.parallel import score_fork

        hcfg = RolloutConfig(epoch_s=10.0, branches=4, horizon_s=30.0)
        h1 = score_fork(snap, candidates[0], hcfg)
        h2 = score_fork(snap, candidates[0], hcfg)
        assert h1 == h2
        assert 0.0 <= h1[0] <= 1.0 and h1[2] <= -sim.engine.now
        sim.close()

    def _scored_fork(self, monkeypatch, check_invariants, plant=None):
        """Score the no-op branch of a traced host paused at t=80.

        Returns ``(host, fork, types)``: ``types`` lists the records
        emitted while the fork was scored.  ``plant(fork)`` runs on the
        restored fork before it is scored.
        """
        from repro.checkpoint import Snapshot, SnapshotSession
        from repro.observability.trace import Tracer
        from repro.policies.parallel import score_fork

        config = ExperimentConfig(dare=DareConfig.greedy_lru(), seed=7,
                                  check_invariants=check_invariants)
        sim = Simulation(config, _workload(n_jobs=32, seed=7), tracer=Tracer())
        sim.run(until=80.0)
        snap = SnapshotSession(sim).snapshot()
        forks, types = [], []
        restore, emit = Snapshot.restore, Tracer.emit

        def spy_restore(self, *args, **kwargs):
            forks.append(restore(self, *args, **kwargs))
            if plant is not None:
                plant(forks[-1])
            return forks[-1]

        def spy_emit(self, *args, **kwargs):
            types.append(args[0])
            return emit(self, *args, **kwargs)

        monkeypatch.setattr(Snapshot, "restore", spy_restore)
        monkeypatch.setattr(Tracer, "emit", spy_emit)
        try:
            score_fork(snap, None, RolloutConfig(horizon_s=30.0))
        finally:
            monkeypatch.undo()
            sim.close()
        return sim, forks[-1], types

    def test_unchecked_forks_score_on_the_null_tracer(self, monkeypatch):
        """Nothing listens to a fork's bus, so scoring emits no record."""
        from repro.observability.trace import NULL_TRACER

        host, fork, types = self._scored_fork(monkeypatch, check_invariants=False)
        assert fork.now > host.now  # the fork ran
        assert fork.tracer is NULL_TRACER and fork.engine.tracer is NULL_TRACER
        assert types == []

    def test_checked_forks_keep_an_audited_bus(self, monkeypatch):
        """Restore re-attaches a checker only to an enabled bus, so a
        checked run's forks keep theirs, and a planted fault is caught."""
        from repro.observability.invariants import InvariantViolation

        seen = []

        def plant(fork):
            seen.append(fork)
            assert fork.tracer.enabled
            assert fork.checker.on_record in fork.tracer._subscribers
            node = min(fork.jobtracker.tasktrackers)
            fork.namenode.datanode(node).dynamic_bytes_used += 7

        with pytest.raises(InvariantViolation, match="dynamic_bytes_used"):
            self._scored_fork(monkeypatch, check_invariants=True, plant=plant)
        assert len(seen) == 1

    def _epoch(self):
        """A pinned epoch: (simulation, snapshot, candidates, config)."""
        from repro.checkpoint import SnapshotSession
        from repro.observability.trace import Tracer
        from repro.policies.rollout import FeatureTap

        config = ExperimentConfig(dare=DareConfig.greedy_lru(), seed=7)
        sim = Simulation(config, _workload(n_jobs=32, seed=7), tracer=Tracer())
        tap = FeatureTap()
        sim.tracer.subscribe(tap)
        sim.run(until=80.0)
        candidates = tap.candidates(sim, 4)
        assert len(candidates) >= 2, "pinned cell must produce candidates by t=80"
        snap = SnapshotSession(sim).snapshot()
        return sim, snap, candidates, RolloutConfig(epoch_s=10.0, branches=4)

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="the exit is monkeypatched into fork-inherited workers",
    )
    def test_worker_exit_mid_epoch_raises_naming_its_pid(self, monkeypatch):
        """A pool worker that dies while scoring fails the epoch loudly
        instead of leaving the host waiting on its pipe."""
        import os

        from repro.policies import parallel
        from repro.policies.parallel import ForkScorer

        sim, snap, candidates, rcfg = self._epoch()
        host, real = os.getpid(), parallel.score_fork

        def exit_in_worker(snap, action, rcfg, pool=None):
            # candidates are dealt round-robin: worker 0 scores the first
            if os.getpid() != host and action == candidates[0]:
                os._exit(3)
            return real(snap, action, rcfg, pool=pool)

        monkeypatch.setattr(parallel, "score_fork", exit_in_worker)
        with ForkScorer(2) as scorer:
            assert scorer._start_workers()
            pid = scorer._workers[0][0].pid
            with pytest.raises(RuntimeError, match=f"pid={pid} died mid-epoch"):
                scorer.score_epoch(snap, candidates, rcfg)
        sim.close()

    def test_pool_that_cannot_start_falls_back_to_serial(self, monkeypatch):
        """When the OS refuses a worker process, scoring runs in-process
        and gives exactly the serial scores."""
        import multiprocessing as mp

        from repro.policies.parallel import ForkScorer

        sim, snap, candidates, rcfg = self._epoch()
        with ForkScorer(1) as serial:
            expected = serial.score_epoch(snap, candidates, rcfg)

        def refuse(self):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(mp.process.BaseProcess, "start", refuse)
        with ForkScorer(2) as scorer:
            assert scorer.score_epoch(snap, candidates, rcfg) == expected
            assert scorer._workers == []  # nothing was left half-started
        sim.close()

    def test_worker_loop_scores_chunks_and_ships_failures(self):
        """`_worker_main` run in-process over a real pipe: one good chunk
        answered ("ok", scores), a poisoned one answered ("err", ...) so
        the host raises instead of hanging, then a clean shutdown."""
        import multiprocessing as mp

        from repro.checkpoint import SnapshotSession
        from repro.policies.parallel import _worker_main, score_fork

        config = ExperimentConfig(dare=DareConfig.greedy_lru(), seed=7)
        sim = Simulation(config, _workload(n_jobs=32, seed=7))
        sim.run(until=80.0)
        session = SnapshotSession(sim)
        snap = session.snapshot()
        rcfg = RolloutConfig(epoch_s=10.0, branches=4)
        host_conn, worker_conn = mp.Pipe(duplex=True)
        # a snapshot message overflows the pipe's OS buffer, so the loop
        # must be draining while we send — run it on a thread
        worker = threading.Thread(target=_worker_main, args=(worker_conn,))
        worker.start()
        host_conn.send((snap, rcfg, [(0, None), (1, None)]))
        host_conn.send((snap, None, [(0, None)]))  # rcfg=None blows up scoring
        host_conn.send(None)
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        status, payload = host_conn.recv()
        assert status == "ok"
        want = score_fork(snap, None, rcfg, pool=session.pool)
        assert payload == [(0, want), (1, want)]
        status, message = host_conn.recv()
        assert status == "err" and "horizon_s" in message
        host_conn.close()
        sim.close()

    def test_pruning_keeps_strict_improvement_and_is_deterministic(
        self, tmp_path
    ):
        """Top-k pruning trades branches for wall time: fewer forks, the
        no-op baseline never pruned, decisions identical across jobs."""
        wl = lambda: _workload(n_jobs=32, seed=SEED)  # noqa: E731
        greedy = run_experiment(
            ExperimentConfig(dare=DareConfig.greedy_lru(), seed=SEED), wl()
        )
        pruned_cell = self._cell(
            rollout=self.ROLLOUT._replace(prune=2),
            trace_path=str(tmp_path / "p1.jsonl"),
        )
        pruned = run_experiment(pruned_cell, wl())
        # the strict-improvement guarantee survives pruning
        assert pruned.job_locality >= greedy.job_locality
        # pruned decision records document how many branches were cut
        decisions = [
            json.loads(line)
            for line in open(pruned_cell.trace_path, encoding="utf-8")
            if '"rollout.decision"' in line
        ]
        assert decisions and all("pruned" in d for d in decisions)
        assert all(0 <= d["candidates"] <= 2 for d in decisions)
        # ... and pruning composes with parallel scoring byte-identically
        parallel_cell = self._cell(
            rollout=self.ROLLOUT._replace(prune=2, jobs=4),
            trace_path=str(tmp_path / "p4.jsonl"),
        )
        run_experiment(parallel_cell, wl())
        assert (tmp_path / "p1.jsonl").read_bytes() == \
            (tmp_path / "p4.jsonl").read_bytes()

    def test_gate_rollout_beats_greedy_on_pinned_seed(self):
        """The CI policy-bench gate: rollout-greedy >= greedy, and on
        this seed the improvement is strict (actions actually apply)."""
        wl = _workload(n_jobs=32, seed=SEED)
        greedy = run_experiment(
            ExperimentConfig(dare=DareConfig.greedy_lru(), seed=SEED), wl
        )
        rollout = run_experiment(self._cell(), wl)
        assert rollout.job_locality > greedy.job_locality
        assert rollout.traffic_bytes["rollout"] > 0
        assert rollout.config.rollout == self.ROLLOUT

    def test_rollout_requires_enabled_tracer(self):
        from repro.observability.trace import Tracer

        with pytest.raises(ValueError, match="enabled tracer"):
            run_rollout_experiment(
                self._cell(), _workload(), tracer=Tracer(enabled=False)
            )


class TestPolicyBench:
    def test_smoke_doc_and_gate(self):
        from repro.policies.bench import (
            check_gate,
            format_report,
            render_policy_grid,
            run_policy_bench,
        )

        doc = run_policy_bench(
            n_jobs=8, seeds=(SEED,), policies=("greedy-lru", "rollout")
        )
        assert {r["policy"] for r in doc["rows"]} == {"greedy-lru", "rollout"}
        assert doc["gate"] is not None
        assert doc["gate"]["ok"] == check_gate(doc["rows"])["ok"]
        assert "<svg" in render_policy_grid(doc)
        assert "gate" in format_report(doc)

    def test_unknown_column_rejected(self):
        from repro.core.config import POLICY_NAMES
        from repro.policies.bench import bench_config

        with pytest.raises(ValueError) as err:
            bench_config("no-such-policy")
        assert str(err.value) == (
            f"unknown policy 'no-such-policy' (expected one of "
            f"{', '.join(POLICY_NAMES)})")
