"""End-to-end tests: trace reading, shadow reconstruction, verification.

The round-trip contract under test: run an experiment with ``trace_path``
set, reconstruct the control-plane state purely from the JSONL records,
and land on *exactly* the counters and per-node end state the live run
reported — for every policy x scheduler cell, with failures, with
speculation, and with the Scarlett baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.scarlett import ScarlettConfig
from repro.cluster.cluster import CCT_SPEC
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.observability.trace import (
    BLOCK_REPLICATED,
    ENGINE_EVENT,
    HEARTBEAT,
    RUN_CONFIG,
    RUN_SUMMARY,
    SCARLETT_EPOCH,
    TASK_SCHEDULED,
    TraceRecord,
    Tracer,
)
from repro.replay import (
    ReconstructionError,
    TraceFormatError,
    load_trace,
    read_trace,
    reconstruct,
)
from repro.replay.reader import parse_line, validate_record
from repro.workloads.swim import synthesize_wl1

SPEC = CCT_SPEC._replace(n_nodes=10)

POLICIES = {
    "off": DareConfig.off(),
    "lru": DareConfig.greedy_lru(budget=0.15),
    "et": DareConfig.elephant_trap(p=0.5, threshold=1, budget=0.15),
}


def run_traced(tmp_path, policy="lru", scheduler="fifo", n_jobs=6, seed=9, **kw):
    """Run one small traced cell; returns (result, trace path)."""
    workload = synthesize_wl1(np.random.default_rng(seed), n_jobs=n_jobs)
    path = str(tmp_path / f"{policy}-{scheduler}-{seed}.jsonl")
    config = ExperimentConfig(
        cluster_spec=SPEC,
        scheduler=scheduler,
        dare=POLICIES[policy],
        seed=seed,
        trace_path=path,
        **kw,
    )
    return run_experiment(config, workload), path


class TestRoundTrip:
    @pytest.mark.parametrize("scheduler", ["fifo", "fair", "fair-skip"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_every_cell_reconstructs_exactly(self, tmp_path, policy, scheduler):
        result, path = run_traced(tmp_path, policy, scheduler)
        index = load_trace(path)
        assert index.config is not None and index.summary is not None
        state = reconstruct(index)
        report = state.verify()
        assert report.checks and report.ok, report.format()
        assert state.verify_against_result(result).ok

    def test_failure_injection_round_trip(self, tmp_path):
        result, path = run_traced(
            tmp_path, "lru", "fair", n_jobs=10, seed=4,
            failures=((25.0, 2), (60.0, 6)),
        )
        state = reconstruct(load_trace(path))
        report = state.verify()
        assert report.ok, report.format()
        assert state.verify_against_result(result).ok
        assert not state.nodes[2].alive and not state.nodes[6].alive

    def test_speculative_round_trip(self, tmp_path):
        result, path = run_traced(
            tmp_path, "lru", "fair-skip", n_jobs=10, seed=3, speculative=True,
        )
        state = reconstruct(load_trace(path))
        assert state.verify().ok
        assert state.speculative_launched == result.speculative_launched

    def test_scarlett_round_trip_emits_epoch_records(self, tmp_path):
        result, path = run_traced(
            tmp_path, "off", "fifo", n_jobs=10, seed=5,
            scarlett=ScarlettConfig(epoch_s=30.0),
            check_invariants=True, invariant_sweep_every=50,
        )
        index = load_trace(path)
        epochs = index.of_type(SCARLETT_EPOCH)
        assert epochs
        for rec in epochs:
            slack = rec.data["slack_bytes"]
            assert rec.data["spent_bytes"] <= rec.data["budget_bytes"] + slack
        state = reconstruct(index)
        assert state.verify().ok
        assert state.scarlett_epochs == len(epochs)

    def test_engine_event_firehose_round_trip(self, tmp_path):
        _, path = run_traced(
            tmp_path, "off", "fifo", n_jobs=4, trace_engine_events=True
        )
        index = load_trace(path)
        assert index.count(ENGINE_EVENT) > 0
        state = reconstruct(index)
        assert state.verify().ok
        assert state.engine_events == index.count(ENGINE_EVENT)


class TestCrashedRuns:
    def test_crashed_run_leaves_replayable_trace(self, tmp_path):
        workload = synthesize_wl1(np.random.default_rng(3), n_jobs=6)
        path = str(tmp_path / "crash.jsonl")
        config = ExperimentConfig(
            cluster_spec=SPEC, dare=POLICIES["lru"], seed=3, trace_path=path
        )
        tracer = Tracer()
        countdown = [400]

        def bomb(record):
            countdown[0] -= 1
            if countdown[0] <= 0:
                raise RuntimeError("mid-run crash")

        tracer.subscribe(bomb)
        with pytest.raises(RuntimeError, match="mid-run crash"):
            run_experiment(config, workload, tracer=tracer)

        # the finally-guarded close flushed a parseable, footer-less trace
        records = list(read_trace(path))
        assert len(records) >= 399
        assert records[0].type == RUN_CONFIG
        assert all(r.type != RUN_SUMMARY for r in records)
        state = reconstruct(records)  # strict: the prefix is self-consistent
        report = state.verify()
        assert not report.checks
        assert any("crashed" in note for note in report.notes)


class TestCorruptionDetection:
    def test_tampered_summary_fails_verify(self, tmp_path):
        _, path = run_traced(tmp_path)
        records = list(read_trace(path))
        footer = records[-1]
        assert footer.type == RUN_SUMMARY
        data = dict(footer.data)
        data["blocks_created"] += 1
        records[-1] = TraceRecord(footer.type, footer.time, data)
        report = reconstruct(records).verify()
        assert not report.ok
        assert any(c.name == "blocks_created" for c in report.failures())

    def test_dropped_record_never_passes_silently(self, tmp_path):
        _, path = run_traced(tmp_path)
        records = list(read_trace(path))
        idx = next(
            i for i, r in enumerate(records) if r.type == BLOCK_REPLICATED
        )
        del records[idx]
        try:
            state = reconstruct(records)
        except ReconstructionError:
            return  # strict replay caught the hole directly
        assert not state.verify().ok

    def test_replay_violation_is_an_invariant_violation(self, tmp_path):
        """Replay raises the live checker's violation type, with its
        message shape: the trigger record and the trace tail."""
        from repro.observability.invariants import InvariantViolation

        _, path = run_traced(tmp_path)
        records = list(read_trace(path))
        idx = next(
            i for i, r in enumerate(records) if r.type == BLOCK_REPLICATED
        )
        records.insert(idx + 1, records[idx])  # the same replica twice
        with pytest.raises(ReconstructionError, match="is already live") as err:
            reconstruct(records)
        assert isinstance(err.value, InvariantViolation)
        assert err.value.record is records[idx]
        assert err.value.tail and err.value.tail[-1] is records[idx]
        message = str(err.value)
        assert f"  triggered by: {records[idx].to_json()}" in message
        assert f"  trace tail ({len(err.value.tail)} records, oldest first):" in message


class TestReaderValidation:
    def _hb(self, t, node=1):
        return TraceRecord(
            HEARTBEAT, t, {"node": node, "free_map_slots": 2, "free_reduce_slots": 2}
        )

    def _write(self, tmp_path, records):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(r.to_json() + "\n" for r in records))
        return str(path)

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown record type"):
            validate_record(TraceRecord("no.such.type", 0.0, {}))

    def test_missing_required_field_rejected(self):
        with pytest.raises(TraceFormatError, match="missing fields"):
            validate_record(TraceRecord(BLOCK_REPLICATED, 1.0, {"node": 1}))

    def test_unknown_field_rejected(self):
        rec = self._hb(1.0)
        rec.data["mystery"] = 42
        with pytest.raises(TraceFormatError, match="unknown fields"):
            validate_record(rec)

    def test_bad_timestamp_rejected(self):
        for bad in (-1.0, float("nan"), float("inf"), True, "soon"):
            with pytest.raises(TraceFormatError, match="bad timestamp"):
                validate_record(self._hb(bad))

    def test_non_int_node_rejected(self):
        with pytest.raises(TraceFormatError, match="not an int"):
            validate_record(self._hb(1.0, node="one"))

    def test_map_task_requires_locality_fields(self):
        rec = TraceRecord(
            TASK_SCHEDULED, 1.0, {"node": 1, "job": 0, "task": 0, "kind": "map"}
        )
        with pytest.raises(TraceFormatError, match="map task missing"):
            validate_record(rec)

    def test_time_going_backwards_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._hb(5.0), self._hb(1.0)])
        with pytest.raises(TraceFormatError, match="goes backwards"):
            list(read_trace(path))

    def test_config_must_be_first_record(self, tmp_path):
        config = TraceRecord(
            RUN_CONFIG, 6.0,
            {"workload": "wl1", "scheduler": "fifo", "policy": "off", "seed": 1},
        )
        path = self._write(tmp_path, [self._hb(5.0), config])
        with pytest.raises(TraceFormatError, match="first record"):
            list(read_trace(path))

    def test_nothing_after_summary(self, tmp_path):
        summary = TraceRecord(
            RUN_SUMMARY, 5.0,
            {"n_jobs": 0, "blocks_created": 0, "blocks_evicted": 0,
             "locality_node": 0, "locality_rack": 0, "locality_remote": 0,
             "job_locality": 0.0, "nodes": {}},
        )
        path = self._write(tmp_path, [summary, self._hb(6.0)])
        with pytest.raises(TraceFormatError, match="after the run.summary"):
            list(read_trace(path))

    def test_not_json_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._hb(1.0).to_json() + "\n{oops\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            list(read_trace(str(path)))

    def test_reserved_key_collision_round_trips(self):
        rec = TraceRecord(
            HEARTBEAT, 2.0,
            {"node": 1, "free_map_slots": 0, "free_reduce_slots": 0,
             "type": "payload-type", "t": 99, "data.x": "already-prefixed"},
        )
        back = parse_line(rec.to_json())
        assert back == rec


class TestTraceIndex:
    def test_lookup_helpers(self, tmp_path):
        _, path = run_traced(tmp_path)
        index = load_trace(path)
        assert index.count(TASK_SCHEDULED) == len(index.of_type(TASK_SCHEDULED))
        node_id = next(iter(index.by_node))
        assert all(r.data["node"] == node_id for r in index.on_node(node_id))
        first, last = index.span
        assert first == 0.0 and last > 0.0

    def test_snapshot_replays_a_prefix(self, tmp_path):
        _, path = run_traced(tmp_path)
        index = load_trace(path)
        mid = index.span[1] / 2
        assert all(r.time <= mid for r in index.until(mid))
        state = index.snapshot(mid)
        final = reconstruct(index)
        assert state.records_applied < final.records_applied
        assert state.blocks_created <= final.blocks_created


class TestTraceBackedFigures:
    def test_sweep_points_match_live_results(self, tmp_path):
        """A trace alone gives a figure point: the reconstructed job
        locality and blocks per job equal the live run's."""
        for policy in ("off", "lru"):
            result, path = run_traced(tmp_path, policy, "fifo")
            state = reconstruct(load_trace(path))
            assert state.job_locality() == pytest.approx(result.job_locality, abs=1e-9)
            assert state.blocks_created / len(state.jobs) == pytest.approx(
                result.blocks_created_per_job
            )
