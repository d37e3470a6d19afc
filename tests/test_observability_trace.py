"""Unit tests: the trace bus, sinks, and disabled-tracer overhead contract."""

from __future__ import annotations

import json

import pytest

from repro.hdfs.namenode import NameNode
from repro.observability.trace import (
    BLOCK_REPLICATED,
    ENGINE_EVENT,
    HEARTBEAT,
    NULL_TRACER,
    RECORD_TYPES,
    JsonlSink,
    RingBufferSink,
    TraceRecord,
    Tracer,
)
from repro.simulation.engine import Engine


class TestTracer:
    def test_emit_reaches_sinks_and_subscribers(self):
        tracer = Tracer()
        ring = RingBufferSink()
        seen = []
        tracer.add_sink(ring)
        tracer.subscribe(seen.append)
        rec = tracer.emit(HEARTBEAT, 1.5, node=3)
        assert rec == TraceRecord(HEARTBEAT, 1.5, {"node": 3})
        assert list(ring.records) == [rec]
        assert seen == [rec]

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(enabled=False)
        ring = RingBufferSink()
        tracer.add_sink(ring)
        assert tracer.emit(HEARTBEAT, 0.0, node=1) is None
        assert len(ring) == 0

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.emit(HEARTBEAT, 0.0) is None

    def test_record_types_are_distinct(self):
        assert len(RECORD_TYPES) == 16

    def test_close_closes_closable_sinks(self, tmp_path):
        tracer = Tracer()
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        tracer.add_sink(sink)
        tracer.add_sink(RingBufferSink())  # no close(); must not break
        tracer.close()
        assert sink._fh.closed


class TestRingBufferSink:
    def test_keeps_only_last_capacity_records(self):
        ring = RingBufferSink(capacity=3)
        for i in range(10):
            ring.write(TraceRecord(HEARTBEAT, float(i), {"node": i}))
        assert len(ring) == 3
        assert [r.time for r in ring.records] == [7.0, 8.0, 9.0]
        assert [r.time for r in ring.tail(2)] == [8.0, 9.0]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.write(TraceRecord(BLOCK_REPLICATED, 2.0, {"node": 1, "block": 9}))
            sink.write(TraceRecord(HEARTBEAT, 3.0, {"node": 1}))
        lines = path.read_text().splitlines()
        assert sink.records_written == 2
        first = json.loads(lines[0])
        assert first == {"type": BLOCK_REPLICATED, "t": 2.0, "node": 1, "block": 9}

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()

    def test_reserved_key_collisions_are_namespaced(self):
        rec = TraceRecord(
            HEARTBEAT, 1.0, {"type": "x", "t": 9, "data.y": 2, "node": 4}
        )
        obj = json.loads(rec.to_json())
        assert obj["type"] == HEARTBEAT and obj["t"] == 1.0
        assert obj["data.type"] == "x"
        assert obj["data.t"] == 9
        assert obj["data.data.y"] == 2
        assert obj["node"] == 4

    def test_flush_every_writes_promptly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path), flush_every=1)
        sink.write(TraceRecord(HEARTBEAT, 1.0, {"node": 2}))
        assert path.read_text().strip()  # on disk before close
        sink.close()

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "t.jsonl"), flush_every=0)


class TestEngineFirehose:
    def test_engine_events_off_by_default(self):
        tracer = Tracer()
        ring = RingBufferSink()
        tracer.add_sink(ring)
        engine = Engine(tracer=tracer)
        engine.schedule(1.0, lambda: None, "tick")
        engine.run()
        assert not any(r.type == ENGINE_EVENT for r in ring.records)

    def test_engine_events_opt_in(self):
        tracer = Tracer(engine_events=True)
        ring = RingBufferSink()
        tracer.add_sink(ring)
        engine = Engine(tracer=tracer)
        engine.schedule(1.0, lambda: None, "tick")
        engine.schedule(2.0, lambda: None, "tock")
        engine.run()
        labels = [r.data["label"] for r in ring.records if r.type == ENGINE_EVENT]
        assert labels == ["tick", "tock"]


class TestComponentWiring:
    def test_namenode_hands_tracer_to_datanodes(self, small_cluster):
        tracer = Tracer()
        nn = NameNode(small_cluster, tracer=tracer)
        assert all(nn.datanode(n).tracer is tracer for n in small_cluster.slave_ids)

    def test_default_is_null_tracer(self, small_cluster):
        nn = NameNode(small_cluster)
        assert nn.tracer is NULL_TRACER
        assert all(
            nn.datanode(n).tracer is NULL_TRACER for n in small_cluster.slave_ids
        )

    def test_dynamic_insert_and_evict_emit_records(self, small_cluster):
        tracer = Tracer()
        ring = RingBufferSink()
        tracer.add_sink(ring)
        nn = NameNode(small_cluster, tracer=tracer)
        nn.create_file("f", 2 * nn.block_size, replication=2)
        block = nn.blocks[0]
        node = next(
            n for n in small_cluster.slave_ids if not nn.datanode(n).has_block(block.block_id)
        )
        dn = nn.datanode(node)
        dn.dynamic_capacity_bytes = block.size_bytes
        dn.insert_dynamic(block, now=1.0)
        dn.mark_for_deletion(block.block_id, now=2.0)
        types = [r.type for r in ring.records]
        assert types == [
            "budget.charge",
            "block.replicated",
            "budget.refund",
            "block.evicted",
        ]
        assert all(r.data["node"] == node for r in ring.records)
