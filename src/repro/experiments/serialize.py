"""JSON round-trips for experiment configs and results.

Two jobs:

* **Shipping results across process and run boundaries.**  The sweep
  executor (:mod:`repro.experiments.sweep`) runs cells in worker
  processes and caches their results on disk; both paths move an
  :class:`~repro.experiments.runner.ExperimentResult` through the dict
  forms here.
* **Stable identity.**  :func:`canonical_json` renders a dict with
  sorted keys and no whitespace, so equal results serialize to equal
  bytes and a config's canonical form can be hashed into a cache key.

The round-trip is exact for everything the evaluation reads: floats go
through JSON's repr round-trip (lossless for finite doubles), tuples are
restored from lists, and the metrics collector's task/job records are
rebuilt as their original NamedTuples.  One field is deliberately
dropped because it cannot be deterministic: ``engine_wall_s`` (wall
clock).  A deserialized result carries ``engine_wall_s=0.0``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.baselines.cdrm import CdrmConfig
from repro.baselines.scarlett import ScarlettConfig
from repro.cluster.cluster import ClusterSpec
from repro.cluster.disk import DiskParams
from repro.cluster.network import NetworkParams
from repro.core.config import DareConfig, Policy
from repro.experiments.runner import ExperimentConfig, ExperimentResult
from repro.metrics.collector import JobRecord, MapRecord, MetricsCollector
from repro.metrics.locality import LocalityStats

#: bump when the serialized result layout changes shape
RESULT_FORMAT = 1


def canonical_json(doc: Dict) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- ExperimentConfig ---------------------------------------------------------


def cluster_spec_to_dict(spec: ClusterSpec) -> Dict:
    """ClusterSpec (with nested network/disk params) as plain data."""
    d = spec._asdict()
    d["network"] = spec.network._asdict()
    d["disk"] = spec.disk._asdict()
    d["cpu_stall_range"] = list(spec.cpu_stall_range)
    # scale-mode flags are omitted at their defaults so pre-existing specs
    # serialize (and content-address) exactly as before they were added;
    # cluster_spec_from_dict restores absent keys via the NamedTuple
    # defaults.  Mesoscale specs still carry the retired "hb_batch" key
    # (mesoscale always batched heartbeats), so their cache keys and
    # trace headers are unchanged
    for flag in ("lite_network", "mesoscale"):
        if not d[flag]:
            del d[flag]
    if spec.mesoscale:
        d["hb_batch"] = True
    return d


def cluster_spec_from_dict(d: Dict) -> ClusterSpec:
    """Inverse of :func:`cluster_spec_to_dict`."""
    d = dict(d)
    d.pop("hb_batch", None)
    d["network"] = NetworkParams(**d["network"])
    d["disk"] = DiskParams(**d["disk"])
    d["cpu_stall_range"] = tuple(d["cpu_stall_range"])
    return ClusterSpec(**d)


def config_to_dict(config: ExperimentConfig) -> Dict:
    """ExperimentConfig as a JSON-serializable dict (exact round-trip).

    The ``model`` and ``rollout`` keys are omitted at their defaults (no
    weights, no rollout) — like the cluster spec's scale flags — so every
    pre-existing config serializes, content-addresses, and traces exactly
    as it did before the learned-policy fields were added.
    """
    dare_dict = {
        "policy": config.dare.policy.value,
        "p": config.dare.p,
        "threshold": config.dare.threshold,
        "budget": config.dare.budget,
    }
    if config.dare.model:
        dare_dict["model"] = list(config.dare.model)
    doc = {
        "cluster_spec": cluster_spec_to_dict(config.cluster_spec),
        "scheduler": config.scheduler,
        "dare": dare_dict,
        "seed": config.seed,
        "replication": config.replication,
        "scarlett": None if config.scarlett is None else config.scarlett._asdict(),
        "cdrm": None if config.cdrm is None else config.cdrm._asdict(),
        "failures": [[t, node] for t, node in config.failures],
        "failure_detection_s": config.failure_detection_s,
        "speculative": config.speculative,
        "fair_delay_s": config.fair_delay_s,
        "trace_path": config.trace_path,
        "trace_engine_events": config.trace_engine_events,
        "check_invariants": config.check_invariants,
        "invariant_sweep_every": config.invariant_sweep_every,
        "profile": config.profile,
        "profile_sample_every": config.profile_sample_every,
    }
    if config.rollout is not None:
        rollout_dict = dict(config.rollout._asdict())
        # jobs is an execution knob (parallel scoring is byte-identical
        # to serial), so like trace_path/profile it never identifies the
        # cell; prune *does* change decisions and is kept when set, but
        # omitted at its default so pre-pruning documents round-trip
        del rollout_dict["jobs"]
        if not rollout_dict["prune"]:
            del rollout_dict["prune"]
        doc["rollout"] = rollout_dict
    return doc


def config_from_dict(d: Dict) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`."""
    from repro.policies.rollout import RolloutConfig

    dare = d["dare"]
    rollout = d.get("rollout")
    try:
        failures = tuple((float(t), int(node)) for t, node in d["failures"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"failures: {exc}") from None
    return ExperimentConfig(
        cluster_spec=cluster_spec_from_dict(d["cluster_spec"]),
        scheduler=d["scheduler"],
        dare=DareConfig(
            policy=Policy(dare["policy"]),
            p=dare["p"],
            threshold=dare["threshold"],
            budget=dare["budget"],
            model=tuple(dare.get("model", ())),
        ),
        rollout=None if rollout is None else RolloutConfig(**rollout),
        seed=d["seed"],
        replication=d["replication"],
        scarlett=None if d["scarlett"] is None else ScarlettConfig(**d["scarlett"]),
        cdrm=None if d["cdrm"] is None else CdrmConfig(**d["cdrm"]),
        failures=failures,
        failure_detection_s=d["failure_detection_s"],
        speculative=d["speculative"],
        fair_delay_s=d["fair_delay_s"],
        # observability-only fields are absent from trace headers (they
        # never affect simulation behaviour): fall back to the defaults
        trace_path=d.get("trace_path", ""),
        trace_engine_events=d["trace_engine_events"],
        check_invariants=d["check_invariants"],
        invariant_sweep_every=d["invariant_sweep_every"],
        profile=d.get("profile", False),
        profile_sample_every=d.get("profile_sample_every", 7),
    )


# -- ExperimentResult ---------------------------------------------------------


def _collector_to_dict(collector: Optional[MetricsCollector]) -> Optional[Dict]:
    if collector is None:
        return None
    return {
        "map_records": [list(rec) for rec in collector.map_records],
        "reduce_durations": list(collector.reduce_durations),
        "job_records": [
            [
                rec.job_id,
                rec.submit_time,
                rec.first_task_time,
                rec.finish_time,
                rec.n_maps,
                rec.n_reduces,
                list(rec.locality_counts),
                rec.input_bytes,
            ]
            for rec in collector.job_records
        ],
    }


def _collector_from_dict(d: Optional[Dict]) -> Optional[MetricsCollector]:
    if d is None:
        return None
    collector = MetricsCollector()
    collector.map_records = [MapRecord(*rec) for rec in d["map_records"]]
    collector.reduce_durations = list(d["reduce_durations"])
    collector.job_records = [
        JobRecord(
            job_id=rec[0],
            submit_time=rec[1],
            first_task_time=rec[2],
            finish_time=rec[3],
            n_maps=rec[4],
            n_reduces=rec[5],
            locality_counts=tuple(rec[6]),
            input_bytes=rec[7],
        )
        for rec in d["job_records"]
    ]
    return collector


def result_to_dict(result: ExperimentResult) -> Dict:
    """ExperimentResult as a JSON-serializable dict.

    ``engine_wall_s`` is dropped (wall-clock state); everything else
    round-trips exactly through :func:`result_from_dict`.
    """
    return {
        "format": RESULT_FORMAT,
        "config": config_to_dict(result.config),
        "workload": result.workload,
        "n_jobs": result.n_jobs,
        "locality": list(result.locality),
        "job_locality": result.job_locality,
        "gmtt_s": result.gmtt_s,
        "slowdown": result.slowdown,
        "mean_map_s": result.mean_map_s,
        "blocks_created": result.blocks_created,
        "blocks_created_per_job": result.blocks_created_per_job,
        "blocks_evicted": result.blocks_evicted,
        "replication_disk_writes": result.replication_disk_writes,
        "cv_before": result.cv_before,
        "cv_after": result.cv_after,
        "makespan_s": result.makespan_s,
        "traffic_bytes": dict(result.traffic_bytes),
        "blocks_lost_replicas": result.blocks_lost_replicas,
        "data_loss_blocks": result.data_loss_blocks,
        "repairs_completed": result.repairs_completed,
        "tasks_requeued": result.tasks_requeued,
        "scarlett_replicas_created": result.scarlett_replicas_created,
        "cdrm_replicas_created": result.cdrm_replicas_created,
        "speculative_launched": result.speculative_launched,
        "speculative_wasted": result.speculative_wasted,
        "speculative_won": result.speculative_won,
        "trace_records_checked": result.trace_records_checked,
        "invariant_sweeps": result.invariant_sweeps,
        "events_processed": result.events_processed,
        "collector": _collector_to_dict(result.collector),
    }


def result_from_dict(d: Dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    if d.get("format") != RESULT_FORMAT:
        raise ValueError(f"unsupported result format {d.get('format')!r}")
    return ExperimentResult(
        config=config_from_dict(d["config"]),
        workload=d["workload"],
        n_jobs=d["n_jobs"],
        locality=LocalityStats(*d["locality"]),
        job_locality=d["job_locality"],
        gmtt_s=d["gmtt_s"],
        slowdown=d["slowdown"],
        mean_map_s=d["mean_map_s"],
        blocks_created=d["blocks_created"],
        blocks_created_per_job=d["blocks_created_per_job"],
        blocks_evicted=d["blocks_evicted"],
        replication_disk_writes=d["replication_disk_writes"],
        cv_before=d["cv_before"],
        cv_after=d["cv_after"],
        makespan_s=d["makespan_s"],
        traffic_bytes=dict(d["traffic_bytes"]),
        blocks_lost_replicas=d["blocks_lost_replicas"],
        data_loss_blocks=d["data_loss_blocks"],
        repairs_completed=d["repairs_completed"],
        tasks_requeued=d["tasks_requeued"],
        scarlett_replicas_created=d["scarlett_replicas_created"],
        cdrm_replicas_created=d["cdrm_replicas_created"],
        speculative_launched=d["speculative_launched"],
        speculative_wasted=d["speculative_wasted"],
        speculative_won=d["speculative_won"],
        trace_records_checked=d["trace_records_checked"],
        invariant_sweeps=d["invariant_sweeps"],
        events_processed=d["events_processed"],
        engine_wall_s=0.0,
        collector=_collector_from_dict(d["collector"]),
    )


def result_to_json(result: ExperimentResult) -> str:
    """Canonical JSON text of a result — equal results, equal bytes."""
    return canonical_json(result_to_dict(result))
