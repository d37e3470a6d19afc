"""Nodes built on first use against nodes built up front.

A mesoscale cluster builds a slave's :class:`~repro.cluster.node.Node`
only when something first asks :meth:`Cluster.node` for it; an unbuilt
node reads as alive with no contention.  The oracle is the same cell
with every node built right after the cluster's set-up draws: traces
with the ``engine.event`` firehose on must match byte for byte, and so
must the result documents.  The cells run at replication 1 on 1,000
nodes, so a few hundred slaves hold no block, and with a DARE budget
large enough to create replicas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cdrm import CdrmConfig
from repro.baselines.scarlett import ScarlettConfig
from repro.cluster.cluster import Cluster, scale_spec
from repro.core.config import DareConfig
from repro.experiments import runner
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.serialize import result_to_dict
from repro.failures.injector import FailureInjector
from repro.workloads.swim import synthesize_wl2

SEED = 5
N_NODES = 1000
#: a slave that holds no block and runs no task before it fails at t=140
NEVER_BUILT = 15

_LRU = DareConfig.greedy_lru(budget=2.0)
_CELLS = {
    "fair": dict(scheduler="fair", dare=_LRU),
    "fifo": dict(scheduler="fifo", dare=DareConfig.elephant_trap(budget=2.0)),
    "failures": dict(scheduler="fair", dare=_LRU, failures=((72.0, 36), (140.0, NEVER_BUILT))),
    "scarlett-repair": dict(
        scheduler="fair", dare=_LRU, replication=2,
        scarlett=ScarlettConfig(epoch_s=20.0), failures=((72.0, 36), (145.0, 7)),
    ),
    "cdrm": dict(scheduler="fifo", dare=_LRU, cdrm=CdrmConfig(period_s=150.0)),
}


class _BuiltCluster(Cluster):
    """The oracle: every node built before anything else reads one."""

    def __init__(self, spec, streams) -> None:
        super().__init__(spec, streams)
        self.slaves  # noqa: B018 - builds every unbuilt node


def _config(cell: str, **extra) -> ExperimentConfig:
    overrides = dict(_CELLS[cell])
    overrides.setdefault("replication", 1)
    return ExperimentConfig(
        cluster_spec=scale_spec(N_NODES, mesoscale=True), seed=SEED, **overrides, **extra
    )


def _workload():
    return synthesize_wl2(np.random.default_rng(SEED), n_jobs=60)


def _run(cell: str, trace_path):
    config = _config(cell, trace_path=str(trace_path), trace_engine_events=True)
    result = run_experiment(config, _workload())
    return result, trace_path.read_bytes()


@pytest.mark.parametrize("cell", sorted(_CELLS))
def test_nodes_built_on_first_use_match_nodes_built_up_front(cell, tmp_path, monkeypatch):
    failed_unbuilt = []
    fail = FailureInjector._fail

    def recording_fail(self, node_id):
        if self.namenode.cluster.nodes[node_id] is None:
            failed_unbuilt.append(node_id)
        fail(self, node_id)

    monkeypatch.setattr(FailureInjector, "_fail", recording_fail)
    lazy, lazy_trace = _run(cell, tmp_path / "trace.jsonl")
    monkeypatch.setattr(runner, "Cluster", _BuiltCluster)
    eager, eager_trace = _run(cell, tmp_path / "trace.jsonl")

    assert lazy_trace == eager_trace
    assert result_to_dict(lazy) == result_to_dict(eager)
    # each cell exercises what it names
    assert lazy.blocks_created > 0
    if cell == "failures":
        assert lazy.tasks_requeued > 0
        assert failed_unbuilt == [NEVER_BUILT]
    if cell == "scarlett-repair":
        assert lazy.scarlett_replicas_created > 0 and lazy.repairs_completed > 0
    if cell == "cdrm":
        assert lazy.cdrm_replicas_created > 0


def test_cdrm_passes_build_no_node():
    """A CDRM pass ranks the slaves from ``Cluster.nodes`` without building
    them, so a cell where every block is under target still leaves the
    slaves that never hold or run anything unbuilt."""
    sim = runner.Simulation(_config("cdrm"), _workload())
    sim.run()
    assert sim.finalize().cdrm_replicas_created > 0
    assert sim.cdrm.passes_run > 0
    assert sum(node is not None for node in sim.cluster.nodes) < N_NODES
