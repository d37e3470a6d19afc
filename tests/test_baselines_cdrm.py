"""Unit/integration tests: the CDRM availability-driven baseline."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cdrm import CdrmConfig, CdrmService
from repro.cluster.cluster import Cluster, scale_spec
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.hdfs.block import DEFAULT_BLOCK_SIZE, Block
from repro.hdfs.namenode import NameNode
from repro.metrics.traffic import TrafficMeter
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from repro.workloads.swim import synthesize_wl1
from tests.conftest import SMALL_SPEC


class TestConfig:
    def test_defaults_valid(self):
        CdrmConfig().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"availability_target": 1.0},
            {"availability_target": 0.0},
            {"node_availability": 0.0},
            {"period_s": 0.0},
            {"max_concurrent": 0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            CdrmConfig()._replace(**kw).validate()

    def test_target_replicas_formula(self):
        # 1-(1-0.8)^r >= 0.9999  ->  0.2^r <= 1e-4  ->  r = 6 (0.2^5=3.2e-4)
        cfg = CdrmConfig(availability_target=0.9999, node_availability=0.8)
        assert cfg.target_replicas == 6

    def test_high_node_availability_needs_fewer_replicas(self):
        lo = CdrmConfig(node_availability=0.6).target_replicas
        hi = CdrmConfig(node_availability=0.95).target_replicas
        assert hi < lo


class TestCdrmRuns:
    @pytest.fixture(scope="class")
    def wl(self):
        return synthesize_wl1(np.random.default_rng(7), n_jobs=60)

    @pytest.fixture(scope="class")
    def cdrm_cfg(self):
        return CdrmConfig(
            availability_target=0.999, node_availability=0.8, period_s=60.0,
            max_concurrent=16,
        )

    def test_replicas_reach_target(self, wl, cdrm_cfg):

        r = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, cdrm=cdrm_cfg), wl
        )
        assert r.cdrm_replicas_created > 0
        assert r.traffic_bytes["rebalancing"] > 0

    def test_availability_replication_is_uniform_not_popular(self, wl, cdrm_cfg):
        """CDRM treats every block alike — extra replicas scale with the
        *data set*, not with popularity (the paper's contrast)."""
        r = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, cdrm=cdrm_cfg), wl
        )
        dataset_blocks = sum(f.n_blocks for f in wl.catalog.files)
        target_extra = (cdrm_cfg.target_replicas - 3) * dataset_blocks
        # most of the uniform deficit gets filled (copies race the run end)
        assert r.cdrm_replicas_created > 0.5 * target_extra

    def test_dare_beats_cdrm_on_locality_per_byte(self, wl, cdrm_cfg):
        cdrm = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, cdrm=cdrm_cfg), wl
        )
        dare = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, dare=DareConfig.elephant_trap()),
            wl,
        )
        assert dare.traffic_bytes["rebalancing"] == 0
        assert cdrm.traffic_bytes["rebalancing"] > 0
        # per replication byte spent, DARE's locality is incomparably better
        assert dare.job_locality > 0.6 * cdrm.job_locality

    def test_deterministic(self, wl, cdrm_cfg):
        cfg = ExperimentConfig(cluster_spec=SMALL_SPEC, cdrm=cdrm_cfg)
        a = run_experiment(cfg, wl)
        b = run_experiment(cfg, wl)
        assert a.cdrm_replicas_created == b.cdrm_replicas_created
        assert a.gmtt_s == b.gmtt_s


def _per_block_reconcile(svc):
    """The oracle: the copies one pass queued when CDRM sorted every alive
    slave once per block that needed targets."""
    nn = svc.namenode

    def least_loaded_targets(bid, count):
        locs = nn.locations(bid)
        candidates = [n for n in nn.cluster.slaves if n.alive and n.node_id not in locs]
        datanodes = nn.datanodes

        def stored(node_id):
            dn = datanodes.get(node_id)
            return 0 if dn is None else len(dn.static_blocks) + len(dn.dynamic_blocks)

        candidates.sort(key=lambda n: (n.active_net_transfers, stored(n.node_id), n.node_id))
        return [n.node_id for n in candidates[:count]]

    queue = []
    for bid, locs in nn._locations.items():
        live = [n for n in locs if nn.cluster.node(n).alive]
        missing = svc.config.target_replicas - len(live)
        if missing <= 0 or not live:
            continue
        for dst in least_loaded_targets(bid, missing):
            queue.append((bid, svc._rng.choice(live), dst))
    return queue


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_one_ranking_per_pass_queues_what_a_per_block_sort_queued(seed):
    rng = random.Random(seed)
    cluster = Cluster(scale_spec(rng.randint(4, 90), mesoscale=True), RandomStreams(seed))
    nn = NameNode(cluster)
    for f in range(rng.randint(1, 4)):
        nn.create_file(
            f"f{f}", rng.randint(1, 5) * DEFAULT_BLOCK_SIZE, replication=rng.randint(1, 3)
        )
    slaves = cluster.slave_ids
    # load: transfers on some (now built) nodes, dynamic replicas on some
    # DataNodes, small enough that keys tie and the later keys decide
    for node_id in rng.sample(slaves, rng.randint(0, len(slaves) // 2)):
        cluster.node(node_id).active_net_transfers = rng.randint(0, 2)
    blocks = list(nn.blocks.values())
    for dn in list(nn.datanodes.values()):
        for block in rng.sample(blocks, min(len(blocks), rng.choice([0, 0, 1, 2]))):
            dn.dynamic_blocks[block.block_id] = block
    # dead slaves: some already pruned from the block map, some not yet
    for node_id in rng.sample(slaves, rng.randint(0, min(3, len(slaves) - 1))):
        cluster.stop_node(node_id)
        if rng.random() < 0.5:
            nn.fail_node(node_id)
    built = [node is not None for node in cluster.nodes]
    config = CdrmConfig(node_availability=rng.choice([0.5, 0.7, 0.85, 0.95]))
    svc = CdrmService(config, nn, Engine(), TrafficMeter(), random.Random(seed))
    svc.copier.pump = lambda: None  # keep the pass's queue; start nothing
    svc._reconcile()
    assert [node is not None for node in cluster.nodes] == built  # built nothing
    oracle = CdrmService(config, nn, Engine(), TrafficMeter(), random.Random(seed))
    assert list(svc.copier.queue) == _per_block_reconcile(oracle)
    assert svc._rng.getstate() == oracle._rng.getstate()


def test_ranking_counts_stored_blocks_in_one_unit():
    """At equal transfers, a slave holding one dynamic replica ranks ahead
    of one holding five static blocks: "stored" counts blocks of both
    kinds, not dynamic bytes plus static blocks."""
    nn = NameNode(Cluster(SMALL_SPEC, RandomStreams(1)))  # no files
    blocks = [Block(bid, None, bid, DEFAULT_BLOCK_SIZE) for bid in range(6)]
    five_static, one_dynamic = nn.datanode(1), nn.datanode(2)
    for block in blocks[:5]:
        five_static.store_static(block)
    one_dynamic.dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
    one_dynamic.insert_dynamic(blocks[5], now=0.0)
    svc = CdrmService(CdrmConfig(), nn, Engine(), TrafficMeter(), random.Random(0))
    ranking = svc._ranking()
    assert ranking.index(2) < ranking.index(1)
