"""Unit tests: the evaluation metrics (Section V-A definitions)."""

import math

import numpy as np
import pytest

from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, Simulation
from repro.metrics.collector import JobRecord, MetricsCollector
from repro.metrics.locality import LocalityStats, cluster_locality, mean_job_locality
from repro.metrics.placement import (
    coefficient_of_variation,
    file_access_counts,
    popularity_indices,
)
from repro.metrics.turnaround import geometric_mean_turnaround
from repro.mapreduce.job import JobSpec


def record(job_id=0, submit=0.0, finish=10.0, counts=(1, 0, 0), n_maps=None):
    n_maps = n_maps if n_maps is not None else sum(counts)
    return JobRecord(job_id, submit, submit, finish, n_maps, 1, counts, 10**8)


class TestLocality:
    def test_stats_fractions(self):
        s = LocalityStats(6, 3, 1)
        assert s.total == 10
        assert s.locality == pytest.approx(0.6)
        assert s.remote_fraction == pytest.approx(0.4)

    def test_empty_stats_zero(self):
        assert LocalityStats(0, 0, 0).locality == 0.0

    def test_cluster_locality_aggregates(self):
        recs = [record(counts=(2, 1, 1)), record(counts=(0, 0, 4))]
        s = cluster_locality(recs)
        assert s.node_local == 2 and s.total == 8

    def test_mean_job_locality_unweighted(self):
        # a tiny fully-local job counts as much as a large remote one
        recs = [record(counts=(1, 0, 0)), record(counts=(0, 0, 100))]
        assert mean_job_locality(recs) == pytest.approx(0.5)

    def test_mean_job_locality_empty_raises(self):
        with pytest.raises(ValueError):
            mean_job_locality([])


class TestGMTT:
    def test_matches_eq1(self):
        recs = [record(finish=2.0), record(finish=8.0)]
        assert geometric_mean_turnaround(recs) == pytest.approx(math.sqrt(16.0))

    def test_less_dominated_by_long_jobs_than_mean(self):
        recs = [record(finish=1.0)] * 9 + [record(finish=1000.0)]
        gmtt = geometric_mean_turnaround(recs)
        arith = sum(r.turnaround for r in recs) / len(recs)
        assert gmtt < arith / 10

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean_turnaround([])

    def test_nonpositive_turnaround_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean_turnaround([record(finish=0.0)])


class TestPlacement:
    def test_cv_zero_for_uniform(self):
        assert coefficient_of_variation(np.array([5.0, 5.0, 5.0])) == 0.0

    def test_cv_formula(self):
        vals = np.array([1.0, 3.0])
        assert coefficient_of_variation(vals) == pytest.approx(1.0 / 2.0)

    def test_cv_empty_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(np.array([]))

    def test_cv_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(np.array([-1.0, 1.0]))

    def test_file_access_counts(self):
        specs = [JobSpec(i, 0.0, f) for i, f in enumerate(["a", "a", "b"])]
        counts = file_access_counts(specs)
        assert counts["a"] == 2 and counts["b"] == 1

    def test_popularity_indices_weight_by_accesses(self, loaded_namenode):
        pis_hot = popularity_indices(loaded_namenode, {"hot": 100})
        pis_cold = popularity_indices(loaded_namenode, {"cold": 100})
        assert pis_hot.sum() > 0 and pis_cold.sum() > 0
        # hot has 3 blocks x rf 3; cold has 5 blocks x rf 2
        assert pis_hot.sum() == pytest.approx(100 * 9 * loaded_namenode.block_size)
        assert pis_cold.sum() == pytest.approx(100 * 10 * loaded_namenode.block_size)

    def test_unread_files_contribute_zero(self, loaded_namenode):
        pis = popularity_indices(loaded_namenode, {})
        assert pis.sum() == 0.0

    def test_popularity_indices_equal_a_per_replica_walk(self, wl1_small):
        # a greedy-LRU run leaves dynamic replicas beside the static ones
        sim = Simulation(ExperimentConfig(dare=DareConfig.greedy_lru()), wl1_small)
        sim.run()
        nn = sim.namenode
        assert any(dn.dynamic_blocks for dn in nn.datanodes.values())
        counts = wl1_small.access_counts()
        expected = np.zeros(nn.cluster.n_slaves)
        for node_id, dn in nn.datanodes.items():
            pi = 0.0
            for bid in dn.stored_block_ids():
                block = nn.block(bid)
                pi += block.size_bytes * counts.get(block.inode.name, 0)
            expected[node_id - 1] = pi
        assert popularity_indices(nn, counts).tolist() == expected.tolist()


class TestCollector:
    def test_records_job_completion(self, loaded_namenode):
        from repro.mapreduce.job import Job

        collector = MetricsCollector()
        job = Job(JobSpec(3, 5.0, "hot"), loaded_namenode.file("hot"))
        job.finish_time = 25.0
        job.first_task_time = 6.0
        job.locality_counts = [2, 1, 0]
        collector.on_job_complete(job)
        rec = collector.job_records[0]
        assert rec.turnaround == 20.0
        assert rec.data_locality == pytest.approx(2 / 3)
        assert rec.n_maps == 3

    def test_mean_map_duration_empty_raises(self):
        with pytest.raises(ValueError):
            MetricsCollector().mean_map_duration()
