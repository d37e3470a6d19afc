"""Unit tests: the skip-count delay-scheduling variant."""

import numpy as np
import pytest

from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService
from repro.experiments.runner import ExperimentConfig, make_scheduler, run_experiment
from repro.mapreduce.job import JobSpec
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.runtime import TaskTimeModel
from repro.mapreduce.task import Locality
from repro.scheduling.fair import SkipCountFairScheduler
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from repro.workloads.swim import synthesize_wl1
from tests.conftest import SMALL_SPEC


def make_jt(cluster, namenode, node_skips=2, rack_skips=2):
    streams = RandomStreams(31)
    dare = DareReplicationService(DareConfig.off(), namenode, streams)
    tm = TaskTimeModel(cluster, namenode, streams.python("tm"))
    sched = SkipCountFairScheduler(node_skips=node_skips, rack_skips=rack_skips)
    return JobTracker(cluster, namenode, Engine(), sched, tm, dare)


def non_holder_of(namenode, job):
    return next(
        (
            nid
            for nid in namenode.cluster.slave_ids
            if all(nid not in namenode.locations(t.block.block_id) for t in job.maps)
        ),
        None,
    )


class TestSkipCounting:
    def test_skips_accumulate(self, small_cluster, loaded_namenode):
        jt = make_jt(small_cluster, loaded_namenode, node_skips=2)
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        node = non_holder_of(loaded_namenode, job)
        if node is None:
            pytest.skip("every slave holds a replica")
        assert jt.scheduler.pick_map(node, now=0.0) is None  # skip 1
        assert jt.scheduler.pick_map(node, now=0.0) is None  # skip 2
        pick = jt.scheduler.pick_map(node, now=0.0)  # 2 skips -> rack ok
        assert pick is not None
        _, _, level = pick
        assert level is Locality.RACK_LOCAL

    def test_local_launch_resets_counter(self, small_cluster, loaded_namenode):
        jt = make_jt(small_cluster, loaded_namenode, node_skips=2)
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        node = non_holder_of(loaded_namenode, job)
        if node is None:
            pytest.skip("every slave holds a replica")
        jt.scheduler.pick_map(node, now=0.0)
        holder = next(iter(loaded_namenode.locations(job.maps[0].block.block_id)))
        _, _, level = jt.scheduler.pick_map(holder, now=0.0)
        assert level is Locality.NODE_LOCAL
        assert job.delay_wait_started is None

    def test_skip_threshold_is_count_not_time(self, small_cluster, loaded_namenode):
        # with huge wall-clock gaps but only one skip, the job still waits
        jt = make_jt(small_cluster, loaded_namenode, node_skips=3)
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        node = non_holder_of(loaded_namenode, job)
        if node is None:
            pytest.skip("every slave holds a replica")
        assert jt.scheduler.pick_map(node, now=0.0) is None
        assert jt.scheduler.pick_map(node, now=10_000.0) is None  # count=2 < 3

    def test_negative_skips_rejected(self):
        with pytest.raises(ValueError):
            SkipCountFairScheduler(node_skips=-1)


class TestEndToEnd:
    def test_factory_knows_fair_skip(self):
        assert isinstance(make_scheduler("fair-skip"), SkipCountFairScheduler)

    def test_behaves_like_time_based_fair(self):
        """The two formulations should land in the same locality regime."""
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=80)
        time_based = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, scheduler="fair"), wl
        )
        skip_based = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, scheduler="fair-skip"), wl
        )
        assert abs(skip_based.job_locality - time_based.job_locality) < 0.25
        # both stay well above FIFO's baseline
        fifo = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, scheduler="fifo"), wl
        )
        assert skip_based.job_locality > fifo.job_locality

    def test_dare_composes_with_skip_variant(self):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=80)
        van = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, scheduler="fair-skip"), wl
        )
        dare = run_experiment(
            ExperimentConfig(
                cluster_spec=SMALL_SPEC,
                scheduler="fair-skip",
                dare=DareConfig.elephant_trap(),
            ),
            wl,
        )
        # on the tiny 7-slave cluster the skip variant already finds local
        # slots for nearly everything; DARE must never make it worse
        assert dare.job_locality >= van.job_locality
