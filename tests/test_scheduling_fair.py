"""Unit tests: the Fair scheduler with delay scheduling."""

import pytest

from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService
from repro.mapreduce.job import JobSpec
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.runtime import TaskTimeModel
from repro.mapreduce.task import Locality
from repro.scheduling.fair import FairScheduler
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams


def make_jt(cluster, namenode, node_delay=1.5, rack_delay=1.5):
    streams = RandomStreams(31)
    dare = DareReplicationService(DareConfig.off(), namenode, streams)
    tm = TaskTimeModel(cluster, namenode, streams.python("tm"))
    sched = FairScheduler(node_delay_s=node_delay, rack_delay_s=rack_delay)
    return JobTracker(cluster, namenode, Engine(), sched, tm, dare)


@pytest.fixture
def jt(small_cluster, loaded_namenode):
    return make_jt(small_cluster, loaded_namenode)


def non_holder_of(namenode, job):
    return next(
        (
            nid
            for nid in namenode.cluster.slave_ids
            if all(
                nid not in namenode.locations(t.block.block_id) for t in job.maps
            )
        ),
        None,
    )


class TestDelayScheduling:
    def test_skips_job_with_no_local_task(self, jt, loaded_namenode):
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        node = non_holder_of(loaded_namenode, job)
        if node is None:
            pytest.skip("every slave holds a replica")
        assert jt.scheduler.pick_map(node, now=0.0) is None
        assert job.delay_wait_started == 0.0

    def test_launches_local_immediately(self, jt, loaded_namenode):
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        holder = next(iter(loaded_namenode.locations(job.maps[0].block.block_id)))
        pick = jt.scheduler.pick_map(holder, now=0.0)
        assert pick is not None
        _, _, level = pick
        assert level is Locality.NODE_LOCAL

    def test_rack_local_allowed_after_node_delay(self, jt, loaded_namenode):
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        node = non_holder_of(loaded_namenode, job)
        if node is None:
            pytest.skip("every slave holds a replica")
        assert jt.scheduler.pick_map(node, now=0.0) is None
        # after the node delay expires the job may go rack-local
        pick = jt.scheduler.pick_map(node, now=2.0)
        assert pick is not None
        _, _, level = pick
        assert level is Locality.RACK_LOCAL  # single rack: non-local == rack

    def test_local_launch_resets_wait(self, jt, loaded_namenode):
        job = jt.submit(JobSpec(0, 0.0, "cold"))
        node = non_holder_of(loaded_namenode, job)
        if node is None:
            pytest.skip("every slave holds a replica")
        jt.scheduler.pick_map(node, now=0.0)  # skip -> wait starts
        holder = next(iter(loaded_namenode.locations(job.maps[0].block.block_id)))
        _, _, level = jt.scheduler.pick_map(holder, now=1.0)
        assert level is Locality.NODE_LOCAL
        assert job.delay_wait_started is None

    def test_non_local_launch_keeps_wait_running(self, jt, loaded_namenode):
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        node = non_holder_of(loaded_namenode, job)
        if node is None:
            pytest.skip("every slave holds a replica")
        jt.scheduler.pick_map(node, now=0.0)
        jt.scheduler.pick_map(node, now=2.0)  # rack-local launch
        assert job.delay_wait_started == 0.0  # EuroSys rule: only local resets

    def test_zero_delay_degenerates_to_greedy(self, small_cluster, loaded_namenode):
        jt = make_jt(small_cluster, loaded_namenode, node_delay=0.0, rack_delay=0.0)
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        node = non_holder_of(loaded_namenode, job)
        if node is None:
            pytest.skip("every slave holds a replica")
        assert jt.scheduler.pick_map(node, now=0.0) is None  # first skip arms clock
        assert jt.scheduler.pick_map(node, now=0.0) is not None

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FairScheduler(node_delay_s=-1.0)


class TestFairSharing:
    def test_fewest_running_tasks_served_first(self, jt):
        j0 = jt.submit(JobSpec(0, 0.0, "cold"))
        j1 = jt.submit(JobSpec(1, 0.1, "warm"))
        j0.running_maps = 3
        holder = None
        for t in j1.maps:
            locs = jt.namenode.locations(t.block.block_id)
            if locs:
                holder = next(iter(locs))
                break
        job, _, _ = jt.scheduler.pick_map(holder, now=1.0)
        assert job is j1  # j0 already has 3 running tasks

    def test_reduce_fair_order(self, jt):
        j0 = jt.submit(JobSpec(0, 0.0, "cold", n_reduces=2))
        j1 = jt.submit(JobSpec(1, 0.1, "warm", n_reduces=2))
        for j in (j0, j1):
            j.finished_maps = j.n_maps
            j.pending_maps.clear()
            jt.scheduler.job_changed(j)
        j0.running_reduces = 1
        jt.scheduler.job_changed(j0)
        job, _ = jt.scheduler.pick_reduce(1, now=1.0)
        assert job is j1

    def test_empty_scheduler_returns_none(self, jt):
        assert jt.scheduler.pick_map(1, now=0.0) is None
        assert jt.scheduler.pick_reduce(1, now=0.0) is None
