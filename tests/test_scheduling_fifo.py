"""Unit tests: the FIFO scheduler."""

import pytest

from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService
from repro.mapreduce.job import JobSpec
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.runtime import TaskTimeModel
from repro.mapreduce.task import Locality
from repro.scheduling.fifo import FifoScheduler
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams


@pytest.fixture
def jt(small_cluster, loaded_namenode):
    streams = RandomStreams(31)
    dare = DareReplicationService(DareConfig.off(), loaded_namenode, streams)
    tm = TaskTimeModel(small_cluster, loaded_namenode, streams.python("tm"))
    return JobTracker(
        small_cluster, loaded_namenode, Engine(), FifoScheduler(), tm, dare
    )


def submit(jt, *file_names, t0=0.0):
    jobs = []
    for i, name in enumerate(file_names):
        jobs.append(jt.submit(JobSpec(job_id=i, submit_time=t0 + i, input_file=name)))
    return jobs


class TestFifoOrdering:
    def test_head_of_line_job_served_first(self, jt):
        jobs = submit(jt, "cold", "hot")
        pick = jt.scheduler.pick_map(1, now=5.0)
        assert pick is not None
        job, task, _ = pick
        assert job is jobs[0]

    def test_second_job_served_only_after_first_drains(self, jt):
        jobs = submit(jt, "warm", "hot")
        # exhaust the head job's pending maps
        while jobs[0].has_pending_maps:
            job, task, _ = jt.scheduler.pick_map(1, now=5.0)
            assert job is jobs[0]
            jobs[0].take_map(task)
        job, task, _ = jt.scheduler.pick_map(1, now=6.0)
        assert job is jobs[1]

    def test_no_pending_work_returns_none(self, jt):
        assert jt.scheduler.pick_map(1, now=0.0) is None
        assert jt.scheduler.pick_reduce(1, now=0.0) is None

    def test_finished_jobs_skipped(self, jt):
        jobs = submit(jt, "warm", "hot")
        jt.scheduler.job_finished(jobs[0])
        job, _, _ = jt.scheduler.pick_map(1, now=5.0)
        assert job is jobs[1]


class TestFifoLocality:
    def test_prefers_node_local_within_head_job(self, jt, loaded_namenode):
        jobs = submit(jt, "cold")
        holder = next(
            iter(loaded_namenode.locations(jobs[0].maps[0].block.block_id))
        )
        job, task, level = jt.scheduler.pick_map(holder, now=1.0)
        assert level is Locality.NODE_LOCAL

    def test_never_withholds_a_slot_for_locality(self, jt, loaded_namenode):
        jobs = submit(jt, "hot")
        non_holder = next(
            (
                nid
                for nid in loaded_namenode.cluster.slave_ids
                if all(
                    nid not in loaded_namenode.locations(t.block.block_id)
                    for t in jobs[0].maps
                )
            ),
            None,
        )
        if non_holder is None:
            pytest.skip("every slave holds a replica of this small file")
        pick = jt.scheduler.pick_map(non_holder, now=1.0)
        assert pick is not None  # FIFO launches non-locally rather than wait
        _, _, level = pick
        assert level is not Locality.NODE_LOCAL


class TestFifoReduces:
    def test_reduces_offered_once_schedulable(self, jt):
        jobs = submit(jt, "hot")
        assert jt.scheduler.pick_reduce(1, now=1.0) is None
        jobs[0].finished_maps = jobs[0].n_maps
        jt.scheduler.job_changed(jobs[0])
        pick = jt.scheduler.pick_reduce(1, now=2.0)
        assert pick is not None
        job, task = pick
        assert job is jobs[0]

    def test_reduce_fifo_order(self, jt):
        jobs = submit(jt, "warm", "hot")
        for j in jobs:
            j.finished_maps = j.n_maps
            j.pending_maps.clear()
            jt.scheduler.job_changed(j)
        job, _ = jt.scheduler.pick_reduce(1, now=2.0)
        assert job is jobs[0]
