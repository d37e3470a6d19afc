"""Unit tests: job specs and runtime job state."""

import pytest

from repro.mapreduce.job import Job, JobSpec
from repro.mapreduce.task import Locality


@pytest.fixture
def job(loaded_namenode):
    spec = JobSpec(job_id=1, submit_time=10.0, input_file="hot", n_reduces=2)
    return Job(spec, loaded_namenode.file("hot"))


class TestJobSpec:
    def test_validate_ok(self):
        JobSpec(1, 0.0, "f").validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"submit_time": -1.0},
            {"map_cpu_s": -1.0},
            {"reduce_cpu_s": -1.0},
            {"n_reduces": -1},
            {"shuffle_ratio": -0.1},
            {"output_ratio": -0.1},
            # nan and inf pass a ``< 0`` test; a NaN submit time used to
            # reach the event heap and hang the run
            {"submit_time": float("nan")},
            {"submit_time": float("inf")},
            {"map_cpu_s": float("nan")},
            {"reduce_cpu_s": float("inf")},
            {"shuffle_ratio": float("nan")},
            {"output_ratio": float("inf")},
        ],
    )
    def test_validate_rejects(self, kw):
        base = dict(job_id=1, submit_time=0.0, input_file="f")
        base.update(kw)
        with pytest.raises(ValueError):
            JobSpec(**base).validate()


class TestJobState:
    def test_one_map_per_block(self, job):
        assert job.n_maps == 3
        assert len(job.reduces) == 2

    def test_fresh_job_all_pending(self, job):
        assert job.has_pending_maps
        assert not job.maps_done
        assert not job.done

    def test_take_map_moves_to_running(self, job):
        task = job.pending_maps[0]
        job.take_map(task)
        assert task not in job.pending_maps
        assert job.running_maps == 1
        assert task.block.block_id not in job.pending_block_ids

    def test_reduces_locked_until_maps_done(self, job):
        assert not job.reduces_schedulable
        assert job.next_pending_reduce() is None
        job.finished_maps = job.n_maps
        assert job.reduces_schedulable
        assert job.next_pending_reduce() is job.reduces[0]

    def test_done_requires_maps_and_reduces(self, job):
        job.finished_maps = job.n_maps
        assert not job.done
        job.finished_reduces = 2
        assert job.done

    def test_turnaround_before_finish_raises(self, job):
        with pytest.raises(ValueError):
            job.turnaround

    def test_data_locality_fraction(self, job):
        job.locality_counts[Locality.NODE_LOCAL] = 2
        job.locality_counts[Locality.REMOTE] = 2
        assert job.data_locality == 0.5

    def test_locality_zero_before_any_launch(self, job):
        assert job.data_locality == 0.0


class TestFindPendingMap:
    def test_prefers_node_local(self, loaded_namenode, job):
        blk = job.maps[0].block
        local_node = next(iter(loaded_namenode.locations(blk.block_id)))
        found = job.find_pending_map(local_node, loaded_namenode)
        assert found is not None
        task, level = found
        assert level is Locality.NODE_LOCAL
        assert local_node in loaded_namenode.locations(task.block.block_id)

    def test_single_rack_fallback_is_rack_local(self, loaded_namenode, job):
        # find a node holding no block of the job (single-rack cluster ->
        # everything non-local is rack-local)
        nodes = set(loaded_namenode.cluster.slave_ids)
        for t in job.maps:
            nodes -= set(loaded_namenode.locations(t.block.block_id))
        if not nodes:
            pytest.skip("every slave holds a replica of this small file")
        found = job.find_pending_map(nodes.pop(), loaded_namenode)
        task, level = found
        assert level is Locality.RACK_LOCAL

    def test_max_level_node_local_filters(self, loaded_namenode, job):
        nodes = set(loaded_namenode.cluster.slave_ids)
        for t in job.maps:
            nodes -= set(loaded_namenode.locations(t.block.block_id))
        if not nodes:
            pytest.skip("every slave holds a replica")
        found = job.find_pending_map(
            nodes.pop(), loaded_namenode, max_level=Locality.NODE_LOCAL
        )
        assert found is None

    def test_exhausted_job_returns_none(self, loaded_namenode, job):
        for t in list(job.pending_maps):
            job.take_map(t)
        assert job.find_pending_map(1, loaded_namenode) is None

    def test_new_replica_changes_locality_choice(self, loaded_namenode, job):
        blk = job.maps[0].block
        outsider = next(
            (
                nid
                for nid in loaded_namenode.cluster.slave_ids
                if all(
                    nid not in loaded_namenode.locations(t.block.block_id)
                    for t in job.maps
                )
            ),
            None,
        )
        if outsider is None:
            pytest.skip("every slave holds a replica of this small file")
        # before: not node-local for the outsider
        _, level = job.find_pending_map(outsider, loaded_namenode)
        assert level is not Locality.NODE_LOCAL
        # DARE announces a replica -> the view changes -> now node-local
        loaded_namenode._locations[blk.block_id].add(outsider)
        task, level = job.find_pending_map(outsider, loaded_namenode)
        assert level is Locality.NODE_LOCAL
        assert task.block.block_id == blk.block_id
