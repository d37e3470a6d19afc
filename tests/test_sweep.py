"""The sweep executor: cache semantics, sharding, crash/timeout isolation.

``run_cells(jobs > 1)`` runs on an in-process JobManager, so its failure
tests also pin the job queue's retry policy for local sweeps.
"""

import functools
import json
import multiprocessing as mp
import os
import signal
import threading
import time

import pytest

from repro.cluster.cluster import CCT_SPEC, EC2_SPEC
from repro.core.config import DareConfig
from repro.experiments import sweep as sweep_mod
from repro.experiments.runner import ExperimentConfig
from repro.experiments.serialize import (
    canonical_json,
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
    result_to_json,
)
from repro.experiments.sweep import (
    CellProcess,
    ResultCache,
    SweepCell,
    SweepError,
    WorkloadSpec,
    cache_key,
    dedupe_cells,
    parse_shard,
    results_of,
    run_cells,
    shard_cells,
)
from tests import cell_faults

SEED = 20110926
N_JOBS = 6


def _cell(tag="cell", scheduler="fifo", dare=None, seed=SEED, **config_kwargs):
    config = ExperimentConfig(
        scheduler=scheduler,
        dare=dare or DareConfig.elephant_trap(),
        seed=seed,
        **config_kwargs,
    )
    return SweepCell(config, WorkloadSpec("wl1", N_JOBS, seed), tag=tag)


# -- serialization round-trips ------------------------------------------------


class TestSerialization:
    def test_config_round_trip_is_exact(self):
        config = _cell(failures=((10.0, 3),), fair_delay_s=1.5).config
        assert config_from_dict(config_to_dict(config)) == config

    def test_config_round_trip_through_json(self):
        config = _cell().config
        doc = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(doc) == config

    def test_result_round_trip_preserves_bytes(self):
        [result] = results_of(run_cells([_cell()]))
        restored = result_from_dict(result_to_dict(result))
        assert result_to_json(restored) == result_to_json(result)
        assert restored.job_locality == result.job_locality
        assert restored.collector is not None
        assert restored.collector.job_records == result.collector.job_records
        # the wall-clock field is deliberately dropped
        assert restored.engine_wall_s == 0.0

    def test_unknown_format_rejected(self):
        [result] = results_of(run_cells([_cell()]))
        doc = result_to_dict(result)
        doc["format"] = 999
        with pytest.raises(ValueError, match="unsupported result format"):
            result_from_dict(doc)


# -- cache keys ---------------------------------------------------------------


class TestCacheKey:
    def test_stable_across_calls(self):
        cell = _cell()
        assert cache_key(cell.config, cell.workload) == cache_key(
            cell.config, cell.workload
        )

    def test_config_change_invalidates(self):
        base = _cell()
        changed = _cell(seed=SEED + 1)
        assert cache_key(base.config, base.workload) != cache_key(
            changed.config, changed.workload
        )

    def test_workload_change_invalidates(self):
        cell = _cell()
        other = WorkloadSpec("wl1", N_JOBS + 1, SEED)
        assert cache_key(cell.config, cell.workload) != cache_key(cell.config, other)

    def test_trace_and_profile_fields_do_not_affect_key(self):
        plain = _cell()
        traced = _cell(trace_path="/tmp/t.jsonl", profile=True)
        assert cache_key(plain.config, plain.workload) == cache_key(
            traced.config, traced.workload
        )

    def test_tag_and_x_do_not_affect_key(self):
        a, b = _cell(tag="a"), _cell(tag="b")._replace(x=7.0)
        assert cache_key(a.config, a.workload) == cache_key(b.config, b.workload)

    def test_file_workload_keyed_by_content_hash(self, tmp_path):
        from repro.workloads.swim_io import save_workload

        path = tmp_path / "wl.json"
        save_workload(WorkloadSpec("wl1", N_JOBS, SEED).materialize(), str(path))
        spec = WorkloadSpec("file", path=str(path))
        config = _cell().config
        key_before = cache_key(config, spec)
        path.write_text(path.read_text() + "\n")
        assert cache_key(config, spec) != key_before


# -- the result cache ---------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        first = run_cells([cell], cache=cache)
        assert not first[0].from_cache
        assert cache.misses == 1 and len(cache) == 1
        second = run_cells([cell], cache=cache)
        assert second[0].from_cache
        assert cache.hits == 1
        assert result_to_json(second[0].result) == result_to_json(first[0].result)

    def test_hit_skips_recomputation(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cell = _cell()
        run_cells([cell], cache=cache)

        def boom(*a, **k):
            raise AssertionError("cache hit must not re-run the experiment")

        monkeypatch.setattr(sweep_mod, "run_experiment", boom)
        [outcome] = run_cells([cell], cache=cache)
        assert outcome.from_cache and outcome.ok

    def test_no_cache_flag_bypasses(self, tmp_path):
        """``cache=None`` is the one way to run without a cache: the
        serial loop recomputes, and the parallel path keeps its results
        in a private cache of its manager, never in a warm one."""
        cache = ResultCache(tmp_path)
        cell = _cell()
        run_cells([cell], cache=cache)
        for jobs in (1, 2):
            [outcome] = run_cells([cell], jobs=jobs)
            assert outcome.ok and not outcome.from_cache
        assert cache.hits == 0 and len(cache) == 1
        with pytest.raises(TypeError):
            run_cells([cell], cache=cache, no_cache=True)

    def test_invalidate_forces_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        [first] = run_cells([cell], cache=cache)
        assert cache.invalidate(first.key)
        assert not cache.invalidate(first.key)  # already gone
        [second] = run_cells([cell], cache=cache)
        assert not second.from_cache

    def test_corrupt_entry_falls_back_to_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        [first] = run_cells([cell], cache=cache)
        cache.path(first.key).write_text("{not json")
        [second] = run_cells([cell], cache=cache)
        assert second.ok and not second.from_cache
        assert cache.corrupt == 1
        # the rerun repaired the entry in place
        [third] = run_cells([cell], cache=cache)
        assert third.from_cache
        assert result_to_json(third.result) == result_to_json(first.result)

    def test_wrong_schema_entry_is_corrupt_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        [first] = run_cells([cell], cache=cache)
        cache.path(first.key).write_text('{"format": 999}')
        [second] = run_cells([cell], cache=cache)
        assert second.ok and not second.from_cache and cache.corrupt == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cells([_cell(), _cell(seed=SEED + 1)], cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_trace_cells_bypass_reads_but_still_store(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cell = _cell()
        run_cells([cell], cache=cache)
        traced = cell._replace(
            config=__import__("dataclasses").replace(
                cell.config, trace_path=str(tmp_path / "t.jsonl")
            )
        )
        [outcome] = run_cells([traced], cache=cache)
        assert not outcome.from_cache  # must really run to write the trace
        assert (tmp_path / "t.jsonl").exists()

    def test_concurrent_writers_same_key_never_expose_partial(self, tmp_path):
        """Racing stores of one key (the service's duplicate-completion case)
        are last-writer-wins: a reader only ever sees one writer's complete
        bytes, and no temp files are left behind."""
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        n_writers, n_rounds = 6, 40
        # large distinct payloads widen the window a partial write would show
        docs = [
            {"writer": i, "pad": f"{i}" * 65536} for i in range(n_writers)
        ]
        stop = threading.Event()
        bad: list = []

        def read_loop():
            while not stop.is_set():
                try:
                    text = cache.path(key).read_text()
                except OSError:
                    continue  # not written yet
                try:
                    doc = json.loads(text)
                except ValueError:
                    bad.append(text[:80])  # a partial file leaked
                    return
                if doc not in docs:
                    bad.append(doc)
                    return

        def write_loop(i):
            for _ in range(n_rounds):
                cache.store(key, docs[i])

        reader = threading.Thread(target=read_loop)
        writers = [
            threading.Thread(target=write_loop, args=(i,))
            for i in range(n_writers)
        ]
        reader.start()
        for w in writers:
            w.start()
        for w in writers:
            w.join()
        stop.set()
        reader.join()
        assert not bad, f"reader saw a torn/partial cache entry: {bad[0]!r}"
        assert json.loads(cache.path(key).read_text()) in docs
        assert not list(tmp_path.rglob("*.tmp"))  # temp files all cleaned up

    def test_concurrent_writer_processes_same_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        procs = [
            mp.Process(target=_hammer_store, args=(str(tmp_path), key, i, 30))
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        doc = json.loads(cache.path(key).read_text())
        assert doc["writer"] in range(4) and len(doc["pad"]) == 65536
        assert not list(tmp_path.rglob("*.tmp"))


def _hammer_store(root, key, ident, rounds):
    cache = ResultCache(root)
    for _ in range(rounds):
        cache.store(key, {"writer": ident, "pad": f"{ident}" * 65536})


# -- sharding -----------------------------------------------------------------


class TestSharding:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_shards_partition_exactly(self, m):
        cells = [_cell(tag=f"c{i}", seed=SEED + i) for i in range(11)]
        shards = [shard_cells(cells, (k, m)) for k in range(1, m + 1)]
        seen = [c for shard in shards for c in shard]
        assert sorted(c.tag for c in seen) == sorted(c.tag for c in cells)
        assert len(seen) == len(cells)  # no cell in two shards

    def test_parse_shard(self):
        assert parse_shard("2/4") == (2, 4)
        for bad in ("0/4", "5/4", "x/y", "3", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shard_accepts_spec_string(self):
        cells = [_cell(tag=f"c{i}", seed=SEED + i) for i in range(4)]
        assert [c.tag for c in shard_cells(cells, "1/2")] == ["c0", "c2"]

    def test_dedupe_cells(self):
        a, b = _cell(tag="a"), _cell(tag="dup-of-a")
        c = _cell(tag="c", seed=SEED + 1)
        assert [x.tag for x in dedupe_cells([a, b, c])] == ["a", "c"]


# -- failure isolation --------------------------------------------------------


class TestFailures:
    def test_bad_cell_fails_with_traceback_serial(self):
        good, bad = _cell(tag="good"), _cell(tag="bad", scheduler="nope")
        outcomes = run_cells([bad, good])
        assert not outcomes[0].ok
        assert "nope" in outcomes[0].error
        assert "Traceback" in outcomes[0].error
        assert outcomes[1].ok  # the sweep survived the failed cell
        with pytest.raises(SweepError, match="bad"):
            results_of(outcomes)

    def test_bad_cell_fails_with_traceback_parallel(self):
        good, bad = _cell(tag="good"), _cell(tag="bad", scheduler="nope")
        outcomes = run_cells([bad, good], jobs=2)
        assert not outcomes[0].ok and "Traceback" in outcomes[0].error
        assert "nope" in outcomes[0].error  # refused alone, as serially
        assert outcomes[1].ok

    def test_worker_crash_is_retried_then_reported(self, tmp_path, monkeypatch):
        counter = tmp_path / "attempts"
        monkeypatch.setattr(sweep_mod, "execute_cell", functools.partial(
            cell_faults.crash, str(counter), 3, ""))
        [outcome] = run_cells([_cell()], jobs=2)
        assert not outcome.ok
        assert "worker died" in outcome.error and "exit code 3" in outcome.error
        # the job queue's two attempts are the only retry count: one
        # process per attempt, then the cell is quarantined with the last
        # error
        assert len(cell_faults.attempts(counter)) == 2

    def test_worker_crash_does_not_poison_other_cells(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_mod, "execute_cell", functools.partial(
            cell_faults.crash, str(tmp_path / "attempts"), 7, "fair"))
        outcomes = run_cells(
            [_cell(tag="dies", scheduler="fair"), _cell(tag="lives")], jobs=2,
        )
        assert not outcomes[0].ok and "worker died" in outcomes[0].error
        assert outcomes[1].ok

    def test_parallel_outcomes_follow_input_order(self, tmp_path):
        """The job-queue path returns one outcome per input cell, in input
        order, duplicates included, and reports each exactly once."""
        a, b = _cell(tag="a"), _cell(tag="b", seed=SEED + 1)
        dup = _cell(tag="dup-of-a")
        cache = ResultCache(tmp_path)
        run_cells([b], cache=cache)  # b resolves from the cache at submit
        seen = []
        outcomes = run_cells(
            [a, b, dup], jobs=2, cache=cache,
            progress=lambda o, done, total, eta: seen.append((o.cell.tag, done)),
        )
        assert [o.cell.tag for o in outcomes] == ["a", "b", "dup-of-a"]
        assert [o.from_cache for o in outcomes] == [False, True, False]
        assert result_to_json(outcomes[0].result) == \
            result_to_json(outcomes[2].result)
        assert sorted(tag for tag, _ in seen) == ["a", "b", "dup-of-a"]
        assert [done for _, done in seen] == [1, 2, 3]
        assert seen[0][0] == "b"  # cache hits are reported first

    def test_timeout_kills_cell(self, tmp_path, monkeypatch):
        counter = tmp_path / "attempts"
        monkeypatch.setattr(sweep_mod, "execute_cell", functools.partial(
            cell_faults.hang, str(counter), ""))
        [outcome] = run_cells([_cell()], jobs=2, timeout_s=0.5)
        assert not outcome.ok
        assert "timed out" in outcome.error
        # a timed-out cell ends its process: the retry starts a fresh one
        pids = cell_faults.attempts(counter)
        assert len(pids) == 2 and pids[0] != pids[1]


# -- the cell process ---------------------------------------------------------


class TestCellProcess:
    def test_one_process_runs_a_grid_byte_equal_to_serial(self):
        """Cells run back to back in one process answer exactly what the
        serial path computes: nothing carries over from cell to cell."""
        cells = [
            SweepCell(
                ExperimentConfig(cluster_spec=spec, scheduler=scheduler,
                                 dare=dare, seed=SEED),
                WorkloadSpec("wl1", N_JOBS, SEED),
                tag=f"{spec.name}/{scheduler}/{dare.policy.value}",
            )
            for spec in (CCT_SPEC, EC2_SPEC)
            for scheduler in ("fifo", "fair")
            for dare in (DareConfig.off(), DareConfig.greedy_lru(),
                         DareConfig.elephant_trap())
        ]
        serial = [canonical_json(result_to_dict(r))
                  for r in results_of(run_cells(cells))]
        process = CellProcess()
        served, pids = [], set()
        try:
            for cell in cells:
                doc, error = process.run(cell)
                assert error == "", error
                served.append(canonical_json(doc))
                pids.add(process._proc.pid)
        finally:
            process.close()
        assert len(pids) == 1
        assert served == serial

    def test_killed_process_reports_its_signal_and_is_replaced(
        self, tmp_path, monkeypatch
    ):
        counter = tmp_path / "attempts"
        monkeypatch.setattr(sweep_mod, "execute_cell", functools.partial(
            cell_faults.hang, str(counter), "fair"))
        process = CellProcess()
        answers = []
        runner = threading.Thread(
            target=lambda: answers.append(process.run(_cell(scheduler="fair"))))
        runner.start()
        deadline = time.monotonic() + 60.0
        while not cell_faults.attempts(counter) and time.monotonic() < deadline:
            time.sleep(0.02)
        [victim] = cell_faults.attempts(counter)
        os.kill(victim, signal.SIGKILL)
        runner.join(timeout=60.0)
        try:
            assert answers == [(None, "worker died (exit code -9)")]
            doc, error = process.run(_cell(tag="next"))
        finally:
            process.close()
        assert error == ""
        [expected] = results_of(run_cells([_cell(tag="next")]))
        assert canonical_json(doc) == canonical_json(result_to_dict(expected))
        pids = cell_faults.attempts(counter)
        assert len(pids) == 2 and pids[1] != victim


# -- grids --------------------------------------------------------------------


class TestGrids:
    def test_every_named_grid_builds(self):
        from repro.experiments.sweep import GRID_NAMES, build_grid

        for name in GRID_NAMES:
            cells = build_grid(name, n_jobs=N_JOBS)
            assert cells, name
            assert all(isinstance(c, SweepCell) for c in cells)

    def test_all_grid_is_deduplicated(self):
        from repro.experiments.sweep import build_grid

        cells = build_grid("all", n_jobs=N_JOBS)
        keys = [cache_key(c.config, c.workload) for c in cells]
        assert len(keys) == len(set(keys))

    def test_unknown_grid_rejected(self):
        from repro.experiments.sweep import build_grid

        with pytest.raises(ValueError, match="unknown grid"):
            build_grid("fig99")

    def test_fig7_grid_parallel_and_cached_match_serial(self, tmp_path, monkeypatch):
        """The acceptance scenario: jobs=4 over the fig7 grid == serial bytes,
        and a warm second invocation never calls run_experiment."""
        from repro.experiments.figures import fig7_cells

        cells = fig7_cells(n_jobs=N_JOBS)
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        cache = ResultCache(tmp_path)
        parallel = [
            result_to_json(r)
            for r in results_of(run_cells(cells, jobs=4, cache=cache))
        ]
        assert parallel == serial

        def boom(*a, **k):
            raise AssertionError("warm sweep must not re-run any cell")

        monkeypatch.setattr(sweep_mod, "run_experiment", boom)
        warm = run_cells(cells, jobs=4, cache=cache)
        assert all(o.from_cache for o in warm)
        assert [result_to_json(r) for r in results_of(warm)] == serial
