"""Unit tests: SWIM trace parsing and workload (de)serialization."""

import json

import numpy as np
import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.sweep import WorkloadSpec
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.workloads.swim import synthesize_wl1
from repro.workloads.swim_io import (
    SwimParseError,
    load_swim_trace,
    load_workload,
    parse_swim_lines,
    save_workload,
    workload_from_swim_rows,
)
from tests.conftest import SMALL_SPEC

GB = 10**9

SAMPLE = """\
# SWIM sample
job0\t0\t0\t{gb}\t{half}\t{half}
job1\t12\t12\t{gb}\t{half}\t{half}
job2\t25\t13\t{two}\t{gb}\t{half}
job3\t31\t6\t128\t0\t0
""".format(gb=GB, half=GB // 2, two=2 * GB)


class TestParsing:
    def test_parses_sample(self):
        rows = parse_swim_lines(SAMPLE.splitlines())
        assert len(rows) == 4
        assert rows[0]["job_id"] == "job0"
        assert rows[2]["input_bytes"] == 2 * GB

    def test_comments_and_blanks_skipped(self):
        rows = parse_swim_lines(["# c", "", "j0\t0\t0\t100\t1\t1"])
        assert len(rows) == 1

    def test_space_separated_accepted(self):
        rows = parse_swim_lines(["j0 0 0 100 1 1"])
        assert rows[0]["input_bytes"] == 100

    def test_short_line_rejected(self):
        with pytest.raises(SwimParseError, match="6 fields"):
            parse_swim_lines(["j0\t0\t0\t100"])

    def test_garbage_field_rejected(self):
        with pytest.raises(SwimParseError):
            parse_swim_lines(["j0\t0\t0\tpotato\t1\t1"])

    def test_empty_trace_rejected(self):
        with pytest.raises(SwimParseError, match="no job"):
            parse_swim_lines(["# only comments"])

    def test_infinite_byte_field_rejected(self):
        with pytest.raises(SwimParseError, match="line 1"):
            parse_swim_lines(["j0\t0\t0\tinf\t1\t1"])


class TestConversion:
    @pytest.fixture
    def wl(self):
        rows = parse_swim_lines(SAMPLE.splitlines())
        return workload_from_swim_rows(rows, np.random.default_rng(3), reuse=2.0)

    def test_one_spec_per_row(self, wl):
        assert wl.n_jobs == 4

    def test_input_sizes_preserved_in_blocks(self, wl):
        blocks = {f.name: f.n_blocks for f in wl.catalog.files}
        expected = -(-GB // DEFAULT_BLOCK_SIZE)
        assert blocks[wl.specs[0].input_file] == expected

    def test_arrival_order_preserved(self, wl):
        times = [s.submit_time for s in wl.specs]
        assert times == sorted(times)

    def test_shuffle_ratio_from_trace(self, wl):
        spec = wl.specs[0]
        assert spec.shuffle_ratio == pytest.approx(0.5)

    def test_time_scale_compresses(self):
        rows = parse_swim_lines(SAMPLE.splitlines())
        wl = workload_from_swim_rows(
            rows, np.random.default_rng(3), time_scale=0.5
        )
        assert max(s.submit_time for s in wl.specs) == pytest.approx(31 * 0.5)

    def test_reuse_controls_catalog_size(self):
        rows = parse_swim_lines(SAMPLE.splitlines()) * 10  # 40 jobs
        for i, r in enumerate(rows):
            r = dict(r)
        lo = workload_from_swim_rows(rows, np.random.default_rng(3), reuse=1.0)
        hi = workload_from_swim_rows(rows, np.random.default_rng(3), reuse=8.0)
        assert len(hi.catalog) < len(lo.catalog)

    def test_invalid_reuse_rejected(self):
        rows = parse_swim_lines(SAMPLE.splitlines())
        with pytest.raises(ValueError):
            workload_from_swim_rows(rows, np.random.default_rng(3), reuse=0.5)

    def test_loaded_trace_runs_end_to_end(self, tmp_path):
        trace = tmp_path / "fb.tsv"
        trace.write_text(SAMPLE)
        wl = load_swim_trace(trace, np.random.default_rng(3))
        result = run_experiment(ExperimentConfig(cluster_spec=SMALL_SPEC), wl)
        assert result.n_jobs == 4

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_submit_time_rejected(self, tmp_path, bad):
        # such a trace used to schedule a NaN/inf submission and never end
        trace = tmp_path / "fb.tsv"
        trace.write_text(SAMPLE.replace("job1\t12\t", f"job1\t{bad}\t"))
        with pytest.raises(ValueError, match="job 1: non-finite submit time"):
            load_swim_trace(trace, np.random.default_rng(3))


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=30)
        path = tmp_path / "wl.json"
        save_workload(wl, path)
        loaded = load_workload(path)
        assert loaded.name == wl.name
        assert [f for f in loaded.catalog.files] == [f for f in wl.catalog.files]
        assert loaded.specs == wl.specs

    def test_loaded_workload_reproduces_results(self, tmp_path):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=30)
        path = tmp_path / "wl.json"
        save_workload(wl, path)
        loaded = load_workload(path)
        a = run_experiment(ExperimentConfig(cluster_spec=SMALL_SPEC), wl)
        b = run_experiment(ExperimentConfig(cluster_spec=SMALL_SPEC), loaded)
        assert a.gmtt_s == b.gmtt_s

    @pytest.mark.parametrize(
        "field", ["submit_time", "map_cpu_s", "reduce_cpu_s", "shuffle_ratio"]
    )
    def test_non_finite_field_rejected(self, tmp_path, field):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=5)
        path = tmp_path / "wl.json"
        save_workload(wl, path)
        doc = json.loads(path.read_text())
        doc["jobs"][2][field] = float("nan")
        path.write_text(json.dumps(doc))  # json writes (and reads) bare NaN
        with pytest.raises(ValueError, match="non-finite"):
            load_workload(path)

    def test_workload_with_no_jobs_rejected(self, tmp_path):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=5)
        path = tmp_path / "wl.json"
        save_workload(wl, path)
        doc = json.loads(path.read_text())
        doc["jobs"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="workload 'wl1' has no jobs"):
            load_workload(path)
        for n_jobs in (0, -3):
            with pytest.raises(ValueError, match="has no jobs"):
                synthesize_wl1(np.random.default_rng(7), n_jobs=n_jobs)
            with pytest.raises(ValueError, match="needs at least 1 job"):
                WorkloadSpec("wl2", n_jobs=n_jobs).validate()
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec("wl9").validate()
        assert WorkloadSpec("wl1", n_jobs=1).validate() == WorkloadSpec("wl1", 1)

    def test_bad_format_version_rejected(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text('{"format": 99}')
        with pytest.raises(ValueError, match="format"):
            load_workload(path)
