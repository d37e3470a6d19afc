"""Unit tests: the command-line interface."""

import pytest

from repro.cli import _parse_failures, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "wl1"
        assert args.policy == "et"
        assert args.cluster == "cct"

    def test_failure_spec_parsing(self):
        assert _parse_failures(["10:3", "20.5:7"]) == ((10.0, 3), (20.5, 7))

    def test_bad_failure_spec(self):
        with pytest.raises(SystemExit):
            _parse_failures(["ten-o-clock"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "wl9", "--jobs", "5"])

    def test_non_finite_trace_rejected(self, tmp_path):
        # a NaN submit time used to keep the run going until killed
        trace = tmp_path / "t.tsv"
        trace.write_text("j0\t0\t0\t1000000000\t1\t1\nj1\tnan\t1\t1000\t1\t1\n")
        with pytest.raises(SystemExit, match="non-finite submit time"):
            main(["run", "--workload", str(trace), "--nodes", "20"])


class TestCommands:
    def test_probe(self, capsys):
        assert main(["probe", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "hop" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "audit log" in out
        assert "age CDF" in out

    def test_run_small(self, capsys):
        assert main(["run", "--jobs", "40", "--policy", "lru", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "loc=" in out
        assert "replicas created" in out
        assert "network traffic" in out

    def test_run_vanilla_policy(self, capsys):
        assert main(["run", "--jobs", "30", "--policy", "off"]) == 0
        out = capsys.readouterr().out
        assert "replicas created" not in out

    def test_run_with_failure(self, capsys):
        assert main(["run", "--jobs", "40", "--fail", "100:4"]) == 0
        out = capsys.readouterr().out
        assert "blocks lost replicas" in out

    def test_run_with_scarlett(self, capsys):
        assert main(
            ["run", "--jobs", "60", "--policy", "off", "--scarlett",
             "--scarlett-epoch", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "scarlett replicas" in out

    def test_synth_and_reload(self, tmp_path, capsys):
        out_file = tmp_path / "wl.json"
        assert main(["synth", "--workload", "wl2", "--jobs", "25",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert main(["run", "--workload", str(out_file), "--policy", "off"]) == 0

    def test_figures_subset(self, capsys):
        assert main(["figures", "--jobs", "30", "--only", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "cv" in out


class TestSweepCommand:
    def test_smoke_grid_cold_then_cached(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--grid", "smoke", "--n-jobs", "6",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cached" in out and "0 failed" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out and "2 cache hits" in out

    def test_no_cache_writes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", "--grid", "smoke", "--n-jobs", "6",
                     "--no-cache", "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()
        assert "cache off" in capsys.readouterr().out

    def test_out_document(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "results.json"
        assert main(["sweep", "--grid", "smoke", "--n-jobs", "6", "--no-cache",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["grid"] == "smoke"
        assert len(doc["cells"]) == 2
        for cell in doc["cells"]:
            assert cell["ok"] and cell["result"]["n_jobs"] == 6

    def test_shard_selects_subset(self, tmp_path, capsys):
        assert main(["sweep", "--grid", "smoke", "--n-jobs", "6", "--no-cache",
                     "--shard", "1/2"]) == 0
        assert "1 cells" in capsys.readouterr().out

    def test_bad_shard_and_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--shard", "4/2"])
        with pytest.raises(SystemExit):
            main(["sweep", "--grid", "fig99"])

    @pytest.mark.parametrize("command", [
        ["serve", "--port", "0"],
        ["sweep", "--grid", "smoke", "--n-jobs", "6", "--serve", "127.0.0.1:0"],
    ], ids=["serve", "sweep-serve"])
    def test_jobstore_without_cache_exits(self, command, tmp_path):
        # a restored job's results come back from the cache; without one
        # every finished cell would be answered as an empty failure
        jobstore = tmp_path / "jobs.jsonl"
        with pytest.raises(SystemExit, match="--jobstore needs the result cache"):
            main([*command, "--jobstore", str(jobstore), "--no-cache"])
        assert not jobstore.exists()

    def test_trace_dir_produces_verifiable_traces(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["sweep", "--grid", "smoke", "--n-jobs", "6", "--no-cache",
                     "--trace-dir", str(trace_dir)]) == 0
        traces = sorted(trace_dir.glob("*.jsonl"))
        assert len(traces) == 2
        for trace in traces:
            assert main(["replay", "verify", str(trace)]) == 0


class TestCheckpointCommands:
    def _record_trace(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["run", "--jobs", "20", "--policy", "lru", "--seed", "7",
                     "--trace", str(trace)]) == 0
        return trace

    def test_whatif_without_patch_is_byte_identical(self, tmp_path, capsys):
        trace = self._record_trace(tmp_path)
        out = tmp_path / "resumed.jsonl"
        assert main(["replay", "whatif", str(trace), "--at", "20",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == trace.read_bytes()
        assert "no divergence" in capsys.readouterr().out

    def test_whatif_kill_patch_diverges(self, tmp_path, capsys):
        trace = self._record_trace(tmp_path)
        out = tmp_path / "whatif.jsonl"
        assert main(["replay", "whatif", str(trace), "--at", "20",
                     "--patch", "kill:3", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "applied: kill node 3" in stdout
        assert "diverges from the original" in stdout
        assert out.read_bytes() != trace.read_bytes()

    def test_whatif_rejects_headerless_trace(self, tmp_path):
        trace = tmp_path / "no-header.jsonl"
        trace.write_text('{"type": "run.summary", "t": 0.0}\n')
        with pytest.raises(SystemExit):
            main(["replay", "whatif", str(trace), "--at", "5"])

    def test_whatif_rejects_bad_patch(self, tmp_path):
        trace = self._record_trace(tmp_path)
        with pytest.raises(SystemExit):
            main(["replay", "whatif", str(trace), "--at", "20",
                  "--patch", "teleport:3"])

    def test_save_resume_round_trip(self, tmp_path, capsys):
        cold = tmp_path / "cold.jsonl"
        assert main(["run", "--jobs", "20", "--policy", "et", "--seed", "11",
                     "--trace", str(cold)]) == 0
        ckpt = tmp_path / "run.ckpt"
        assert main(["checkpoint", "save", "--at", "25", "--out", str(ckpt),
                     "--jobs", "20", "--policy", "et", "--seed", "11",
                     "--trace", str(tmp_path / "warm.jsonl")]) == 0
        assert "checkpoint written" in capsys.readouterr().out
        resumed = tmp_path / "resumed.jsonl"
        assert main(["checkpoint", "resume", str(ckpt),
                     "--trace", str(resumed)]) == 0
        assert resumed.read_bytes() == cold.read_bytes()

    def test_resume_with_patch(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        assert main(["checkpoint", "save", "--at", "25", "--out", str(ckpt),
                     "--jobs", "20", "--policy", "lru", "--seed", "11"]) == 0
        assert main(["checkpoint", "resume", str(ckpt),
                     "--patch", "policy:et"]) == 0
        assert "applied:" in capsys.readouterr().out

    def test_resume_rejects_missing_or_corrupt_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["checkpoint", "resume", str(tmp_path / "nope.ckpt")])
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a pickle")
        with pytest.raises(SystemExit):
            main(["checkpoint", "resume", str(bad)])
