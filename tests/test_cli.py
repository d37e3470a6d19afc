"""Unit tests: the command-line interface."""

import json
import re

import pytest

from repro.checkpoint import parse_patch
from repro.cli import _cell, _parse_failures, build_parser, main
from repro.core.config import POLICY_NAMES, DareConfig
from repro.experiments.sweep import WorkloadSpec, cache_key
from repro.policies.bench import bench_config


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

    @pytest.mark.parametrize("argv, message", [
        (["run", "--jobs", "5", "--mesoscale"],
         "--mesoscale requires --nodes (scale clusters only)"),
        (["sweep", "--mesoscale"],
         "--mesoscale requires --nodes (scale clusters only)"),
        (["run", "--jobs", "5", "--nodes", "200000"],
         "--nodes 200,000 exceeds the supported maximum of 100,000 "
         "(the scaling benches gate up to 100k)"),
        (["run", "--jobs", "5", "--nodes", "30000"],
         "--nodes 30,000 without --mesoscale keeps all 30,000 nodes "
         "event-accurate (per-node heartbeats); pass --mesoscale to pool "
         "idle nodes into rack hubs, or stay at <= 25,000 nodes"),
        (["run", "--workload", "wl9"],
         "unknown workload 'wl9' (expected wl1, wl2, *.json, or *.tsv)"),
        (["checkpoint", "save", "--policy", "rollout"],
         "argument --policy: invalid choice: 'rollout'"),
        (["checkpoint", "save", "--nodes", "20"],
         "unrecognized arguments: --nodes 20"),
        (["run", "--jobs", "0"], "--jobs must be at least 1 (got 0)"),
        (["checkpoint", "save", "--jobs", "-3"],
         "--jobs must be at least 1 (got -3)"),
        (["run", "--workload", "no-such-dir/missing.json"],
         "cannot read workload 'no-such-dir/missing.json': "),
        (["sweep", "--serve", "127.0.0.1:0", "--no-cache", "--n-jobs", "100001"],
         "cannot serve the grid: malformed cell document: ValueError: "
         "workload n_jobs must be an integer in [1, 100000] (got 100001)"),
    ], ids=["run-mesoscale-alone", "sweep-mesoscale-alone", "nodes-over-cap",
            "nodes-need-mesoscale", "unknown-workload",
            "checkpoint-save-rollout", "checkpoint-save-nodes",
            "run-zero-jobs", "checkpoint-save-negative-jobs",
            "missing-workload-file", "sweep-serve-over-job-bound"])
    def test_bad_cell_flags_exit_with_advice(self, argv, message, tmp_path,
                                             capsys):
        ckpt = tmp_path / "c.ckpt"
        if argv[0] == "checkpoint":
            argv = [*argv[:2], "--at", "5", "--out", str(ckpt), *argv[2:]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code not in (0, None)
        assert message in f"{exc.value.code}\n{capsys.readouterr().err}"
        assert not ckpt.exists()


class TestPolicyVocabulary:
    """One policy-name table, ``POLICY_NAMES``, read by every front door."""

    @pytest.mark.parametrize("name", list(POLICY_NAMES))
    def test_every_door_accepts_every_name(self, name):
        dare = DareConfig.named(name)
        assert parse_patch(f"policy:{name}").dare == dare
        assert bench_config(name).dare == dare
        full = POLICY_NAMES[name].value
        workload = WorkloadSpec("wl1", 5, 7)
        for command in (["run"], ["checkpoint", "save", "--at", "5", "--out", "c"]):
            def cell(*flags):
                args = build_parser().parse_args([*command, "--jobs", "5", *flags])
                return _cell(args)[0]

            short = cell("--policy", name, "--threshold", "2")
            assert short.dare == dare._replace(
                threshold=2 if full == "elephant-trap" else dare.threshold)
            # a short name and its Policy value give one cell, one cache key
            long = cell("--policy", full, "--threshold", "2")
            assert long == short
            assert cache_key(long, workload) == cache_key(short, workload)
            if full != "elephant-trap":  # a tunable the policy never reads
                plain = cell("--policy", name)
                assert cache_key(plain, workload) == cache_key(short, workload)

    @pytest.mark.parametrize("name", ["no-such-policy", "rollout"])
    def test_unknown_name_is_refused_listing_the_table(self, name, capsys):
        """One message from every code door; the CLI's is argparse's,
        whose choices are the table."""
        message = (f"unknown policy {name!r} "
                   f"(expected one of {', '.join(POLICY_NAMES)})")
        with pytest.raises(ValueError) as err:
            DareConfig.named(name)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            parse_patch(f"policy:{name}")
        assert str(err.value) == f"bad patch spec 'policy:{name}': {message}"
        if name == "rollout":
            # rollout picks the run driver: `run` and the bench take it, and
            # TestParser pins `checkpoint save`'s refusal
            return
        with pytest.raises(ValueError, match=re.escape(message)):
            bench_config(name)
        for command in (["run"], ["checkpoint", "save", "--at", "5", "--out", "c"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*command, "--policy", name])
            err = capsys.readouterr().err
            assert f"argument --policy: invalid choice: {name!r}" in err
            assert all(table_name in err for table_name in POLICY_NAMES)


class TestOutOfRangeCells:
    """An out-of-range cell parameter or pause time exits with one line,
    before any simulation runs."""

    @pytest.mark.parametrize("flags, message", [
        (["--p", "2"], "bad cell: dare: p must be in [0, 1], got 2.0"),
        (["--budget", "-1"], "bad cell: dare: budget must be >= 0, got -1.0"),
        (["--policy", "rollout", "--rollout-jobs", "0"],
         "bad cell: rollout: jobs must be >= 1, got 0"),
        (["--policy", "rollout", "--rollout-branches", "0"],
         "bad cell: rollout: branches must be >= 1, got 0"),
        (["--scarlett", "--scarlett-epoch", "0"],
         "bad cell: scarlett: epoch_s must be > 0, got 0.0"),
        (["--fail", "10:999"],
         "bad cell: failures: node 999 is not a slave (master is 0)"),
        (["--fail", "inf:3"],
         "bad cell: failures: failure time must be finite and >= 0, got inf"),
        (["--fail", "nan:3"],
         "bad cell: failures: failure time must be finite and >= 0, got nan"),
        (["--policy", "learned", "--model", "{missing}"],
         "cannot read model '{missing}': "),
    ], ids=["p", "budget", "rollout-jobs", "rollout-branches", "scarlett-epoch",
            "failure-node", "failure-at-inf", "failure-at-nan", "missing-model"])
    def test_run_exits_with_one_line(self, flags, message, tmp_path):
        missing = str(tmp_path / "missing.json")
        flags = [f.format(missing=missing) for f in flags]
        with pytest.raises(SystemExit) as exc:
            main(["run", "--jobs", "5", *flags])
        code = exc.value.code
        assert isinstance(code, str) and "\n" not in code
        assert code.startswith(message.format(missing=missing))

    @pytest.mark.parametrize("argv", [
        ["run", "--jobs", "5", "--policy", "learned"],
        ["checkpoint", "save", "--jobs", "5", "--at", "5", "--policy", "learned",
         "--out", "{tmp}/c.ckpt"],
        ["policy-bench", "--jobs", "5"],
    ], ids=["run", "checkpoint-save", "policy-bench"])
    @pytest.mark.parametrize("model", ["missing.json", "bad.json"])
    def test_every_model_reader_exits_with_one_line(self, argv, model, tmp_path):
        (tmp_path / "bad.json").write_text('{"format": 0}')
        path = str(tmp_path / model)
        with pytest.raises(SystemExit) as exc:
            main([*(a.format(tmp=tmp_path) for a in argv), "--model", path])
        code = exc.value.code
        assert isinstance(code, str) and "\n" not in code
        assert code.startswith(f"cannot read model {path!r}: ")
        assert not (tmp_path / "c.ckpt").exists()

    @pytest.mark.parametrize("at", ["-5", "inf", "nan"])
    def test_checkpoint_save_refuses_a_bad_pause_time(self, at, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(["checkpoint", "save", "--jobs", "5", "--at", at,
                  "--out", str(ckpt)])
        assert exc.value.code == f"--at must be a finite time >= 0 (got {float(at)})"
        assert not ckpt.exists()

    def test_checkpoint_save_refuses_an_out_of_range_cell(self, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(["checkpoint", "save", "--jobs", "5", "--at", "5",
                  "--fail", "10:999", "--out", str(ckpt)])
        assert exc.value.code.startswith("bad cell: failures: node 999")
        assert not ckpt.exists()

    @pytest.mark.parametrize("at", ["-5", "inf", "nan"])
    def test_whatif_refuses_a_bad_pause_time(self, at, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["run", "--jobs", "5", "--policy", "lru",
                     "--trace", str(trace)]) == 0
        out = tmp_path / "whatif.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["replay", "whatif", str(trace), "--at", at, "--out", str(out)])
        assert exc.value.code == f"--at must be a finite time >= 0 (got {float(at)})"
        assert not out.exists()


class TestEmptyWorkloads:
    """A workload with no jobs is refused with a one-line reason."""

    @pytest.mark.parametrize("argv, count", [
        (["synth", "--jobs", "0", "--out", "{out}"], 0),
        (["synth", "--jobs", "-3", "--stats"], -3),
    ], ids=["zero-out", "negative-stats"])
    def test_synth_refuses_a_count_below_one(self, argv, count, tmp_path):
        out = tmp_path / "z.json"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out) for a in argv])
        assert exc.value.code == (
            f"bad workload 'wl1': a wl1 workload needs at least 1 job (got {count})"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["checkpoint", "save", "--at", "5", "--out", "{ckpt}"],
    ], ids=["run", "checkpoint-save"])
    def test_a_workload_file_with_no_jobs_is_refused(self, command, tmp_path):
        # what `synth --jobs 0 --out` used to write: a catalog, no jobs
        saved = tmp_path / "five.json"
        assert main(["synth", "--jobs", "5", "--out", str(saved)]) == 0
        doc = json.loads(saved.read_text())
        doc["jobs"] = []
        empty = tmp_path / "z.json"
        empty.write_text(json.dumps(doc))
        ckpt = tmp_path / "c.ckpt"
        argv = [a.format(ckpt=ckpt) for a in command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workload", str(empty)])
        assert exc.value.code == f"bad workload '{empty}': workload 'wl1' has no jobs"
        assert not ckpt.exists()


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

    def test_run_profile_prints_report(self, capsys):
        assert main(["run", "--jobs", "30", "--profile"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"engine: \d+ events in [\d.]+s \([\d,]+ events/s\)",
                         out)
        table = out[out.index("profile:"):].splitlines()
        # a short cell may take less CPU than one timer tick
        if table[0].startswith("profile: no samples"):
            return
        assert re.fullmatch(
            r"profile: \d+ samples, [\d.]+% in named repro packages", table[0]
        )
        assert table[1].split() == ["package", "share", "top", "functions"]
        assert len(table) >= 3

    def test_run_profile_every_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--jobs", "5", "--profile", "--profile-every", "3"])
        assert exc.value.code == 2

    def test_run_profile_off_the_main_thread_exits_with_one_line(self):
        import threading

        codes = []

        def run():
            try:
                main(["run", "--jobs", "5", "--profile"])
            except SystemExit as exc:
                codes.append(exc.code)

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        # a string code: printed as one line, exit status 1
        assert codes == ["--profile: stack sampling works only on the main thread"]

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

    def test_coordinator_refuses_a_journal_holding_another_grid(
        self, tmp_path, monkeypatch
    ):
        # workers lease every unfinished job a coordinator restores, so
        # a shared journal would run the other grid's cells here too
        from repro.experiments.jobs import JobManager
        from repro.experiments.service import cell_to_doc
        from repro.experiments.sweep import ResultCache, build_grid
        from repro.server.app import Server
        from repro.server.jobstore import JobJournal

        cache_dir, jobstore = tmp_path / "cache", tmp_path / "jobs.jsonl"
        journal = JobJournal(jobstore)
        other, _ = JobManager(
            cache=ResultCache(cache_dir), workers=0, journal=journal,
        ).submit({"cells": [cell_to_doc(c)
                            for c in build_grid("smoke", n_jobs=8)]})
        journal.close()
        before = jobstore.read_bytes()

        async def started(self):
            raise AssertionError("the coordinator started serving")

        monkeypatch.setattr(Server, "start", started)
        argv = ["sweep", "--grid", "smoke", "--n-jobs", "6",
                "--serve", "127.0.0.1:0", "--jobstore", str(jobstore),
                "--cache-dir", str(cache_dir)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert isinstance(exc.value.code, str)  # exit status 1
        assert str(jobstore) in exc.value.code and other.id in exc.value.code
        assert jobstore.read_bytes() == before
        # once the other grid has finished, the journal may be shared
        with jobstore.open("a") as fh:
            fh.write(f'{{"event": "state", "id": "{other.id}", '
                     '"state": "done"}\n')
        with pytest.raises(AssertionError, match="started serving"):
            main(argv)

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

    @pytest.mark.parametrize("cell", [
        ["--policy", "et"],
        ["--scheduler", "fair", "--fail", "30:3"],
        ["--scarlett", "--scarlett-epoch", "20"],
        ["--check-invariants"],
        ["--workload", "saved.json"],
        ["--workload", "swim.tsv"],
    ], ids=["et", "fair-fail", "scarlett", "check-invariants", "json", "tsv"])
    def test_save_resume_round_trip(self, cell, tmp_path, capsys):
        # run and checkpoint save read the one cell flag group alike
        assert main(["synth", "--workload", "wl2", "--jobs", "20", "--seed", "3",
                     "--out", str(tmp_path / "saved.json")]) == 0
        (tmp_path / "swim.tsv").write_text("".join(
            f"j{i}\t{4 * i}\t4\t{(i % 5 + 1) * 10**8}\t{10**7}\t{10**6}\n"
            for i in range(20)))
        cell = [str(tmp_path / a) if a.endswith((".json", ".tsv")) else a
                for a in cell]
        flags = ["--jobs", "20", "--seed", "11", *cell]
        cold = tmp_path / "cold.jsonl"
        assert main(["run", *flags, "--trace", str(cold)]) == 0
        ckpt = tmp_path / "run.ckpt"
        assert main(["checkpoint", "save", "--at", "25", "--out", str(ckpt),
                     *flags, "--trace", str(tmp_path / "warm.jsonl")]) == 0
        assert "checkpoint written" in capsys.readouterr().out
        resumed = tmp_path / "resumed.jsonl"
        assert main(["checkpoint", "resume", str(ckpt),
                     "--trace", str(resumed)]) == 0
        assert resumed.read_bytes() == cold.read_bytes()

    def test_identical_saves_write_identical_files(self, tmp_path):
        # a snapshot carries no wall-clock state, so equal runs save equal
        # bytes (content-addressable, cmp-checkable)
        flags = ["--at", "25", "--jobs", "20", "--policy", "et", "--seed", "11",
                 "--trace", str(tmp_path / "warm.jsonl")]
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert main(["checkpoint", "save", "--out", str(first), *flags]) == 0
        assert main(["checkpoint", "save", "--out", str(second), *flags]) == 0
        assert first.read_bytes() == second.read_bytes()

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
