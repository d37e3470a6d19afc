"""Unit tests: the SIGPROF stack sampler.

Shares are statistical, so the tests that take real samples assert
coverage and ordering, never counts.  The report's arithmetic is pinned
by feeding the handler frames from functions defined in named modules.
"""

import signal
import sys
import threading
import time

import pytest

from repro.observability.profiling import SamplerUnavailable, StackSampler
from repro.simulation.engine import Engine


def _in_module(module, name, body="return sample(sys._getframe())"):
    """A function ``name`` defined as if in ``module``, whose frames the
    sampler attributes to that module."""
    namespace = {"__name__": module, "sys": sys}
    exec(f"def {name}(sample, *args):\n    {body}\n", namespace)
    return namespace[name]


def _feed(sampler, module, name, times=1):
    """Take ``times`` samples with a frame of ``module.name`` on top."""
    fn = _in_module(module, name)
    for _ in range(times):
        fn(lambda frame: sampler._sample(signal.SIGPROF, frame))


class TestAttribution:
    def test_counts_the_innermost_repro_frame(self):
        prof = StackSampler()
        outer = _in_module("repro.simulation.engine", "run", "return args[0](sample)")
        inner = _in_module("repro.mapreduce.jobtracker", "heartbeat")
        outer(lambda frame: prof._sample(signal.SIGPROF, frame), inner)
        assert prof.packages == {"mapreduce": 1}
        assert prof.functions == {("mapreduce", "heartbeat"): 1}

    def test_a_callback_from_elsewhere_counts_toward_its_repro_caller(self):
        prof = StackSampler()
        outer = _in_module("repro.simulation.engine", "run", "return args[0](sample)")
        callback = _in_module("tests.some_callback", "action")
        outer(lambda frame: prof._sample(signal.SIGPROF, frame), callback)
        assert prof.packages == {"simulation": 1}
        assert prof.coverage == 1.0

    def test_a_sample_with_no_repro_frame_is_outside(self):
        prof = StackSampler()
        prof._sample(signal.SIGPROF, sys._getframe())
        _feed(prof, "repro.hdfs.namenode", "process_heartbeat")
        assert prof.samples == 2
        assert prof.packages == {"hdfs": 1}
        assert prof.coverage == pytest.approx(0.5)

    def test_top_level_repro_modules_are_their_own_package(self):
        prof = StackSampler()
        _feed(prof, "repro.cli", "cmd_run")
        _feed(prof, "reproducer.other", "f")  # not the repro package
        assert prof.packages == {"cli": 1}


class TestAggregation:
    def test_frames_collapse_into_packages(self):
        prof = StackSampler()
        _feed(prof, "repro.mapreduce.jobtracker", "heartbeat", 3)
        _feed(prof, "repro.mapreduce.job", "find_pending_map", 2)
        _feed(prof, "repro.scheduling.fair", "pick_map")
        assert prof.packages == {"mapreduce": 5, "scheduling": 1}
        assert prof.top_functions("mapreduce", 5) == [
            ("heartbeat", pytest.approx(0.5)),
            ("find_pending_map", pytest.approx(2 / 6)),
        ]

    def test_shares_sum_to_one(self):
        prof = StackSampler()
        for module in ("repro.a.x", "repro.b.x", "repro.c.x", "repro.a.y"):
            _feed(prof, module, "f")
        assert sum(share for _, share in prof.shares()) == pytest.approx(1.0)
        prof._sample(signal.SIGPROF, sys._getframe())  # one outside
        assert sum(share for _, share in prof.shares()) == pytest.approx(prof.coverage)

    def test_report_sorted_hottest_first(self):
        prof = StackSampler()
        _feed(prof, "repro.hdfs.datanode", "f")
        _feed(prof, "repro.mapreduce.job", "f", 3)
        _feed(prof, "repro.core.manager", "f", 2)
        _feed(prof, "repro.cluster.node", "f", 2)
        assert [p for p, _ in prof.shares()] == ["mapreduce", "cluster", "core", "hdfs"]

    def test_top_limits_rows(self):
        prof = StackSampler()
        for name in "abcdef":
            _feed(prof, "repro.simulation.engine", name)
        assert len(prof.top_functions("simulation", 3)) == 3
        assert prof.top_functions("absent", 3) == []


class TestReporting:
    def test_format_report_empty(self):
        assert "no samples" in StackSampler().format_report()

    def test_format_report_mentions_packages(self):
        prof = StackSampler()
        _feed(prof, "repro.mapreduce.jobtracker", "heartbeat", 3)
        _feed(prof, "repro.simulation.engine", "run")
        prof._sample(signal.SIGPROF, sys._getframe())
        lines = prof.format_report(top=1).splitlines()
        assert lines[0] == "profile: 5 samples, 80.0% in named repro packages"
        assert lines[2].split() == ["mapreduce", "60.0%", "heartbeat", "60.0%"]
        assert lines[3].split() == ["simulation", "20.0%", "run", "20.0%"]


class TestArming:
    def test_exit_restores_the_handler_and_disarms(self):
        previous = signal.getsignal(signal.SIGPROF)
        with StackSampler() as prof:
            assert signal.getsignal(signal.SIGPROF) == prof._sample
            assert signal.getitimer(signal.ITIMER_PROF)[1] > 0
        assert signal.getsignal(signal.SIGPROF) == previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_exit_restores_after_an_exception_inside(self):
        previous = signal.getsignal(signal.SIGPROF)
        with pytest.raises(KeyError):
            with StackSampler():
                raise KeyError("boom")
        assert signal.getsignal(signal.SIGPROF) == previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_the_real_timer_is_left_alone(self):
        previous = signal.setitimer(signal.ITIMER_REAL, 50.0)
        try:
            with StackSampler():
                pass
            assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
        finally:
            signal.setitimer(signal.ITIMER_REAL, *previous)

    def test_arming_off_the_main_thread_raises(self):
        errors = []

        def arm():
            try:
                with StackSampler():
                    pass
            except SamplerUnavailable as exc:
                errors.append(exc)

        worker = threading.Thread(target=arm)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(errors) == 1 and "main thread" in str(errors[0])
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def _tick_chain(engine):
    """A self-rescheduling event chain: its callbacks, defined here, run
    under Engine.run, so their samples count toward ``simulation``."""

    def tick():
        engine.schedule_in(1.0, tick, "tick")

    engine.schedule(0.0, tick, "tick")


class TestSampling:
    def test_a_cpu_bound_engine_loop_gets_the_top_share(self):
        engine = Engine()
        _tick_chain(engine)
        started = time.process_time()
        with StackSampler() as prof:
            while prof.samples < 40 and time.process_time() - started < 20:
                engine.run(until=engine.now + 20_000)
        assert prof.samples > 0
        assert prof.shares()[0][0] == "simulation"
        assert prof.coverage >= 0.95
        top, _ = prof.top_functions("simulation", 1)[0]
        assert top.split(".")[-1] in ("run", "schedule_in")


class TestEngineIntegration:
    def test_profiled_run_preserves_event_order(self):
        def run(profiled):
            engine = Engine()
            order = []
            count = [0]

            def tick():
                count[0] += 1
                order.append((engine.now, count[0]))
                if count[0] < 100:
                    engine.schedule_in(0.5, tick)
                    if count[0] % 4 == 0:
                        engine.cancel(engine.schedule_in(0.25, tick))

            engine.schedule(0.0, tick)
            if profiled:
                with StackSampler():
                    engine.run()
            else:
                engine.run()
            return order

        assert run(profiled=False) == run(profiled=True)

    def test_the_simulator_holds_no_profiler(self):
        import numpy as np

        from repro.experiments.runner import ExperimentConfig, ExperimentResult, Simulation
        from repro.workloads.swim import synthesize_wl1

        sim = Simulation(ExperimentConfig(), synthesize_wl1(np.random.default_rng(1), n_jobs=2))
        assert not hasattr(sim, "profiler") and not hasattr(sim.engine, "profiler")
        assert "profiler" not in ExperimentResult.__dataclass_fields__
