"""Tests of the benchmark harness itself: ``pytest e2e_bench/test_e2e_harness.py``.

They cover the self-time arithmetic, wrapper install/uninstall, traced
vs untraced result equality, the p90 validity rule, time scaling, the
comparison verdicts (failures, serve's gates, run length), and that
BENCHMARK.json names what the harness reports.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

import common
import compare
import layers

common.use_checkout_source()


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


# -- self-time arithmetic -------------------------------------------------------


def test_self_time_of_nested_spans():
    # origin, A in, B in, B out, C in, C out, A out
    ledger = layers.Ledger(clock=fake_clock([0.0, 0.0, 1.0, 3.0, 4.0, 5.0, 10.0]))
    a, b, c = (ledger.stat(n) for n in "abc")
    fa = ledger.enter()
    fb = ledger.enter()
    ledger.exit("b", b, fb)
    fc = ledger.enter()
    ledger.exit("c", c, fc)
    ledger.exit("a", a, fa)
    assert (a.calls, a.total_s, a.self_s) == (1, 10.0, 7.0)
    assert (b.total_s, b.self_s) == (2.0, 2.0)
    assert (c.total_s, c.self_s) == (1.0, 1.0)
    totals = ledger.totals()
    assert layers.self_time_sum(totals) == pytest.approx(a.total_s)
    spans = ledger.spans_doc()
    assert spans["a"] == [[fa[0], 0, 0.0, 10.0]]
    assert spans["b"][0][1] == fa[0] and spans["c"][0][1] == fa[0]


def test_grandchildren_are_charged_to_their_own_parent():
    ledger = layers.Ledger(clock=fake_clock([0.0, 0.0, 1.0, 2.0, 4.0, 6.0, 9.0]))
    outer, mid, inner = (ledger.stat(n) for n in ("outer", "mid", "inner"))
    f0 = ledger.enter()
    f1 = ledger.enter()
    f2 = ledger.enter()
    ledger.exit("inner", inner, f2)
    ledger.exit("mid", mid, f1)
    ledger.exit("outer", outer, f0)
    assert (inner.total_s, inner.self_s) == (2.0, 2.0)
    assert (mid.total_s, mid.self_s) == (5.0, 3.0)
    assert (outer.total_s, outer.self_s) == (9.0, 4.0)


def test_delta_and_values_per_pass():
    ledger = layers.Ledger(clock=fake_clock([0.0, 0.0, 1.0, 1.0, 4.0]))
    stat = ledger.stat("scheduling.pick_map")
    frame = ledger.enter()
    ledger.exit("scheduling.pick_map", stat, frame)
    stat.useful += 1
    mark = ledger.totals()
    frame = ledger.enter()
    ledger.exit("scheduling.pick_map", stat, frame)
    values = layers.ledger_values(layers.delta(ledger.totals(), mark))
    assert values["scheduling.pick_map.calls"] == 1.0
    assert values["scheduling.pick_map.self_s"] == 3.0
    assert values["scheduling.pick_map.useful_ratio"] == 0.0
    assert values["mapreduce.heartbeat.calls"] == 0.0


# -- wrappers ---------------------------------------------------------------------


def _originals():
    out = []
    for module_name, cls, attr, *_ in layers.TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls) if cls else module
        out.append((owner, attr, vars(owner)[attr]))
    return out


def test_wrappers_uninstall_back_to_the_originals():
    before = _originals()
    patches = layers.install(layers.Ledger())
    try:
        for owner, attr, original in before:
            wrapped = vars(owner)[attr]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        layers.uninstall(patches)
    assert patches == []
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def _digest(config, spec):
    from repro.experiments.runner import run_experiment
    from repro.experiments.serialize import result_to_dict

    return common.result_digest(result_to_dict(run_experiment(config, spec.materialize())))


def test_traced_and_untraced_digests_are_equal():
    from repro.core.config import DareConfig
    from repro.experiments.runner import ExperimentConfig
    from repro.experiments.sweep import WorkloadSpec
    from repro.policies.bench import bench_config

    spec = WorkloadSpec("wl1", 12, 7)
    configs = [
        ExperimentConfig(scheduler="fair", dare=DareConfig.elephant_trap(), seed=3),
        dataclasses.replace(bench_config("rollout"), seed=3),
    ]
    untraced = [_digest(c, spec) for c in configs]
    ledger = layers.Ledger()
    patches = layers.install(ledger)
    try:
        traced = [_digest(c, spec) for c in configs]
    finally:
        layers.uninstall(patches)
    assert traced == untraced
    assert ledger.stats["simulation.run"].calls > 0
    assert ledger.stats["checkpoint.snapshot"].calls > 0


# -- statistics ---------------------------------------------------------------------


def test_p90_needs_a_hundred_samples():
    assert common.p90(list(range(common.P90_MIN_SAMPLES - 1))) is None
    samples = list(range(common.P90_MIN_SAMPLES))
    value = common.p90(samples)
    assert value is not None
    assert sum(1 for x in samples if x > value) >= 10


def test_serve_load_always_yields_a_valid_p90():
    import serve

    for seconds in (1, 5, 20):
        assert serve.jobs_per_client(seconds) * serve.CLIENTS >= common.P90_MIN_SAMPLES


def test_scaling_follows_the_sampled_speed():
    sampler = common.SpeedSampler(1.0)
    # full speed until t=10, then half speed
    for t in range(20):
        sampler.at.append(float(t))
        sampler.speed.append(1.0 if t < 10 else 0.5)
    assert sampler.scale(2.0, 6.0) == pytest.approx(4.0)
    # a host running twice as slow takes twice the wall time for the work
    assert sampler.scale(12.0, 18.0) == pytest.approx(3.0)
    # shorter than a sampling period: the readings on either side
    assert sampler.speed_between(9.2, 9.4) == pytest.approx(0.75)
    assert sampler.slowdown() == pytest.approx(2.0 / 1.5)
    # a workload twice as sensitive runs 4x slower when the loop runs 2x
    sampler.sensitivity = 2.0
    assert sampler.scale(12.0, 18.0) == pytest.approx(1.5)
    assert sampler.slowdown() == pytest.approx(2.0 / 1.5)


def test_sampler_times_the_loop_while_entered():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with common.SpeedSampler(1.0) as sampler:
        mark = sampler.mark()
        while len(sampler.speed) < 5:
            common._speed_loop()
        work_s = sampler.scaled(mark)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < sampler.spent < time.perf_counter() - mark[0]
    assert work_s > 0.0 and all(s > 0.0 for s in sampler.speed)


# -- compare.py verdicts ------------------------------------------------------------

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]


def test_same_distribution_is_no_change():
    assert compare.verdict(BASE, list(reversed(BASE)), "lower", 0.1)[0] == "no-change"


def test_consistent_speedup_is_improved():
    faster = [x * 0.8 for x in BASE]
    assert compare.verdict(BASE, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(BASE, faster, "higher", 0.1)[0] == "regressed"


def test_slowdown_beyond_the_bound_is_regressed():
    assert compare.verdict(BASE, [x * 1.2 for x in BASE], "lower", 0.1)[0] == "regressed"
    # within the bound: not a regression, and not a claimable gain either
    assert compare.verdict(BASE, [x * 1.05 for x in BASE], "lower", 0.1)[0] == "no-change"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 9.0, 11.0, 6.5, 13.5, 10.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"
    # ... unless every change run beats every parent run
    assert compare.verdict(noisy, [x / 3 for x in noisy], "lower", 0.1)[0] == "improved"


def test_too_few_pairs_is_unresolved():
    assert compare.verdict(BASE[:9], BASE[:9], "lower", 0.1)[0] == "unresolved"


def test_ties_count_for_neither_side():
    # 8 clear wins and 2 ties: below the 9/10 share, so no gain is claimed
    change = [x * 0.8 for x in BASE[:8]] + BASE[8:]
    assert compare.verdict(BASE, change, "lower", 0.1)[0] == "no-change"


def test_digest_differences_at_the_same_seed_fail():
    def doc(seed, digest):
        return {"workloads": {"rollout": {"digests": {seed: {"cell": digest}}}}}

    assert compare.digest_differences([doc("1", "a")], [doc("1", "a"), doc("2", "b")]) == []
    assert compare.digest_differences([doc("1", "a")], [doc("1", "b")]) == [
        "rollout seed 1 cell"]


def test_alternation():
    assert compare.alternated([0, 2, 4], [1, 3, 5])
    assert compare.alternated([1, 2], [0, 3])
    assert not compare.alternated([0, 1], [2, 3])


SPEC = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.1}]}


CLIENT = {"server.jobs_per_s": 10.0, "server.job_p50_ms": 100.0,
          "server.job_p90_ms": 150.0}


def run_docs(first_start, run_s, failed=0, seconds=20.0, layers=CLIENT):
    """One serve result document per value, started two seconds apart."""
    return [{"started_at": first_start + 2 * k, "seconds": seconds, "workloads": {
        "serve": {"failed": failed, "metrics": {"run_s": {"value": v}},
                  "layers": dict(layers)}}}
        for k, v in enumerate(run_s)]


def test_more_failures_regress_even_when_faster():
    parent = run_docs(0, BASE)
    # fast-failing jobs leave only quick ones timed: the change reads faster
    change = run_docs(1, [x * 0.7 for x in BASE], failed=1)
    rows, _ = compare.compare(parent, change, SPEC)
    row, lines = rows["serve"]
    assert row == "regressed"
    assert any("failed" in line and "regressed" in line for line in lines)
    # the same timings with no more failures than the parent are a gain
    rows, _ = compare.compare(parent, run_docs(1, [x * 0.7 for x in BASE]), SPEC)
    assert rows["serve"][0] == "improved"


def test_serve_gates_its_tail_latency():
    slow_tail = dict(CLIENT, **{"server.job_p90_ms": 200.0})
    rows, _ = compare.compare(run_docs(0, BASE),
                              run_docs(1, BASE, layers=slow_tail), SPEC)
    assert rows["serve"][0] == "regressed"


def test_runs_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="different lengths"):
        compare.compare(run_docs(0, BASE), run_docs(1, BASE, seconds=15.0), SPEC)


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_names_what_the_harness_reports():
    import e2e

    spec = common.load_json(common.BENCHMARK_JSON)
    assert spec["paths"] == [common.BENCH_DIR.name]
    assert [w["name"] for w in spec["workloads"]] == list(e2e.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
