"""Fixed-seed determinism: traces are byte-identical across reruns.

The hot-path optimizations (inlined scheduling, heap compaction, heartbeat
event reuse, locality indexing) and the stack sampler are all required
to leave simulation behaviour untouched.  The proof is the JSONL trace: for
every policy x scheduler cell, the same seed must produce the same bytes —
run twice, and again under the sampler.
"""

import itertools
import signal

import numpy as np
import pytest

from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.observability.profiling import StackSampler
from repro.replay import diff_traces
from repro.workloads.swim import synthesize_wl1
from tests.conftest import materialize_hubs

POLICIES = {
    "off": DareConfig.off(),
    "lru": DareConfig.greedy_lru(),
    "et": DareConfig.elephant_trap(),
}
SCHEDULERS = ("fifo", "fair", "fair-skip")
SEED = 20110926
N_JOBS = 12


def _run_cell(policy, scheduler, trace_path, engine_events=False):
    rng = np.random.default_rng(SEED)
    workload = synthesize_wl1(rng, n_jobs=N_JOBS)
    config = ExperimentConfig(
        scheduler=scheduler,
        dare=POLICIES[policy],
        seed=SEED,
        trace_path=str(trace_path),
        trace_engine_events=engine_events,
    )
    return run_experiment(config, workload)


def _run_sampled_cell(*args, **kwargs):
    with StackSampler() as sampler:
        _run_cell(*args, **kwargs)
        # armed through the whole run; no tick count is asserted, as a
        # short cell may take less CPU than one ~4 ms tick
        assert signal.getsignal(signal.SIGPROF) == sampler._sample
        assert signal.getitimer(signal.ITIMER_PROF)[1] > 0


@pytest.mark.parametrize(
    "policy,scheduler", list(itertools.product(POLICIES, SCHEDULERS))
)
def test_cell_trace_is_reproducible(policy, scheduler, tmp_path):
    """Same seed, same bytes — twice plain, once under the sampler."""
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    c = tmp_path / "profiled.jsonl"
    _run_cell(policy, scheduler, a)
    _run_cell(policy, scheduler, b)
    _run_sampled_cell(policy, scheduler, c)
    bytes_a = a.read_bytes()
    assert bytes_a == b.read_bytes(), f"{policy}/{scheduler}: rerun diverged"
    assert bytes_a == c.read_bytes(), f"{policy}/{scheduler}: sampler changed the run"


def test_engine_event_firehose_is_reproducible(tmp_path):
    """The per-callback firehose pins label and seq of every event."""
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _run_cell("et", "fair", a, engine_events=True)
    _run_sampled_cell("et", "fair", b, engine_events=True)
    assert a.read_bytes() == b.read_bytes()
    diff = diff_traces(str(a), str(b))
    assert diff.identical


# -- scale modes: per-node chains and rack hubs are deterministic too ---------


def _run_scale_cell(mode, trace_path, n_nodes=150):
    from repro.cluster.cluster import scale_spec

    # "batch" runs the hubs with every member materialised (the oracle of
    # the deleted batched-accurate mode, installed by the test)
    spec = scale_spec(n_nodes, mesoscale=(mode != "accurate"))
    rng = np.random.default_rng(SEED)
    workload = synthesize_wl1(rng, n_jobs=N_JOBS)
    config = ExperimentConfig(
        cluster_spec=spec,
        scheduler="fair",
        dare=POLICIES["et"],
        seed=SEED,
        trace_path=str(trace_path),
    )
    return run_experiment(config, workload)


@pytest.mark.parametrize("mode", ["accurate", "batch", "meso"])
def test_scale_cell_trace_is_reproducible(mode, tmp_path, monkeypatch):
    """scale_spec clusters replay byte-identically in every heartbeat mode."""
    if mode == "batch":
        materialize_hubs(monkeypatch)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _run_scale_cell(mode, a)
    _run_scale_cell(mode, b)
    assert a.read_bytes() == b.read_bytes(), f"{mode}: rerun diverged"


# -- sweep executor: identical bytes regardless of execution strategy ---------


def _sweep_cells():
    from repro.experiments.sweep import SweepCell, WorkloadSpec

    workload = WorkloadSpec("wl1", N_JOBS, SEED)
    return [
        SweepCell(
            ExperimentConfig(scheduler=scheduler, dare=POLICIES[policy], seed=SEED),
            workload,
            tag=f"{scheduler}/{policy}",
        )
        for policy, scheduler in itertools.product(POLICIES, SCHEDULERS)
    ]


def _result_bytes(outcomes):
    from repro.experiments.serialize import result_to_json
    from repro.experiments.sweep import results_of

    return [result_to_json(r) for r in results_of(outcomes)]


def test_sweep_results_identical_across_worker_counts(tmp_path):
    """Serial, 2-worker, 4-worker, and cache-hit runs: equal bytes per cell."""
    from repro.experiments.sweep import ResultCache, run_cells

    cells = _sweep_cells()
    serial = _result_bytes(run_cells(cells, jobs=1))

    # a fresh cache per worker count, so every run really computes its cells
    for jobs in (2, 4):
        cache = ResultCache(tmp_path / f"cache{jobs}")
        parallel = _result_bytes(run_cells(cells, jobs=jobs, cache=cache))
        assert cache.hits == 0 and cache.misses == len(cells)
        assert parallel == serial, f"jobs={jobs} diverged from the serial path"

    # the second pass with the populated cache must reproduce the same bytes
    cached = _result_bytes(run_cells(cells, jobs=1, cache=cache))
    assert cache.hits == len(cells)
    assert cached == serial


def test_sweep_serial_path_matches_run_experiment():
    """jobs=1 runs the legacy in-process loop: results compare equal live."""
    from repro.experiments.sweep import results_of, run_cells

    cells = _sweep_cells()[:2]
    via_sweep = results_of(run_cells(cells, jobs=1))
    for cell, result in zip(cells, via_sweep):
        rng = np.random.default_rng(SEED)
        direct = run_experiment(cell.config, synthesize_wl1(rng, n_jobs=N_JOBS))
        assert result.job_locality == direct.job_locality
        assert result.gmtt_s == direct.gmtt_s
        assert result.events_processed == direct.events_processed
