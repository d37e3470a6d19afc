"""Property harness: randomized end-to-end runs with the checker armed.

Every scenario replays a full workload through the complete stack —
engine, HDFS, MapReduce, DARE, optional Scarlett and CDRM baselines,
optional node failures — with :class:`~repro.observability.invariants.InvariantChecker`
validating cross-component bookkeeping at every settled event.  A passing
run is the property; any accounting drift raises ``InvariantViolation``
with the trace tail.

``INVARIANT_EXAMPLES`` scales the randomized sweep (default 6; CI's
nightly job sets 500).  When hypothesis is installed it additionally
explores the seed space through the same scenario builder.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.observability.trace import RECORD_TYPES

from tests.invariants.scenarios import (
    BUDGET_CHOICES,
    P_CHOICES,
    POLICY_CHOICES,
    SCHEDULER_CHOICES,
    SPEC,
    WORKLOAD_CHOICES,
    Scenario,
    named_scenarios,
    random_scenario,
    run_scenario,
    scenario_from_params,
)

N_RANDOM = int(os.environ.get("INVARIANT_EXAMPLES", "6"))

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the base image
    HAVE_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# fixed coverage grid: greedy LRU/LFU, ElephantTrap, Scarlett, CDRM, failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", named_scenarios(), ids=lambda s: s.name)
def test_named_scenario_passes_with_checker_armed(scenario: Scenario) -> None:
    result = run_scenario(scenario)
    assert result.n_jobs == scenario.n_jobs
    assert result.trace_records_checked > 0
    assert result.invariant_sweeps > 0
    if scenario.failures:
        assert result.blocks_lost_replicas > 0
        assert result.data_loss_blocks == 0  # rf=3 survives <=2 crashes


def test_named_grid_covers_required_dimensions() -> None:
    grid = named_scenarios()
    policies = {s.dare.policy.value for s in grid}
    assert {"off", "greedy-lru", "greedy-lfu", "elephant-trap"} <= policies
    assert {s.scheduler for s in grid} == {"fifo", "fair", "fair-skip"}
    assert any(s.scarlett for s in grid)
    assert any(s.cdrm for s in grid)
    assert any(s.failures for s in grid)
    assert len(grid) >= 8


# ---------------------------------------------------------------------------
# seeded-random sweep (INVARIANT_EXAMPLES scales it)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_RANDOM))
def test_random_scenario_passes_with_checker_armed(seed: int) -> None:
    result = run_scenario(random_scenario(seed))
    assert result.trace_records_checked > 0


def test_random_scenarios_are_reproducible() -> None:
    assert random_scenario(42) == random_scenario(42)
    assert random_scenario(42) != random_scenario(43)


# ---------------------------------------------------------------------------
# trace schema: a traced run emits only known record types, in time order
# ---------------------------------------------------------------------------


def test_trace_jsonl_schema_and_ordering(tmp_path) -> None:
    from dataclasses import replace

    scenario = Scenario("traced-et", named_scenarios()[3].dare, n_jobs=8)
    path = tmp_path / "trace.jsonl"
    config = replace(scenario.to_config(), trace_path=str(path))
    run_scenario_with_config(scenario, config)
    lines = path.read_text().splitlines()
    assert lines, "trace file is empty"
    last_t = float("-inf")
    for line in lines:
        rec = json.loads(line)
        assert rec["type"] in RECORD_TYPES
        assert rec["t"] >= last_t
        last_t = rec["t"]


def run_scenario_with_config(scenario: Scenario, config):
    from repro.experiments.runner import run_experiment

    return run_experiment(config, scenario.build_workload())


# ---------------------------------------------------------------------------
# hypothesis-driven scenario exploration, one strategy per dimension
# ---------------------------------------------------------------------------
#
# Each scenario dimension is drawn independently and composed through
# scenario_from_params, so a failing example SHRINKS per dimension: toward
# the first choice of each sampled_from (off/fifo/wl1), the fewest jobs,
# and the empty failure plan.  The minimal counterexample hypothesis
# reports is therefore a readable description of the breaking workload —
# "lru/fifo/wl1, 6 jobs, node 1 fails at t=10" — not an opaque seed.

if HAVE_HYPOTHESIS:

    @st.composite
    def scenarios(draw) -> Scenario:
        """One full-stack scenario, every dimension independently drawn."""
        nodes = draw(st.lists(
            st.integers(min_value=1, max_value=SPEC.n_nodes - 1),
            unique=True,
            max_size=2,  # rf=3 survives any 2 crashes: the run completes
        ))
        failures = tuple(
            (float(10 * (i + 1)), node) for i, node in enumerate(nodes)
        )
        return scenario_from_params(
            policy=draw(st.sampled_from(POLICY_CHOICES)),
            scheduler=draw(st.sampled_from(SCHEDULER_CHOICES)),
            workload=draw(st.sampled_from(WORKLOAD_CHOICES)),
            n_jobs=draw(st.integers(min_value=6, max_value=14)),
            seed=draw(st.integers(min_value=0, max_value=10_000_000)),
            budget=draw(st.sampled_from(BUDGET_CHOICES)),
            p=draw(st.sampled_from(P_CHOICES)),
            threshold=draw(st.integers(min_value=1, max_value=3)),
            scarlett=draw(st.booleans()),
            failures=failures,
        )

    @settings(
        max_examples=max(2, N_RANDOM // 3),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
    @given(scenario=scenarios())
    def test_hypothesis_scenarios_preserve_invariants(scenario: Scenario) -> None:
        result = run_scenario(scenario)
        assert result.trace_records_checked > 0
