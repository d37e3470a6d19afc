"""Unit/integration tests: the Scarlett epoch-based baseline."""

import numpy as np
import pytest

from repro.baselines.scarlett import ScarlettConfig
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.workloads.swim import synthesize_wl1
from tests.conftest import SMALL_SPEC


@pytest.fixture(scope="module")
def wl():
    return synthesize_wl1(np.random.default_rng(7), n_jobs=80)


class TestConfig:
    def test_defaults_valid(self):
        ScarlettConfig().validate()

    @pytest.mark.parametrize(
        "kw", [{"epoch_s": 0.0}, {"budget": -0.1}, {"max_concurrent": 0}]
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            ScarlettConfig()._replace(**kw).validate()


class TestScarlettRuns:
    @pytest.fixture(scope="class")
    def scarlett_run(self, wl):
        cfg = ExperimentConfig(
            cluster_spec=SMALL_SPEC, scarlett=ScarlettConfig(epoch_s=200.0, budget=0.3)
        )
        return run_experiment(cfg, wl)

    @pytest.fixture(scope="class")
    def vanilla_run(self, wl):
        return run_experiment(ExperimentConfig(cluster_spec=SMALL_SPEC), wl)

    def test_all_jobs_complete(self, scarlett_run, wl):
        assert scarlett_run.n_jobs == wl.n_jobs

    def test_replicas_created(self, scarlett_run):
        assert scarlett_run.scarlett_replicas_created > 0

    def test_rebalancing_traffic_paid(self, scarlett_run):
        # the cost DARE avoids: proactive replication moves real bytes
        assert scarlett_run.traffic_bytes["rebalancing"] > 0

    def test_locality_improves_over_vanilla(self, scarlett_run, vanilla_run):
        assert scarlett_run.job_locality > vanilla_run.job_locality

    def test_remote_read_traffic_drops(self, scarlett_run, vanilla_run):
        assert (
            scarlett_run.traffic_bytes["remote_map_reads"]
            < vanilla_run.traffic_bytes["remote_map_reads"]
        )

    def test_deterministic(self, wl):
        cfg = ExperimentConfig(
            cluster_spec=SMALL_SPEC, scarlett=ScarlettConfig(epoch_s=200.0)
        )
        a = run_experiment(cfg, wl)
        b = run_experiment(cfg, wl)
        assert a.job_locality == b.job_locality
        assert a.scarlett_replicas_created == b.scarlett_replicas_created


class TestDareVsScarlett:
    def test_dare_pays_no_replication_traffic(self, wl):
        dare = run_experiment(
            ExperimentConfig(cluster_spec=SMALL_SPEC, dare=DareConfig.elephant_trap()),
            wl,
        )
        scarlett = run_experiment(
            ExperimentConfig(
                cluster_spec=SMALL_SPEC, scarlett=ScarlettConfig(epoch_s=200.0)
            ),
            wl,
        )
        assert dare.traffic_bytes["rebalancing"] == 0
        assert scarlett.traffic_bytes["rebalancing"] > 0

    def test_epoch_lag_on_popularity_shift(self):
        """The paper's core argument vs Scarlett: a reactive scheme adapts
        within the epoch; Scarlett serves the *previous* epoch's hot set."""
        from repro.mapreduce.job import JobSpec
        from repro.workloads.catalog import FileCatalog, FileSpec
        from repro.workloads.swim import Workload

        rng = np.random.default_rng(5)
        files = [FileSpec("hot_a", 2, "small"), FileSpec("hot_b", 2, "small")]
        files += [FileSpec(f"bg{i}", 2, "small") for i in range(30)]
        catalog = FileCatalog(files)
        specs = []
        t = 0.0
        n = 200
        for i in range(n):
            t += float(rng.exponential(4.0))
            hot = "hot_b" if i >= n // 2 else "hot_a"
            name = hot if rng.random() < 0.6 else f"bg{rng.integers(0, 30)}"
            specs.append(JobSpec(i, t, name, map_cpu_s=2.0, n_reduces=0))
        wl_shift = Workload("shift", catalog, specs)

        def phase2_locality(result):
            recs = [r for r in result.collector.job_records if r.job_id >= n // 2]
            return sum(r.data_locality for r in recs) / len(recs)

        dare = run_experiment(
            ExperimentConfig(
                cluster_spec=SMALL_SPEC,
                dare=DareConfig.elephant_trap(p=0.5, budget=0.3),
            ),
            wl_shift,
        )
        # epoch so long it never re-learns within phase 2
        scarlett = run_experiment(
            ExperimentConfig(
                cluster_spec=SMALL_SPEC,
                scarlett=ScarlettConfig(epoch_s=float(t) / 2.2, budget=0.3),
            ),
            wl_shift,
        )
        assert phase2_locality(dare) > phase2_locality(scarlett)


def test_mesoscale_copy_and_repair_targets_never_walk_every_slave(monkeypatch):
    """Scarlett copies and repairs draw their targets by order statistic
    over the alive non-holders; neither reads ``Cluster.slaves``, a copy
    of every slave (99,999 nodes at 100k) per block."""
    from repro.cluster.cluster import Cluster, scale_spec
    from repro.experiments.runner import Simulation
    from repro.workloads.swim import synthesize_wl2

    config = ExperimentConfig(
        cluster_spec=scale_spec(200, mesoscale=True), scheduler="fair",
        dare=DareConfig.greedy_lru(), seed=3,
        scarlett=ScarlettConfig(epoch_s=20.0), failures=((40.0, 3), (90.0, 7)),
    )
    sim = Simulation(config, synthesize_wl2(np.random.default_rng(3), n_jobs=30))

    def walk(self):
        raise AssertionError("Cluster.slaves read mid-run")

    monkeypatch.setattr(Cluster, "slaves", property(walk))
    sim.run(until=150.0)
    assert sim.scarlett.replicas_created > 0
    assert sim.repair.repairs_completed > 0
    sim.close()
