"""Unit tests: popularity models, catalogs, and SWIM trace synthesis."""

import numpy as np
import pytest

from repro.mapreduce.job import JobSpec
from repro.workloads.catalog import FileCatalog, FileSpec, generate_catalog
from repro.workloads.popularity import PopularityModel, access_cdf, zipf_weights
from repro.workloads.swim import (
    WL1_PARAMS,
    WL2_PARAMS,
    _arrival_times,
    synthesize_wl1,
    synthesize_wl2,
    synthesize_workload,
)


class TestZipf:
    def test_weights_sum_to_one(self):
        assert zipf_weights(100, 1.1).sum() == pytest.approx(1.0)

    def test_weights_decrease_with_rank(self):
        w = zipf_weights(50, 0.9)
        assert all(w[i] >= w[i + 1] for i in range(49))

    def test_s_zero_is_uniform(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)

    def test_access_cdf_monotone_and_normalized(self):
        cdf = access_cdf(zipf_weights(30, 1.2))
        assert cdf[-1] == pytest.approx(1.0)
        assert all(np.diff(cdf) >= 0)

    def test_popularity_model_sampling_skew(self):
        model = PopularityModel(50, s=1.2, rng=np.random.default_rng(3))
        ranks = model.sample_ranks(20_000)
        counts = np.bincount(ranks, minlength=50)
        assert counts[0] > 4 * counts[10]  # heavy head


class TestCatalog:
    def test_generate_respects_class_counts(self):
        cat = generate_catalog(np.random.default_rng(1), n_small=10, n_medium=4, n_large=2)
        assert len(cat.by_class("small")) == 10
        assert len(cat.by_class("medium")) == 4
        assert len(cat.by_class("large")) == 2

    def test_block_counts_within_ranges(self):
        cat = generate_catalog(
            np.random.default_rng(1), small_blocks=(1, 3), medium_blocks=(8, 16),
            large_blocks=(100, 250),
        )
        for i in cat.by_class("small"):
            assert 1 <= cat[i].n_blocks <= 3
        for i in cat.by_class("large"):
            assert 100 <= cat[i].n_blocks <= 250

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FileCatalog([FileSpec("a", 1, "small"), FileSpec("a", 2, "small")])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            FileCatalog([])

    def test_total_blocks(self):
        cat = FileCatalog([FileSpec("a", 2, "small"), FileSpec("b", 3, "small")])
        assert cat.total_blocks == 5


class TestSwimSynthesis:
    def test_wl1_job_count_and_ordering(self):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=100)
        assert wl.n_jobs == 100
        times = [s.submit_time for s in wl.specs]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_wl1_is_small_job_dominated(self):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=300)
        sizes = {f.name: f.n_blocks for f in wl.catalog.files}
        small = sum(1 for s in wl.specs if sizes[s.input_file] <= 3)
        assert small / wl.n_jobs > 0.85

    def test_wl2_has_periodic_large_jobs(self):
        wl = synthesize_wl2(np.random.default_rng(7), n_jobs=200)
        classes = {f.name: f.size_class for f in wl.catalog.files}
        period = WL2_PARAMS.large_period
        for i in range(0, 200, period):
            assert classes[wl.specs[i].input_file] == "large"

    def test_access_distribution_heavy_tailed(self):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=500)
        counts = sorted(wl.access_counts().values(), reverse=True)
        # Fig. 6 shape: a few files dominate the accesses
        assert counts[0] > 10 * counts[min(20, len(counts) - 1)]

    def test_empirical_cdf_reaches_one(self):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=200)
        cdf = wl.empirical_access_cdf()
        assert cdf[-1] == pytest.approx(1.0)

    def test_specs_by_id_lookup(self):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=50)
        for spec in wl.specs:
            assert wl.specs_by_id[spec.job_id] is spec

    def test_total_map_tasks_consistent(self):
        wl = synthesize_wl1(np.random.default_rng(7), n_jobs=50)
        sizes = {f.name: f.n_blocks for f in wl.catalog.files}
        assert wl.total_map_tasks() == sum(sizes[s.input_file] for s in wl.specs)

    def test_all_specs_validate(self):
        wl = synthesize_wl2(np.random.default_rng(7), n_jobs=100)
        for s in wl.specs:
            s.validate()

    def test_deterministic_given_seed(self):
        a = synthesize_wl1(np.random.default_rng(9), n_jobs=50)
        b = synthesize_wl1(np.random.default_rng(9), n_jobs=50)
        assert [s.input_file for s in a.specs] == [s.input_file for s in b.specs]
        assert [s.submit_time for s in a.specs] == [s.submit_time for s in b.specs]

    def test_catalog_missing_class_rejected(self):
        cat = FileCatalog([FileSpec("a", 1, "small")])
        with pytest.raises(ValueError, match="no 'medium'"):
            synthesize_workload(WL1_PARAMS._replace(n_jobs=10),
                                np.random.default_rng(0), cat)


def _synthesize_with_choice(params, rng):
    """Reference synthesis: one ``Generator.choice(n, p=...)`` per draw.

    The loop ``synthesize_workload`` ran before it bisected over
    cumulative weights computed once per trace; the two must agree on
    every spec and leave the generator in the same state.
    """
    catalog = generate_catalog(rng, **params.catalog_kwargs)
    classes = ("small", "medium", "large")
    class_indices = {c: catalog.by_class(c) for c in classes}
    class_weights = {
        c: zipf_weights(len(class_indices[c]), params.zipf_s) for c in classes
    }
    arrivals = _arrival_times(params, rng)
    specs = []
    for i in range(params.n_jobs):
        if params.large_period and i % params.large_period == 0:
            size_class = "large"
        else:
            size_class = classes[
                int(rng.choice(3, p=np.asarray(params.class_mix) / sum(params.class_mix)))
            ]
        members = class_indices[size_class]
        fidx = members[int(rng.choice(len(members), p=class_weights[size_class]))]
        fspec = catalog[fidx]
        specs.append(
            JobSpec(
                job_id=i,
                submit_time=float(arrivals[i]),
                input_file=fspec.name,
                map_cpu_s=float(rng.lognormal(*params.map_cpu)),
                n_reduces=max(1, min(20, fspec.n_blocks // 6)),
                reduce_cpu_s=float(rng.lognormal(*params.reduce_cpu)),
                shuffle_ratio=float(rng.uniform(0.2, 0.7)),
                output_ratio=float(rng.uniform(0.1, 0.4)),
            )
        )
    return catalog, specs


class TestSynthesisMatchesChoice:
    """The bisect draws stand for ``Generator.choice`` exactly; this is
    the guard on numpy's ``choice`` internals across numpy versions."""

    @pytest.mark.parametrize("params", [WL1_PARAMS, WL2_PARAMS], ids=["wl1", "wl2"])
    @pytest.mark.parametrize("n_jobs", [1, 7, 60, 500, 2000])
    def test_same_specs_catalog_and_generator_state(self, params, n_jobs):
        params = params._replace(n_jobs=n_jobs)
        for seed in (0, 7, 20110926, 2**40 + 3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            wl = synthesize_workload(params, rng)
            catalog, specs = _synthesize_with_choice(params, ref_rng)
            assert wl.specs == specs
            assert wl.catalog.files == catalog.files
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_negative_class_mix_rejected(self):
        # choice refused such weights; the cumulative weights refuse them too
        params = WL1_PARAMS._replace(n_jobs=5, class_mix=(1.2, -0.1, -0.1))
        with pytest.raises(ValueError, match="not non-negative"):
            synthesize_workload(params, np.random.default_rng(0))
