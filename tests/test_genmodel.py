import tracemalloc

import numpy as np
import pytest

from vblink import genmodel
from vblink.evaluate import read_ground_truth
from vblink.genmodel import (
    GenConfig,
    latent_path_for,
    resolve_alpha,
    sample_dataset,
    write_ground_truth,
)


def peaked(eps=0.05, **kw):
    base = dict(
        entity_count=3,
        db_sizes=[3, 2],
        cardinalities=[4, 4],
        distortion=eps,
        seed=11,
    )
    base.update(kw)
    return GenConfig(**base)


class TestValidation:
    def test_zero_distortion_copies_latent_values(self):
        corpus, truth = sample_dataset(peaked(eps=0.0))
        want = truth.latent_values[truth.assignments]
        np.testing.assert_array_equal(corpus.values, want)

    def test_seed_determinism(self):
        c1, t1 = sample_dataset(peaked())
        c2, t2 = sample_dataset(peaked())
        np.testing.assert_array_equal(c1.values, c2.values)
        np.testing.assert_array_equal(t1.assignments, t2.assignments)
        np.testing.assert_array_equal(t1.latent_values, t2.latent_values)
        for b1, b2 in zip(t1.noise_distributions, t2.noise_distributions):
            np.testing.assert_array_equal(b1, b2)

    def test_distortion_out_of_range(self):
        with pytest.raises(ValueError):
            sample_dataset(peaked(eps=0.8, cardinalities=[4]))  # >= 1 - 1/4
        with pytest.raises(ValueError):
            sample_dataset(peaked(eps=-0.1))

    def test_exactly_one_noise_mode(self):
        with pytest.raises(ValueError):
            sample_dataset(peaked(dirichlet_alpha=1.0))
        with pytest.raises(ValueError):
            sample_dataset(peaked(eps=None))

    def test_bad_dirichlet_alpha(self):
        with pytest.raises(ValueError):
            sample_dataset(peaked(eps=None, dirichlet_alpha=-1.0))
        for alpha in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                sample_dataset(peaked(eps=None, dirichlet_alpha=alpha))
        # numpy's Dirichlet draws are all zero once a field's alpha sum
        # overflows; per-field vectors are summed per field
        for alpha in (1e308, [[1e308, 1e308], [1.0, 1.0]]):
            config = peaked(eps=None, dirichlet_alpha=alpha, cardinalities=[2, 2])
            with pytest.raises(ValueError, match="field 0 sum past the largest float"):
                sample_dataset(config)

    def test_entity_count_positive(self):
        with pytest.raises(ValueError):
            sample_dataset(peaked(entity_count=0))

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
            sample_dataset(peaked(seed=-5))

    def test_no_fields_rejected(self):
        with pytest.raises(ValueError, match="at least one field is required"):
            sample_dataset(peaked(cardinalities=[]))


class TestCellDraws:
    @pytest.mark.parametrize(
        "config",
        [
            peaked(db_sizes=[40, 0, 35], cardinalities=[4, 1, 7, 2], eps=0.0),
            peaked(db_sizes=[40, 0, 35], cardinalities=[4, 2, 7], eps=0.3),
            peaked(eps=None, dirichlet_alpha=0.3, cardinalities=[5, 3, 9]),
            peaked(entity_count=12, db_sizes=[20, 9], small_cluster_max=3),
        ],
        ids=["peaked-zero", "peaked", "dirichlet", "small-cluster"],
    )
    def test_match_the_per_record_formula_bit_for_bit(self, config):
        # replay the generator's draws (noise, assignments, then one uniform
        # per record and field) and take each record's CDF from its own
        # gathered row, as the sampler did before it built one per entity
        corpus, truth = sample_dataset(config)
        rng = np.random.default_rng(config.seed)
        betas, _ = genmodel._sample_noise(rng, config)
        z = genmodel._sample_assignments(rng, config, truth.total_records)
        np.testing.assert_array_equal(z, truth.assignments)
        for f, beta in enumerate(betas):
            np.testing.assert_array_equal(beta, truth.noise_distributions[f])
            u = rng.random(len(z))
            want = np.minimum(
                np.sum(u[:, None] >= np.cumsum(beta[z], axis=1), axis=1),
                beta.shape[1] - 1,
            )
            np.testing.assert_array_equal(corpus.values[:, f], want)

    def test_peak_has_no_records_by_values_table(self):
        # 200,000 records x 10 fields of 10 values: the draws of a field
        # hold O(N) arrays (the uniforms, a count, one gathered row of the
        # CDF table and its compare), none of them N x V.  Drawing from an
        # (N, V) CDF table and its compare peaked at 44 MB, over this
        # bound of 17.6 MB.
        n, v = 200_000, 10
        config = GenConfig(
            entity_count=50, db_sizes=[n], cardinalities=[v] * 10,
            dirichlet_alpha=0.3, seed=1,
        )
        tracemalloc.start()
        try:
            corpus, _ = sample_dataset(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < corpus.values.nbytes + 6 * n * 8


class TestNoiseStructure:
    def test_peaked_rows(self):
        _, truth = sample_dataset(peaked(eps=0.12))
        for f, beta in enumerate(truth.noise_distributions):
            np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-12)
            v_star = truth.latent_values[:, f]
            np.testing.assert_allclose(
                beta[np.arange(beta.shape[0]), v_star], 0.88, atol=1e-12
            )
            for k in range(beta.shape[0]):
                others = np.delete(beta[k], v_star[k])
                np.testing.assert_allclose(others, 0.12 / 3, atol=1e-12)

    def test_distortion_rate_monte_carlo(self):
        # across many cells the observed flip frequency matches epsilon
        cfg = peaked(
            eps=0.25,
            entity_count=4,
            db_sizes=[50_000],
            cardinalities=[2, 2],
            seed=3,
        )
        corpus, truth = sample_dataset(cfg)
        want = truth.latent_values[truth.assignments]
        rate = float(np.mean(corpus.values != want))
        assert rate == pytest.approx(0.25, abs=0.005)

    def test_dirichlet_mode_rows_are_dirichlet_draws(self):
        # records within an entity share one beta draw, so the value
        # marginal concentrates at the rate of the *entity* count; test the
        # draws themselves instead
        cfg = GenConfig(
            entity_count=2_000,
            db_sizes=[4_000],
            cardinalities=[4],
            dirichlet_alpha=1.0,
            seed=9,
        )
        _, truth = sample_dataset(cfg)
        beta = truth.noise_distributions[0]
        assert beta.shape == (2_000, 4)
        np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-12)
        # under a flat Dirichlet each component has mean 1/4 and variance
        # (1/4)(3/4)/5; the entity average sits within 4 standard errors
        se = np.sqrt(0.25 * 0.75 / 5.0 / 2_000)
        np.testing.assert_allclose(beta.mean(axis=0), 0.25, atol=4 * se)

    def test_dirichlet_mode_latent_is_modal_value(self):
        cfg = peaked(eps=None, dirichlet_alpha=0.3)
        _, truth = sample_dataset(cfg)
        for f, beta in enumerate(truth.noise_distributions):
            np.testing.assert_array_equal(
                truth.latent_values[:, f], np.argmax(beta, axis=1)
            )


class TestSmallClusterMode:
    def test_sizes_capped_and_all_entities_used(self):
        for seed in range(10):
            cfg = peaked(
                entity_count=20, db_sizes=[25, 20], small_cluster_max=3, seed=seed
            )
            _, truth = sample_dataset(cfg)
            sizes = np.bincount(truth.assignments, minlength=20)
            assert sizes.min() >= 1
            assert sizes.max() <= 3
            assert sizes.sum() == 45

    def test_extremes(self):
        _, truth = sample_dataset(
            peaked(entity_count=5, db_sizes=[15], small_cluster_max=3, seed=1)
        )
        assert np.bincount(truth.assignments, minlength=5).max() == 3
        _, truth = sample_dataset(
            peaked(entity_count=5, db_sizes=[5], small_cluster_max=3, seed=1)
        )
        assert np.bincount(truth.assignments, minlength=5).max() == 1

    def test_infeasible_counts_rejected(self):
        with pytest.raises(ValueError):
            sample_dataset(
                peaked(entity_count=5, db_sizes=[16], small_cluster_max=3)
            )
        with pytest.raises(ValueError):
            sample_dataset(
                peaked(entity_count=5, db_sizes=[4], small_cluster_max=3)
            )

    def test_cluster_count_grows_linearly(self):
        # with at most m records per entity, nonempty clusters per record
        # stay within [1/m, 1]
        for n in (30, 90, 270):
            cfg = peaked(
                entity_count=n // 2, db_sizes=[n], small_cluster_max=4, seed=2
            )
            _, truth = sample_dataset(cfg)
            clusters = np.unique(truth.assignments).size
            assert n / 4 <= clusters <= n


class TestResolveAlpha:
    def test_scalar_broadcast(self):
        out = resolve_alpha(0.5, [2, 3])
        assert [a.shape for a in out] == [(2,), (3,)]
        assert all(np.all(a == 0.5) for a in out)

    def test_vectors_pass_through(self):
        out = resolve_alpha([[1.0, 2.0], [0.5, 0.5, 0.5]], [2, 3])
        np.testing.assert_array_equal(out[0], [1.0, 2.0])

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            resolve_alpha([[1.0, 2.0]], [2, 3])
        with pytest.raises(ValueError):
            resolve_alpha([[1.0], [1.0, 1.0, 1.0]], [2, 3])


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path):
        corpus, truth = sample_dataset(peaked())
        path = tmp_path / "truth.csv"
        write_ground_truth(truth, str(path))
        back = read_ground_truth(str(path))
        assert back.db_sizes == truth.db_sizes
        np.testing.assert_array_equal(back.assignments, truth.assignments)

    def test_file_shape_and_ranges(self, tmp_path):
        _, truth = sample_dataset(peaked())
        path = tmp_path / "truth.csv"
        write_ground_truth(truth, str(path))
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "db,record,entity"
        assert len(rows) == 1 + truth.total_records
        entities = [int(r.split(",")[2]) for r in rows[1:]]
        assert min(entities) >= 1 and max(entities) <= 3

        latent = (tmp_path / "truth_latent.csv").read_text().strip().split("\n")
        assert latent[0] == "entity,field,value"
        assert len(latent) == 1 + 3 * 2  # one row per entity and field

    def test_latent_path_naming(self):
        assert latent_path_for("out/truth.csv") == "out/truth_latent.csv"
        assert latent_path_for("truth") == "truth_latent"

    def test_latent_path_in_a_dotted_directory(self):
        # only the file name's extension moves behind "_latent"
        assert latent_path_for("out/run.1/truth") == "out/run.1/truth_latent"
        assert latent_path_for("runs/v1.2/truth.csv") == "runs/v1.2/truth_latent.csv"
