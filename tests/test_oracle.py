import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from vblink.corpus import Corpus, Schema
from vblink.engine import HyperParams
from vblink.genmodel import GenConfig, sample_dataset
from vblink.oracle import EnumerationBudgetError, exact_posterior


def small_corpus(columns, cardinalities, db_sizes=None):
    values = np.asarray(columns, dtype=np.int32)
    schema = Schema(
        field_names=tuple(f"f{j + 1}" for j in range(values.shape[1])),
        field_values=tuple(
            tuple(f"v{i + 1}" for i in range(c)) for c in cardinalities
        ),
    )
    sizes = tuple(db_sizes) if db_sizes is not None else (values.shape[0],)
    return Corpus(schema=schema, db_sizes=sizes, values=values)


def brute_force(corpus, hp):
    """Plain-loop reference: marginalize beta per assignment, then sum."""
    n, k = corpus.total_records, hp.entity_count
    logw = []
    labelings = list(itertools.product(range(k), repeat=n))
    for z in labelings:
        total = 0.0
        for f, a in enumerate(hp.alpha):
            for j in range(k):
                counts = np.zeros(len(a))
                for i in range(n):
                    if z[i] == j:
                        counts[corpus.values[i, f]] += 1
                total += (
                    gammaln(a + counts).sum()
                    - gammaln((a + counts).sum())
                    - gammaln(a).sum()
                    + gammaln(a.sum())
                )
        logw.append(total)
    logw = np.asarray(logw)
    log_evidence = logsumexp(logw) - n * math.log(k)
    probs = np.exp(logw - logsumexp(logw))
    cocluster = np.zeros((n, n))
    for p, z in zip(probs, labelings):
        for i in range(n):
            for j in range(n):
                if z[i] == z[j]:
                    cocluster[i, j] += p
    return log_evidence, cocluster


class TestClosedForms:
    def test_single_entity_two_identical_records(self):
        corpus = small_corpus([[0], [0]], [2])
        hp = HyperParams.symmetric(1, 1.0, [2])
        assert exact_posterior(corpus, hp).log_evidence == pytest.approx(
            math.log(1 / 3), abs=1e-14
        )

    def test_two_entity_evidence_and_cocluster(self):
        corpus = small_corpus([[0], [0]], [2])
        hp = HyperParams.symmetric(2, 1.0, [2])
        post = exact_posterior(corpus, hp)
        assert post.log_evidence == pytest.approx(math.log(7 / 24), abs=1e-14)
        assert post.cocluster[0, 1] == pytest.approx(4 / 7, abs=1e-14)

    def test_single_record_evidence_is_uniform_marginal(self):
        # with one record the entity label is irrelevant and beta integrates
        # to the flattened prior mean
        corpus = small_corpus([[1, 2]], [3, 4])
        for k in (1, 2, 5):
            hp = HyperParams.symmetric(k, 0.7, [3, 4])
            assert exact_posterior(corpus, hp).log_evidence == pytest.approx(
                math.log(1 / 3) + math.log(1 / 4), abs=1e-13
            )

    def test_no_fields_gives_unit_evidence(self):
        schema = Schema(field_names=(), field_values=())
        corpus = Corpus(
            schema=schema, db_sizes=(3,), values=np.zeros((3, 0), dtype=np.int32)
        )
        hp = HyperParams(4, [])
        post = exact_posterior(corpus, hp)
        assert post.log_evidence == pytest.approx(0.0, abs=1e-15)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(post.cocluster[off], 1 / 4, atol=1e-14)


class TestPosteriorStructure:
    @pytest.fixture
    def posterior(self):
        corpus = small_corpus([[0, 1], [0, 1], [1, 0], [0, 0]], [2, 2])
        hp = HyperParams.symmetric(3, 0.5, [2, 2])
        return exact_posterior(corpus, hp)

    def test_assignment_probabilities_normalize(self, posterior):
        assert posterior.assignment_log_probs.shape == (3**4,)
        assert logsumexp(posterior.assignment_log_probs) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_cocluster_is_a_correlation_like_matrix(self, posterior):
        c = posterior.cocluster
        np.testing.assert_allclose(c, c.T, atol=1e-15)
        np.testing.assert_array_equal(np.diag(c), np.ones(4))
        assert np.all(c >= 0.0) and np.all(c <= 1.0 + 1e-15)

    def test_duplicate_records_most_likely_together(self, posterior):
        # records 0 and 1 are identical; their cocluster probability must
        # exceed the prior chance 1/K of landing in the same cluster
        assert posterior.cocluster[0, 1] > 1 / 3
        assert posterior.cocluster[0, 1] > posterior.cocluster[0, 2]


class TestAgainstBruteForce:
    def test_matches_plain_loop_reference(self):
        rng = np.random.default_rng(3)
        corpus = small_corpus(
            rng.integers(0, [3, 2], size=(5, 2)), [3, 2], db_sizes=[3, 2]
        )
        hp = HyperParams(3, [np.array([0.5, 1.0, 2.0]), np.array([0.8, 0.8])])
        post = exact_posterior(corpus, hp)
        ref_evidence, ref_cocluster = brute_force(corpus, hp)
        assert post.log_evidence == pytest.approx(ref_evidence, abs=1e-11)
        np.testing.assert_allclose(post.cocluster, ref_cocluster, atol=1e-12)

    def test_label_permutation_leaves_summaries_invariant(self):
        corpus = small_corpus([[0], [1], [0]], [2])
        hp_a = HyperParams(2, [np.array([0.4, 1.3])])
        post = exact_posterior(corpus, hp_a)
        # swapping cluster labels permutes assignment ids but not the weights
        ids = np.arange(2**3)
        digits = np.stack([(ids // 2**i) % 2 for i in range(3)], axis=1)
        swapped_ids = ((1 - digits) * (2 ** np.arange(3))).sum(axis=1)
        np.testing.assert_allclose(
            post.assignment_log_probs[swapped_ids],
            post.assignment_log_probs,
            atol=1e-12,
        )


class TestGuards:
    def test_budget_refusal_names_the_size(self):
        corpus = small_corpus([[0]] * 30, [2])
        hp = HyperParams.symmetric(4, 1.0, [2])
        with pytest.raises(EnumerationBudgetError, match=r"4\^30"):
            exact_posterior(corpus, hp)

    def test_budget_boundary_is_inclusive(self):
        corpus = small_corpus([[0], [1]], [2])
        hp = HyperParams.symmetric(2, 1.0, [2])
        assert math.isfinite(exact_posterior(corpus, hp, budget=4).log_evidence)
        with pytest.raises(EnumerationBudgetError):
            exact_posterior(corpus, hp, budget=3)

    def test_alpha_cardinality_mismatch(self):
        corpus = small_corpus([[0, 1]], [3, 2])
        for alpha in (
            [np.ones(3)],  # too few vectors
            [np.ones(3), np.ones(2), np.ones(2)],  # too many vectors
            [np.ones(2), np.ones(2)],  # too short
            [np.ones(3), np.ones(3)],  # too long
        ):
            with pytest.raises(ValueError, match="alpha"):
                exact_posterior(corpus, HyperParams(2, alpha))


class TestWorkers:
    def test_bitwise_identical_across_worker_counts(self):
        rng = np.random.default_rng(9)
        corpus = small_corpus(rng.integers(0, 2, size=(14, 2)), [2, 2])
        hp = HyperParams.symmetric(2, 0.5, [2, 2])  # 2**14 assignments, 4 blocks
        a = exact_posterior(corpus, hp, workers=1)
        b = exact_posterior(corpus, hp, workers=4)
        assert a.log_evidence == b.log_evidence
        np.testing.assert_array_equal(
            a.assignment_log_probs, b.assignment_log_probs
        )
        np.testing.assert_array_equal(a.cocluster, b.cocluster)
