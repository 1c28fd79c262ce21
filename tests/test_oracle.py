import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from vblink import oracle
from vblink.cli import BOUND_SLACK
from vblink.corpus import Corpus, Schema
from vblink.engine import HyperParams, fit
from vblink.oracle import EnumerationBudgetError, exact_posterior

from problems import tiny_problems


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
    ends = np.cumsum([0, *corpus.schema.cardinalities])
    for z in labelings:
        total = 0.0
        for f, (lo, hi) in enumerate(zip(ends, ends[1:])):
            a = hp.alpha[lo:hi]
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


def assert_matches_brute_force(corpus, hp):
    post = exact_posterior(corpus, hp)
    ref_evidence, ref_cocluster = brute_force(corpus, hp)
    assert post.log_evidence == pytest.approx(ref_evidence, abs=1e-11)
    np.testing.assert_allclose(post.cocluster, ref_cocluster, atol=1e-12)
    return post


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

    def test_no_records_gives_unit_evidence(self):
        corpus = small_corpus(np.zeros((0, 2)), [3, 2])
        post = exact_posterior(corpus, HyperParams.symmetric(3, 0.5, [3, 2]))
        assert post.log_evidence == 0.0
        assert post.cocluster.shape == (0, 0)


class TestPosteriorStructure:
    @pytest.fixture
    def posterior(self):
        corpus = small_corpus([[0, 1], [0, 1], [1, 0], [0, 0]], [2, 2])
        hp = HyperParams.symmetric(3, 0.5, [2, 2])
        return exact_posterior(corpus, hp)

    def test_cocluster_is_a_correlation_like_matrix(self, posterior):
        c = posterior.cocluster
        np.testing.assert_array_equal(c, c.T)
        np.testing.assert_array_equal(np.diag(c), np.ones(4))
        assert np.all(c >= 0.0) and np.all(c <= 1.0 + 1e-15)

    def test_duplicate_records_most_likely_together(self, posterior):
        # records 0 and 1 are identical; their cocluster probability must
        # exceed the prior chance 1/K of landing in the same cluster
        assert posterior.cocluster[0, 1] > 1 / 3
        assert posterior.cocluster[0, 1] > posterior.cocluster[0, 2]


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "seed, records, k, db_sizes",
        [(3, 5, 3, [3, 2]), (8, 6, 2, None), (8, 6, 3, None), (4, 4, 7, [2, 2])],
        ids=["5-records-k3", "6-records-k2", "6-records-k3", "4-records-k7"],
    )
    def test_matches_plain_loop_reference(self, seed, records, k, db_sizes):
        rng = np.random.default_rng(seed)
        corpus = small_corpus(
            rng.integers(0, [3, 2], size=(records, 2)), [3, 2], db_sizes=db_sizes
        )
        hp = HyperParams(k, [0.5, 1.0, 2.0, 0.8, 0.8])
        assert_matches_brute_force(corpus, hp)

    @pytest.mark.parametrize("k", [1, 2])
    def test_all_records_in_one_entity_reads_the_table_ends(self, k):
        # identical records: the partition into one block weighs the set of
        # all N records, whose counts reach N
        corpus = small_corpus([[2, 0, 1]] * 5, [3, 2, 4])
        alpha = np.concatenate([[0.3, 1.7, 0.9], [2.5, 0.4], np.full(4, 0.05)])
        assert_matches_brute_force(corpus, HyperParams(k, alpha))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        problem=st.one_of(
            tiny_problems(max_records=6, max_entities=3),
            tiny_problems(max_records=4, max_entities=6),
        )
    )
    def test_random_corpora_match_and_bound_the_elbo(self, problem):
        corpus, hp = problem
        post = assert_matches_brute_force(corpus, hp)
        _, report = fit(corpus, hp, seed=0)
        assert report.elbo_trace[-1] <= post.log_evidence + BOUND_SLACK

    def test_record_permutation_permutes_the_summaries(self):
        # the records are exchangeable: reordering them leaves the evidence
        # as it is and reorders the rows and columns of cocluster
        rng = np.random.default_rng(5)
        values = rng.integers(0, [3, 2], size=(7, 2))
        hp = HyperParams(4, [0.4, 1.3, 0.7, 2.0, 0.3])
        post = exact_posterior(small_corpus(values, [3, 2]), hp)
        perm = rng.permutation(7)
        moved = exact_posterior(small_corpus(values[perm], [3, 2]), hp)
        assert moved.log_evidence == pytest.approx(post.log_evidence, abs=1e-12)
        np.testing.assert_allclose(
            moved.cocluster, post.cocluster[np.ix_(perm, perm)], atol=1e-12
        )


class TestSubsetChunks:
    @pytest.mark.parametrize("chunk", [2, 16, 256])
    @pytest.mark.parametrize("k", [2, 10])
    def test_chunks_match_one_chunk_bit_for_bit(self, monkeypatch, k, chunk):
        # 10 records: 2^10 subsets in one chunk, or in 512, 64 or 4 chunks
        rng = np.random.default_rng(12)
        cards = [4, 3, 5]
        corpus = small_corpus(rng.integers(0, cards, size=(10, 3)), cards, [6, 4])
        hp = HyperParams(k, rng.uniform(0.1, 2.0, size=sum(cards)))
        monkeypatch.setattr(oracle, "SUBSET_CHUNK", 2**10)
        whole = oracle._set_weights(corpus, hp)
        one = exact_posterior(corpus, hp)
        monkeypatch.setattr(oracle, "SUBSET_CHUNK", chunk)
        np.testing.assert_array_equal(oracle._set_weights(corpus, hp), whole)
        post = exact_posterior(corpus, hp)
        assert post.log_evidence == one.log_evidence
        np.testing.assert_array_equal(post.cocluster, one.cocluster)


def reference_pairs(n):
    """The pair program as first built: doubling by each record, then a
    stable argsort of the int64 ids by T."""
    t = s = np.zeros(0, dtype=np.int64)
    for bit in 1 << np.arange(n):
        t, s = np.r_[t, bit, t | bit, t | bit], np.r_[s, bit, s, s | bit]
    order = np.argsort(t, kind="stable")
    return t[order], s[order]


def random_problem(n, k, seed):
    rng = np.random.default_rng(seed)
    cards = [4, 3, 5]
    corpus = small_corpus(rng.integers(0, cards, size=(n, 3)), cards)
    return corpus, HyperParams(k, rng.uniform(0.1, 2.0, size=sum(cards)))


def traced_peak(corpus, hp):
    """The tracemalloc peak of one ``exact_posterior`` call, after an
    untraced call has made the oracle's imports."""
    exact_posterior(corpus, hp)
    tracemalloc.start()
    try:
        exact_posterior(corpus, hp)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairProgram:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_pairs_match_the_sorted_construction(self, n):
        t, s, sizes = oracle._pairs(n)
        ref_t, ref_s = reference_pairs(n)
        dtype = np.uint8 if n <= 8 else np.uint16
        assert t.dtype == s.dtype == dtype
        np.testing.assert_array_equal(t, ref_t)
        np.testing.assert_array_equal(s, ref_s)
        # one group per set T = 1 .. 2^N - 1, of 2^(|T| - 1) pairs
        np.testing.assert_array_equal(sizes, np.bincount(ref_t)[1:])
        assert len(t) == (3**n - 1) // 2

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("n", [5, 9])
    def test_chunks_match_the_default_bit_for_bit(self, monkeypatch, n, chunk):
        # chunks of one group, of whole groups up to 3 or 64 pairs, and
        # groups of up to 2^(N-1) pairs longer than the chunk
        for k in (3, n):
            corpus, hp = random_problem(n, k, seed=n)
            whole = exact_posterior(corpus, hp)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "PAIR_CHUNK", chunk)
                post = exact_posterior(corpus, hp)
            assert post.log_evidence == whole.log_evidence
            np.testing.assert_array_equal(post.cocluster, whole.cocluster)

    def test_peak_memory_at_the_budget_edge(self):
        # N = 13, K = 3: 797161 pairs at 4 bytes each (3.0 MiB), one
        # chunk's float64 terms and temporaries (about 1 MiB) and the set
        # weights.  With int64 pairs sorted by argsort and every level taken
        # at once the peak was 30.8 MiB.
        corpus, hp = random_problem(13, 3, seed=13)
        pairs = (3**13 - 1) // 2
        peak = traced_peak(corpus, hp)
        assert peak < 4 * pairs + 2 * 2**20, peak


class TestSupersetSums:
    def test_peak_memory_at_two_entities_and_19_records(self):
        # K = 2 takes only the 2^19 set weights, 4 MiB per float64 array
        # over the subsets: log g, the one Horner level and the temporaries
        # of the set weights' chunks and of the evidence's sum over half the
        # sets (18.3 MiB measured).  A log-sum-exp over the stacked levels
        # peaked at 77.5 MiB, and co-clustering by the (2^N, N) membership
        # matrix and its float64 product at 173.5 MiB.
        rng = np.random.default_rng(19)
        cards = [4] * 6
        corpus = small_corpus(rng.integers(0, 4, size=(19, 6)), cards, [10, 9])
        peak = traced_peak(corpus, HyperParams.symmetric(2, 0.1, cards))
        assert peak < 32 * 2**20, peak


class TestEntityCountAtRecordCount:
    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(problem=tiny_problems(max_records=10))
    def test_fit_elbo_is_bounded_by_the_evidence(self, problem):
        # K = N, where every record may have an entity of its own
        corpus, hp = problem
        hp = HyperParams(corpus.total_records, hp.alpha)
        evidence = exact_posterior(corpus, hp).log_evidence
        _, report = fit(corpus, hp, seed=0)
        assert report.elbo_trace[-1] <= evidence + BOUND_SLACK


class TestGuards:
    def test_budget_refusal_names_the_size(self):
        # 3^3000 has more than the 4300 digits Python converts to str by
        # default, so the size is named by its formula
        for records, k, size in (
            (30, 4, r"\(3\^30 - 1\)/2"),
            (20, 2, r"2\^20"),
            (3000, 3000, r"\(3\^3000 - 1\)/2"),
        ):
            corpus = small_corpus([[0]] * records, [2])
            hp = HyperParams.symmetric(k, 1.0, [2])
            with pytest.raises(EnumerationBudgetError, match=size):
                exact_posterior(corpus, hp)

    def test_budget_boundary_is_inclusive(self, monkeypatch):
        # at most two levels need only the 2^N set weights; more need the
        # (3^N - 1)/2 pairs (T, S)
        for records, k, terms, size in (
            (2, 2, 4, r"2\^2"),
            (5, 1, 32, r"2\^5"),
            (3, 3, 13, r"\(3\^3 - 1\)/2"),
        ):
            corpus = small_corpus([[i % 2] for i in range(records)], [2])
            hp = HyperParams.symmetric(k, 1.0, [2])
            monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", terms)
            assert math.isfinite(exact_posterior(corpus, hp).log_evidence)
            monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", terms - 1)
            with pytest.raises(EnumerationBudgetError, match=f"{size} .* of {terms - 1}$"):
                exact_posterior(corpus, hp)

    def test_alpha_cardinality_mismatch(self):
        corpus = small_corpus([[0, 1]], [3, 2])
        for width in (3, 4, 6, 7):  # sum V_f = 5
            with pytest.raises(ValueError, match="alpha"):
                exact_posterior(corpus, HyperParams(2, np.ones(width)))
