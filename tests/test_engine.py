import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, logsumexp, polygamma, softmax

import vblink.engine as engine
from vblink.corpus import Corpus, Schema
from vblink.engine import HyperParams, NumericalFailureError, fit, load_state, save_state
from vblink.evaluate import map_linkage
from vblink.genmodel import GenConfig, sample_dataset
from vblink.oracle import exact_posterior

from problems import (
    central_differences,
    copy_state,
    tiny_problems,
    validate,
)
from reference import (
    VariationalState,
    _row_patterns,
    elbo,
    elbo_grad_lambda,
    init_state,
    reference_state,
    update_lambda,
    update_phi,
)

# Duplicate-heavy: the paper's recovery config, 600 records in about 280
# distinct value tuples.
DUPLICATE_HEAVY = GenConfig(
    entity_count=200,
    db_sizes=[300, 300],
    cardinalities=[10] * 8,
    distortion=0.02,
    seed=42,
)


@pytest.fixture(scope="module")
def duplicate_heavy():
    corpus, _ = sample_dataset(DUPLICATE_HEAVY)
    return corpus, HyperParams.symmetric(600, 0.1, corpus.schema.cardinalities)


# Arbitrary-precision reference values (mpmath, 30 significant digits).
DIGAMMA_REFERENCE = {
    1.0: -0.5772156649015329,
    0.5: -1.9635100260214235,
    2.0: 0.42278433509846713,
    0.01: -100.56088545786868,
    3.7: 1.1671535393615113,
    9.999: 2.2516474172057355,
    10.0: 2.251752589066721,
    147.25: 4.988732393476712,
}
TRIGAMMA_REFERENCE = {
    1.0: 1.6449340668482264,
    0.5: 4.934802200544679,
    0.01: 10001.621213528313,
    3.7: 0.3100378576700383,
    9.999: 0.10517738667672887,
    147.25: 0.006814283683096631,
}


def tiny_corpus(column, cardinality=2):
    """Single-field corpus with the given value codes in one database."""
    schema = Schema(
        field_names=("f1",),
        field_values=(tuple(f"v{i + 1}" for i in range(cardinality)),),
    )
    values = np.asarray(column, dtype=np.int32).reshape(-1, 1)
    return Corpus(schema=schema, db_sizes=(len(column),), values=values)


@pytest.fixture
def pair_corpus():
    # two records carrying the same value of a binary field
    return tiny_corpus([0, 0])


class TestSpecialFunctions:
    """The scipy functions the updates and the gradient are built from."""

    def test_digamma_reference_values(self):
        for x, want in DIGAMMA_REFERENCE.items():
            assert digamma(x) == pytest.approx(want, abs=1e-12)

    def test_trigamma_reference_values(self):
        for x, want in TRIGAMMA_REFERENCE.items():
            assert polygamma(1, x) == pytest.approx(want, rel=1e-10)


def weight_sum(phi, weights):
    """A pass step that returns each block's weight and its rows of ``phi``
    as they are."""
    return lambda lo, hi, x: (weights[lo:hi].sum(), phi[lo:hi])


def stacked_counts(phi, values, weights, cards):
    """The stacked (sum V_f, K) counts of a pass, by ``np.add.at``."""
    offsets = np.cumsum((0, *cards[:-1]))
    want = np.zeros((sum(cards), phi.shape[1]))
    for f in range(len(cards)):
        np.add.at(want, offsets[f] + values[:, f], phi * weights[:, None])
    return want


class TestFieldCounts:
    """The stacked counts and the summed step numbers of one blocked pass."""

    def test_matches_add_at_reference_across_blocks(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 3)
        rng = np.random.default_rng(11)
        n, k, cards = 10, 4, (3, 1, 5)
        values = np.stack([rng.integers(0, v, size=n) for v in cards], axis=1)
        phi = rng.dirichlet(np.ones(k), size=n)
        weights = rng.integers(1, 5, size=n).astype(np.float64)
        columns = engine._columns(values, cards)
        want = stacked_counts(phi, values, weights, cards)
        total, counts = engine._pass(columns, weights, 9, k, weight_sum(phi, weights))
        assert total == weights.sum()
        assert counts.shape == (9, k)
        np.testing.assert_allclose(counts, want, rtol=1e-12, atol=1e-15)

    def test_field_sums_add_each_fields_rows(self):
        table = np.arange(18.0).reshape(9, 2)
        np.testing.assert_array_equal(engine._starts((3, 1, 5)), [0, 3, 4])
        np.testing.assert_array_equal(
            engine._field_sums(table, (3, 1, 5)),
            [table[:3].sum(axis=0), table[3], table[4:].sum(axis=0)],
        )
        assert engine._field_sums(np.zeros((0, 2)), ()).shape == (0, 2)

    def test_no_records_gives_zero_tables(self):
        total, counts = engine._pass(
            np.zeros((0, 2), dtype=np.intp), np.zeros(0), 8, 4,
            weight_sum(np.zeros((0, 4)), np.zeros(0)),
        )
        assert total == 0.0
        assert counts.shape == (8, 4) and not np.any(counts)

    def test_no_fields_gives_an_empty_table(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 2)
        phi, weights = np.full((5, 3), 1 / 3), np.ones(5)
        total, counts = engine._pass(
            np.zeros((5, 0), dtype=np.intp), weights, 0, 3, weight_sum(phi, weights)
        )
        assert total == 5.0
        assert counts.shape == (0, 3)


def run_with_frequent_switches(target):
    """Run ``target`` on a thread while the interpreter switches threads
    every microsecond, so pool blocks interleave as much as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()


def pool_problem(n=400, k=7, cards=(5, 3, 9), seed=5):
    """Random stacked columns, multiplicities and phi for a blocked pass."""
    rng = np.random.default_rng(seed)
    values = np.stack([rng.integers(0, v, size=n) for v in cards], axis=1)
    phi = rng.dirichlet(np.ones(k), size=n)
    weights = rng.integers(1, 5, size=n).astype(np.float64)
    return phi, engine._columns(values, cards), weights, sum(cards)


class TestBlockPool:
    """The blocks of a pass on ``workers`` threads: the serial fold's
    results, with at most ``workers`` blocks running at once."""

    def test_more_workers_than_cores_match_one_worker_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 16)
        phi, columns, weights, width = pool_problem()  # 25 blocks
        assert len(engine._blocks(*phi.shape)) >= 8
        k = phi.shape[1]
        table = np.random.default_rng(6).normal(size=(width, k))

        def into(phi):
            """The reference updates' step: each block normalised into phi."""

            def step(lo, hi, x):
                p = phi[lo:hi]
                return engine._normalise_block(x @ table, p)[2] @ weights[lo:hi], p

            return step

        want_phi = phi.copy()
        want_total, want_counts = engine._pass(
            columns, weights, width, k, into(want_phi)
        )
        runs = []

        def run_many():
            for _ in range(30):
                got_phi = phi.copy()
                total, counts = engine._pass(
                    columns, weights, width, k, into(got_phi), workers=4
                )
                runs.append((total, counts.tobytes(), got_phi.tobytes()))

        run_with_frequent_switches(run_many)
        assert len(runs) == 30
        for total, counts, got_phi in runs:
            assert total == want_total
            assert counts == want_counts.tobytes()
            assert got_phi == want_phi.tobytes()

    def test_fit_map_arrays_from_more_workers_than_cores(self, monkeypatch):
        """Pool threads write disjoint rows of the fit's MAP arrays."""
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 8)
        corpus, _ = sample_dataset(
            GenConfig(entity_count=30, db_sizes=[200], cardinalities=[6, 5, 7],
                      distortion=0.3, seed=8)
        )
        hp = HyperParams.symmetric(9, 0.5, corpus.schema.cardinalities)

        def arrays(state):
            return [a.tobytes() for a in (state.argmax, state.max_prob, state.lam)]

        state, report = fit(corpus, hp, max_sweeps=3, seed=2)
        assert len(engine._blocks(report.distinct_records, 9)) >= 8
        want = arrays(state)
        runs = []

        def run_many():
            for _ in range(10):
                runs.append(arrays(fit(corpus, hp, max_sweeps=3, seed=2, workers=4)[0]))

        run_with_frequent_switches(run_many)
        assert runs == [want] * 10

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_at_most_workers_blocks_run_at_once(self, monkeypatch, workers):
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 40)
        phi, columns, weights, width = pool_problem()  # 10 blocks
        lock = threading.Lock()
        running, most, threads = [0], [0], set()

        def step(lo, hi, x):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
                threads.add(threading.get_ident())
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return weights[lo:hi].sum(), phi[lo:hi]

        total, _ = engine._pass(columns, weights, width, phi.shape[1], step, workers)
        assert total == weights.sum()
        assert running[0] == 0
        assert 1 <= most[0] <= workers
        assert threading.get_ident() in threads and len(threads) <= workers

    def test_blocks_keep_the_callers_numpy_error_state(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 40)
        phi, columns, weights, width = pool_problem()
        seen = []

        def step(lo, hi, x):
            seen.append(np.geterr()["over"])
            return 0.0, phi[lo:hi]

        with np.errstate(over="raise"):
            engine._pass(columns, weights, width, phi.shape[1], step, workers=3)
        assert seen == ["raise"] * 10


class TestScores:
    """The scores of a block are the product of its one-hot indicator and
    the stacked table, summed in field order."""

    def test_product_equals_field_ordered_table_sum_bit_for_bit(self):
        rng = np.random.default_rng(5)
        n, k, cards = 40, 7, (1, 4, 2, 9, 1)
        values = np.stack([rng.integers(0, v, size=n) for v in cards], axis=1)
        # magnitudes far apart, so any other summation order would round
        # differently
        tables = [
            rng.standard_normal((v, k)) * 10.0 ** rng.integers(-8, 9, size=(v, k))
            for v in cards
        ]
        want = np.zeros((n, k))
        for f, t_f in enumerate(tables):
            want += t_f[values[:, f]]
        columns = engine._columns(values, cards)
        table = np.concatenate(tables)
        x = engine._one_hot(columns, table.shape[0])
        scores = x @ table
        np.testing.assert_array_equal(scores, want)
        out = np.empty((n, k))
        top_at, total, lse = engine._normalise_block(x @ table, out)
        np.testing.assert_allclose(out, softmax(want, axis=1), rtol=1e-13, atol=1e-300)
        np.testing.assert_allclose(lse, logsumexp(want, axis=1), rtol=1e-14)
        # the MAP entity and responsibility, bit for bit those of phi
        np.testing.assert_array_equal(top_at, want.argmax(axis=1))
        np.testing.assert_array_equal(top_at, out.argmax(axis=1))
        np.testing.assert_array_equal(1.0 / total, out.max(axis=1))
        # in place, as a fit sweep normalises, gives the same bits
        scores = x @ table
        in_place = engine._normalise_block(scores, scores)
        np.testing.assert_array_equal(scores, out)
        for a, b in zip(in_place, (top_at, total, lse)):
            np.testing.assert_array_equal(a, b)

    def test_score_table_stacks_each_field(self):
        # field 0 is rows 0-2, field 1 is row 3; one column per entity
        lam = np.array([[1.0, 0.5], [2.0, 0.5], [3.0, 4.0], [2.0, 7.0]])
        table = engine._score_tables(lam, (3, 1))
        assert table.shape == (4, 2) and table.flags.c_contiguous
        np.testing.assert_array_equal(table[:3], digamma(lam[:3]) - digamma([6.0, 5.0]))
        np.testing.assert_array_equal(table[3], digamma(lam[3]) - digamma(lam[3]))

    def test_score_table_allocates_one_table(self):
        # link4k's shape, 8 fields of 10 values at K = 4000: a 2.56 MB table.
        # Subtracting a repeated (sum V_f, K) copy of the field terms took
        # twice that; each field's rows in place give the same bits
        rng = np.random.default_rng(4)
        cards = [10] * 8
        lam = 0.1 + rng.gamma(0.5, size=(80, 4000))
        field_psi = digamma(engine._field_sums(lam, cards))
        want = digamma(lam) - np.repeat(field_psi, cards, axis=0)
        tracemalloc.start()
        try:
            table = engine._score_tables(lam, cards)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(table, want)
        assert peak < 1.5 * table.nbytes

    def test_no_fields_gives_uniform_rows(self):
        out = np.empty((3, 4))
        no_columns = engine._one_hot(np.zeros((3, 0), dtype=np.intp), 0)
        top_at, total, lse = engine._normalise_block(no_columns @ np.zeros((0, 4)), out)
        np.testing.assert_array_equal(out, np.full((3, 4), 0.25))
        np.testing.assert_array_equal(top_at, [0, 0, 0])
        np.testing.assert_array_equal(total, [4.0, 4.0, 4.0])
        np.testing.assert_allclose(lse, np.full(3, math.log(4.0)), rtol=1e-15)
        assert engine._score_tables(np.zeros((0, 4)), []).shape == (0, 4)

    def test_no_rows_gives_an_empty_block(self):
        out = np.empty((0, 4))
        no_rows = np.zeros((0, 2), dtype=np.intp)
        x = engine._one_hot(no_rows, 6)
        top_at, total, lse = engine._normalise_block(x @ np.zeros((6, 4)), out)
        assert top_at.shape == total.shape == lse.shape == (0,)


class TestUpdateLambda:
    def test_prior_plus_counts(self, pair_corpus):
        hp = HyperParams.symmetric(1, 1.0, [2])
        state = VariationalState(np.ones((2, 1)), np.ones((2, 1)))
        update_lambda(state, pair_corpus, hp)
        np.testing.assert_allclose(state.lam, [[3.0], [1.0]])

    def test_split_responsibilities(self):
        corpus = tiny_corpus([0, 1])
        hp = HyperParams.symmetric(2, 0.5, [2])
        state = VariationalState(np.full((2, 2), 0.5), np.ones((2, 2)))
        update_lambda(state, corpus, hp)
        np.testing.assert_allclose(state.lam, np.full((2, 2), 1.0))

    def test_no_records_leaves_prior(self):
        corpus = tiny_corpus([])
        hp = HyperParams(2, [0.3, 0.9])
        state = VariationalState(np.zeros((0, 2)), np.ones((2, 2)))
        update_lambda(state, corpus, hp)
        np.testing.assert_array_equal(state.lam, [[0.3, 0.3], [0.9, 0.9]])

    def test_mass_conservation(self):
        corpus, _ = sample_dataset(
            GenConfig(
                entity_count=6,
                db_sizes=[40, 25],
                cardinalities=[3, 5, 2],
                distortion=0.1,
                seed=4,
            )
        )
        hp = HyperParams.symmetric(9, 0.25, corpus.schema.cardinalities)
        state = init_state(corpus, hp, seed=0)
        n = corpus.total_records
        cards = corpus.schema.cardinalities
        mass = engine._field_sums(state.lam, cards).sum(axis=1)
        prior = hp.entity_count * engine._field_sums(hp.alpha, cards)
        np.testing.assert_allclose(mass - prior, n, rtol=1e-9)


class TestUpdatePhi:
    def test_single_entity(self, pair_corpus):
        hp = HyperParams.symmetric(1, 1.0, [2])
        state = VariationalState(np.zeros((2, 1)), [[3.0], [1.0]])
        update_phi(state, pair_corpus, hp)
        np.testing.assert_array_equal(state.phi, np.ones((2, 1)))

    def test_identical_entities_give_uniform(self):
        corpus = tiny_corpus([0, 1, 0])
        hp = HyperParams.symmetric(3, 1.0, [2])
        state = VariationalState(np.zeros((3, 3)), np.full((2, 3), 1.7))
        update_phi(state, corpus, hp)
        np.testing.assert_allclose(state.phi, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_hand_computed_two_entities(self):
        corpus = tiny_corpus([0])
        hp = HyperParams.symmetric(2, 1.0, [2])
        state = VariationalState(np.zeros((1, 2)), [[2.0, 1.0], [1.0, 2.0]])
        update_phi(state, corpus, hp)
        # scores are psi(2)-psi(3), psi(1)-psi(3) = -0.5, -1.5
        np.testing.assert_allclose(
            state.phi, [[0.7310585786300049, 0.2689414213699951]], atol=1e-12
        )

    def test_rows_on_simplex(self):
        corpus, _ = sample_dataset(
            GenConfig(
                entity_count=4,
                db_sizes=[30],
                cardinalities=[3, 3],
                distortion=0.2,
                seed=8,
            )
        )
        hp = HyperParams.symmetric(5, 0.4, corpus.schema.cardinalities)
        state = init_state(corpus, hp, seed=1)
        update_phi(state, corpus, hp)
        np.testing.assert_allclose(state.phi.sum(axis=1), 1.0, atol=1e-12)
        validate(state)

    def test_extreme_scores_stay_finite_on_simplex(self, monkeypatch):
        # value 0 overflows a plain exp, value 1 underflows it in every entity
        table = np.array(
            [
                [700.0, 700.0 - math.log(2.0), -700.0],
                [-800.0, -800.0 - math.log(2.0), -1500.0],
            ]
        )
        monkeypatch.setattr(engine, "_score_tables", lambda _lam, _cards: table)
        corpus = tiny_corpus([0, 1, 0])
        hp = HyperParams.symmetric(3, 1.0, [2])
        state = VariationalState(np.zeros((3, 3)), np.ones((2, 3)))
        update_phi(state, corpus, hp)
        assert np.all(np.isfinite(state.phi)) and np.all(state.phi >= 0.0)
        np.testing.assert_allclose(state.phi.sum(axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(
            state.phi, softmax(table[[0, 1, 0]], axis=1), rtol=1e-14, atol=1e-300
        )
        # 700 - log 2 is rounded to a spacing of 1.1e-13
        np.testing.assert_allclose(state.phi[:, :2], [[2 / 3, 1 / 3]] * 3, rtol=1e-12)

    def test_stationarity_against_row_perturbations(self):
        # after an update, no single-row change may improve the objective
        corpus = tiny_corpus([0, 1, 0, 0, 1])
        hp = HyperParams.symmetric(3, 0.6, [2])
        state = init_state(corpus, hp, seed=3)
        update_phi(state, corpus, hp)
        base = elbo(state, corpus, hp)
        rng = np.random.default_rng(0)
        for _ in range(30):
            other = copy_state(state)
            row = rng.integers(0, 5)
            other.phi[row] = rng.dirichlet(np.ones(3))
            assert elbo(other, corpus, hp) <= base + 1e-12


class TestElbo:
    def test_zero_when_no_data_and_prior_state(self):
        corpus = tiny_corpus([])
        hp = HyperParams(3, [0.7, 1.3])
        state = VariationalState(np.zeros((0, 3)), np.repeat([[0.7], [1.3]], 3, axis=1))
        assert elbo(state, corpus, hp) == pytest.approx(0.0, abs=1e-13)

    def test_single_entity_closed_form(self, pair_corpus):
        # evidence of two identical binary observations under a flat prior
        hp = HyperParams.symmetric(1, 1.0, [2])
        state = init_state(pair_corpus, hp, seed=0)
        assert elbo(state, pair_corpus, hp) == pytest.approx(
            math.log(1.0 / 3.0), abs=1e-12
        )

    def test_exact_zeros_in_phi_have_zero_entropy(self):
        # Hard assignment of record 0 (value 1) to entity 0 and record 1
        # (value 2) to entity 1 at lam = alpha + counts: the bracket
        # vanishes, 0 log 0 = 0, and each entity adds
        # ln B([2, 1]) - ln B([1, 1]) = -ln 2, so the ELBO is
        # -2 ln 2 - 2 ln 2 = log p(x, z) = ln(1/16).
        corpus = tiny_corpus([0, 1])
        hp = HyperParams.symmetric(2, 1.0, [2])
        state = VariationalState([[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]])
        value = elbo(state, corpus, hp)
        assert math.isfinite(value)
        assert value == pytest.approx(math.log(1.0 / 16.0), abs=1e-12)

    def test_two_entity_bound(self, pair_corpus):
        hp = HyperParams.symmetric(2, 1.0, [2])
        _, report = fit(pair_corpus, hp, seed=5)
        assert report.elbo_trace[-1] <= math.log(7.0 / 24.0) + 1e-9


class TestGradient:
    """The whole (sum V_f, K) gradient table, at every (row, entity) entry,
    on two fields of 3 and 2 values with a non-symmetric alpha."""

    @pytest.fixture
    def problem(self):
        schema = Schema(("f1", "f2"), (("a", "b", "c"), ("x", "y")))
        # records 0 and 2, and 1 and 4, carry the same tuple
        values = [[0, 1], [2, 0], [0, 1], [1, 1], [2, 0]]
        corpus = Corpus(schema=schema, db_sizes=(3, 2), values=values)
        return corpus, HyperParams(3, [0.3, 1.7, 0.9, 2.0, 0.4])

    def test_matches_finite_differences(self, problem):
        corpus, hp = problem
        rng = np.random.default_rng(7)
        for _ in range(3):
            state = VariationalState(
                rng.dirichlet(np.ones(3), size=5), rng.uniform(0.5, 4.0, size=(5, 3))
            )
            grad = elbo_grad_lambda(state, corpus, hp)
            assert grad.shape == (5, 3)
            np.testing.assert_allclose(
                grad, central_differences(state, corpus, hp), rtol=1e-6, atol=1e-9
            )

    def test_zero_after_update_lambda(self, problem):
        corpus, hp = problem
        rng = np.random.default_rng(2)
        state = VariationalState(rng.dirichlet(np.ones(3), size=5), np.ones((5, 3)))
        update_lambda(state, corpus, hp)
        # fit's last sweep ends with a lam update; its state shares rows
        # between duplicate records
        fitted = reference_state(fit(corpus, hp, max_sweeps=2, seed=2)[0], corpus)
        assert fitted.phi.shape[0] < corpus.total_records
        for state in (state, fitted):
            np.testing.assert_array_equal(elbo_grad_lambda(state, corpus, hp), 0.0)

    def test_zero_for_prior_state_without_data(self):
        corpus = tiny_corpus([])
        hp = HyperParams(2, [0.5, 2.0])
        state = VariationalState(np.zeros((0, 2)), [[0.5, 0.5], [2.0, 2.0]])
        np.testing.assert_array_equal(elbo_grad_lambda(state, corpus, hp), 0.0)


class TestFit:
    def test_single_entity_converges_fast(self, pair_corpus):
        hp = HyperParams.symmetric(1, 1.0, [2])
        _, report = fit(pair_corpus, hp, seed=0)
        assert report.converged
        assert report.sweeps_run <= 2
        assert report.elbo_trace[-1] == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_trace_nondecreasing(self):
        corpus, _ = sample_dataset(
            GenConfig(
                entity_count=8,
                db_sizes=[60],
                cardinalities=[4, 4, 4],
                distortion=0.1,
                seed=13,
            )
        )
        hp = HyperParams.symmetric(10, 0.3, corpus.schema.cardinalities)
        _, report = fit(corpus, hp, max_sweeps=40, rel_tol=1e-10, seed=1)
        trace = report.elbo_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur >= prev - 1e-9 * abs(prev)

    def test_label_permutation_symmetry(self):
        corpus, _ = sample_dataset(
            GenConfig(
                entity_count=5,
                db_sizes=[25],
                cardinalities=[3, 4],
                distortion=0.15,
                seed=21,
            )
        )
        hp = HyperParams.symmetric(4, 0.5, corpus.schema.cardinalities)
        start = init_state(corpus, hp, seed=9)
        perm = np.array([2, 0, 3, 1])
        state_a, report_a = fit(corpus, hp, initial_lam=start.lam, max_sweeps=25)
        state_b, report_b = fit(corpus, hp, initial_lam=start.lam[:, perm], max_sweeps=25)
        for ea, eb in zip(report_a.elbo_trace, report_b.elbo_trace):
            assert eb == pytest.approx(ea, rel=1e-12)
        np.testing.assert_allclose(
            reference_state(state_b, corpus).phi,
            reference_state(state_a, corpus).phi[:, perm],
            rtol=1e-9,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            state_b.lam, state_a.lam[:, perm], rtol=1e-9, atol=1e-12
        )

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(problem=tiny_problems())
    def test_mass_and_elbo_on_random_corpora(self, problem):
        """After every sweep each field's rows of lam - alpha add up to the
        same entity sizes N_k, which add up to N; the ELBO never falls
        beyond DECREASE_SLACK."""
        corpus, hp = problem
        n = corpus.total_records

        def on_sweep(_sweep, _value, state):
            sizes = np.bincount(state.rows) @ reference_state(state, corpus).phi
            assert sizes.sum() == pytest.approx(n, rel=1e-9)
            by_field = engine._field_sums(
                state.lam - hp.alpha[:, None], corpus.schema.cardinalities
            )
            np.testing.assert_allclose(
                by_field, np.broadcast_to(sizes, by_field.shape), rtol=0, atol=1e-9 * n
            )

        _, report = fit(corpus, hp, max_sweeps=25, seed=0, on_sweep=on_sweep)
        trace = report.elbo_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur >= prev - engine.DECREASE_SLACK * abs(prev)
        assert report.elbo_decreases == 0

    def test_numerical_failure_reports_sweep(self, pair_corpus):
        hp = HyperParams.symmetric(2, 1.0, [2])
        # finite and positive, so it passes the input checks, but entity 0's
        # row sum overflows to inf and the first sweep's ELBO is NaN
        lam = np.array([[1e308, 1.0], [1e308, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalFailureError
        ) as err:
            fit(pair_corpus, hp, initial_lam=lam, max_sweeps=5)
        assert err.value.sweep == 1

    def test_option_validation(self, pair_corpus):
        hp = HyperParams.symmetric(1, 1.0, [2])
        with pytest.raises(ValueError):
            fit(pair_corpus, hp, max_sweeps=0)
        with pytest.raises(ValueError):
            fit(pair_corpus, hp, rel_tol=0.0)
        with pytest.raises(ValueError):
            fit(pair_corpus, hp, workers=0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            fit(pair_corpus, hp, seed=-1)

    def test_sweep_seconds_has_one_positive_time_per_sweep(self, pair_corpus):
        hp = HyperParams.symmetric(2, 1.0, [2])
        _, report = fit(pair_corpus, hp, max_sweeps=7, seed=1)
        assert len(report.sweep_seconds) == report.sweeps_run
        assert all(s > 0.0 for s in report.sweep_seconds)

    def test_on_sweep_sees_every_sweep(self, pair_corpus):
        hp = HyperParams.symmetric(2, 1.0, [2])
        seen = []
        _, report = fit(
            pair_corpus,
            hp,
            max_sweeps=7,
            seed=1,
            on_sweep=lambda s, e, _state: seen.append((s, e)),
        )
        assert [s for s, _ in seen] == list(range(1, report.sweeps_run + 1))
        assert [e for _, e in seen] == report.elbo_trace


class TestInitState:
    def test_deterministic(self, pair_corpus):
        hp = HyperParams.symmetric(3, 1.0, [2])
        a = init_state(pair_corpus, hp, seed=12)
        b = init_state(pair_corpus, hp, seed=12)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.lam, b.lam)

    def test_single_entity_degenerate(self, pair_corpus):
        hp = HyperParams.symmetric(1, 1.0, [2])
        state = init_state(pair_corpus, hp, seed=0)
        np.testing.assert_array_equal(state.phi, np.ones((2, 1)))

    def test_rows_positive_and_normalized(self):
        corpus = tiny_corpus([0, 1] * 5)
        hp = HyperParams.symmetric(3, 0.5, [2])
        state = init_state(corpus, hp, seed=4)
        assert state.phi.shape == (10, 3)
        assert np.min(state.phi) > 0.0
        np.testing.assert_allclose(state.phi.sum(axis=1), 1.0, atol=1e-12)
        validate(state)

    def test_more_entities_than_records(self):
        corpus = tiny_corpus([0, 1])
        hp = HyperParams.symmetric(5, 0.5, [2])
        state = init_state(corpus, hp, seed=0)
        assert state.phi.shape == (2, 5)
        validate(state)

    def test_alpha_shape_mismatch_rejected(self, pair_corpus):
        for width in (1, 3, 4):
            with pytest.raises(ValueError, match="sum V_f = 2"):
                init_state(pair_corpus, HyperParams(2, np.ones(width)), seed=0)


class TestHyperParams:
    def test_symmetric_constructor(self):
        hp = HyperParams.symmetric(4, 0.2, [2, 5])
        assert hp.entity_count == 4
        assert hp.alpha.dtype == np.float64
        np.testing.assert_array_equal(hp.alpha, np.full(7, 0.2))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HyperParams(0, np.ones(2))
        with pytest.raises(ValueError):
            HyperParams(2, np.array([1.0, 0.0]))

    def test_rejects_per_field_alpha(self):
        # a per-field list is refused, never reshaped into a stacked vector
        for per_field in (
            [np.ones(2)],
            [np.ones(2), np.ones(2)],
            [np.array([0.5]), np.array([2.0])],
            [np.array([])],
        ):
            with pytest.raises(ValueError, match="1-D"):
                HyperParams(2, per_field)
        with pytest.raises(ValueError):  # ragged: numpy refuses to stack it
            HyperParams(2, [np.ones(2), np.ones(3)])

    @pytest.mark.parametrize(
        "count", [2.7, np.float64(4.5), "3", 0, -1, np.inf, -np.inf, np.nan]
    )
    def test_rejects_entity_counts_that_int_would_change(self, count):
        with pytest.raises(ValueError, match="entity_count"):
            HyperParams(count, np.ones(2))

    def test_rejects_entity_counts_beyond_intp(self):
        top = np.iinfo(np.intp).max
        assert HyperParams(top, np.ones(2)).entity_count == top
        with pytest.raises(ValueError, match=f"at most {top}, not {2**63}$"):
            HyperParams(2**63, np.ones(2))

    def test_accepts_integral_entity_counts(self):
        for count in (3, np.int64(3), np.float64(3.0)):
            assert HyperParams(count, np.ones(2)).entity_count == 3

    def test_rejects_non_finite_alpha(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                HyperParams(2, np.array([1.0, bad]))


class TestAlphaRange:
    """engine._check_alpha_range refuses the fields whose alpha makes
    digamma or ln Gamma overflow, at an entry or at the field's sum plus N,
    and fit and the oracle refuse such an alpha before any sweep."""

    @staticmethod
    def corpus(cards, n):
        schema = Schema(
            tuple(f"f{f}" for f in range(len(cards))),
            tuple(tuple(f"v{v}" for v in range(c)) for c in cards),
        )
        return Corpus(schema, (n,), np.zeros((n, len(cards)), dtype=np.int32))

    def test_bounded_alphas(self):
        corpus = self.corpus([2, 3], 10)
        for a in (1e-300, 0.1, 1.0, 1e300):
            engine._check_alpha_range(corpus, HyperParams.symmetric(2, a, [2, 3]))

    @pytest.mark.parametrize(
        "alpha, n, field",
        [
            ([1, 1, 1, 1e-320, 1, 1], 4, "f1"),  # digamma(1e-320) = -inf
            ([1, 1, 1, 1, 1, 1e307], 4, "f2"),  # ln Gamma(1e307) = inf
            ([1, 1, 1, 1e-320, 1, 1e307], 4, "f1"),  # the first field is named
            ([1e308, 1e308, 1, 1, 1, 1], 4, "f0"),  # the sum overflows too
            ([1, 1, 1, 1, 1, 2.5e305], 10**304, "f2"),  # only with the records
        ],
        ids=["digamma", "gammaln", "first-field", "sum", "records"],
    )
    def test_each_way_out_of_range(self, alpha, n, field):
        # the check reads the record count, not the rows, so a count of
        # 10**304 is patched in
        corpus = self.corpus([2, 3, 1], 1)
        hp = HyperParams(2, np.array(alpha, dtype=float))
        with mock.patch.object(Corpus, "total_records", n):
            with pytest.raises(engine.AlphaRangeError, match=f"field '{field}'"):
                engine._check_alpha_range(corpus, hp)
        if n == 10**304:  # bounded with one record
            engine._check_alpha_range(corpus, hp)

    def test_fit_and_oracle_refuse_before_any_sweep(self):
        corpus = self.corpus([2], 3)
        hp = HyperParams.symmetric(2, 1e307, [2])
        called = []
        with mock.patch.object(engine, "_sweep", lambda *a: called.append(a)):
            with pytest.raises(engine.AlphaRangeError, match="field 'f0'"):
                fit(corpus, hp)
        assert called == []
        with pytest.raises(engine.AlphaRangeError, match="field 'f0'"):
            exact_posterior(corpus, hp)

    def test_no_fields(self):
        engine._check_alpha_range(self.corpus([], 3), HyperParams(2, np.zeros(0)))


def fit_sweeps(corpus, hp, **options):
    """Run fit to the sweep limit or an exactly flat ELBO, keeping each
    sweep's ELBO, the lam that produced its phi (which fixes that phi), its
    MAP arrays and its lam."""
    sweeps = []

    def keep(_sweep, value, state):
        kept = (state.prev, state.argmax, state.max_prob, state.lam)
        sweeps.append((value, *(a.copy() for a in kept)))

    state, _ = fit(corpus, hp, rel_tol=1e-300, on_sweep=keep, **options)
    return state, sweeps


def assert_resume_is_exact(corpus, hp, path, first, then, seed=0):
    """Fit ``first`` sweeps, checkpoint, and fit ``then`` more sweeps from
    the loaded lam and from a Fortran-ordered copy of it: each sweep that
    both such a fit and an uninterrupted fit made has the same ELBO, phi
    (the lam that produced it), MAP arrays and lam bit for bit.  Returns
    how many sweeps were compared."""
    _, whole = fit_sweeps(corpus, hp, max_sweeps=first + then, seed=seed)
    state, head = fit_sweeps(corpus, hp, max_sweeps=first, seed=seed)
    save_state(path, state.lam, corpus, hp)
    lam, _ = load_state(path)
    for start in (lam, np.asfortranarray(lam)):
        _, tail = fit_sweeps(corpus, hp, initial_lam=start, max_sweeps=then, seed=seed)
        compared = list(zip(whole[len(head) :], tail))
        for (elbo_a, *arrays_a), (elbo_b, *arrays_b) in compared:
            assert elbo_a == elbo_b
            for a, b in zip(arrays_a, arrays_b):
                np.testing.assert_array_equal(a, b)
    return len(compared)


class TestFitMemory:
    """fit holds no (U, K) phi: one block per worker and a few
    (sum V_f, K) tables."""

    @pytest.fixture(scope="class")
    def wide(self):
        # about 7700 distinct tuples at K = 1000: a dense phi would take
        # 8 * U * K = 62 MB, blocks of 1048 rows take 8.4 MB each
        rng = np.random.default_rng(17)
        cards = [10] * 5
        schema = Schema(
            tuple(f"f{f}" for f in range(5)),
            tuple(tuple(str(v) for v in range(10)) for _ in cards),
        )
        values = rng.integers(0, 10, size=(8000, 5), dtype=np.int32)
        corpus = Corpus(schema=schema, db_sizes=(8000,), values=values)
        hp = HyperParams.symmetric(1000, 0.1, cards)
        # the modules a fit imports on first use are not traced below
        fit(corpus, hp, max_sweeps=1, workers=2)
        return corpus, hp

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_is_below_half_a_dense_phi(self, wide, workers):
        corpus, hp = wide
        tracemalloc.start()
        try:
            state, report = fit(corpus, hp, max_sweeps=2, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = 8 * report.distinct_records * hp.entity_count
        assert dense >= 32 * 2**20
        assert peak < dense / 2
        assert report.sweeps_run == 2 and state.argmax.size == report.distinct_records


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        corpus, _ = sample_dataset(
            GenConfig(
                entity_count=4,
                db_sizes=[12, 9],
                cardinalities=[3, 2],
                distortion=0.1,
                seed=6,
            )
        )
        hp = HyperParams.symmetric(5, 0.4, corpus.schema.cardinalities)
        state, _ = fit(corpus, hp, max_sweeps=5, seed=3)
        path = tmp_path / "state"
        save_state(path, state.lam, corpus, hp)
        with np.load(path) as data:
            assert data.files == [
                "version", "db_sizes", "cardinalities", "entity_count", "alpha", "lam",
            ]
            assert data["version"].shape == ()
            np.testing.assert_array_equal(data["alpha"], np.full(5, 0.4))
        lam, header = load_state(path)
        np.testing.assert_array_equal(lam, state.lam)
        np.testing.assert_array_equal(header["alpha"], hp.alpha)
        again = HyperParams(header["entity_count"], header["alpha"])
        np.testing.assert_array_equal(again.alpha, hp.alpha)
        assert header["version"] == engine.STATE_FORMAT_VERSION == 4
        assert header["db_sizes"] == (12, 9)
        assert header["cardinalities"] == [3, 2]
        assert header["entity_count"] == 5

    @pytest.mark.parametrize("first", [1, 3])
    def test_resume_matches_uninterrupted_fit(
        self, duplicate_heavy, tmp_path, monkeypatch, first
    ):
        corpus, hp = duplicate_heavy
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 64)
        distinct = engine._distinct_rows(corpus)[0].max() + 1
        assert len(engine._blocks(distinct, hp.entity_count)) > 3
        path = tmp_path / "state.npz"
        assert assert_resume_is_exact(corpus, hp, path, first, 3, seed=4) == 3

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(problem=tiny_problems(), first=st.integers(1, 3), then=st.integers(1, 3))
    def test_resume_is_exact_on_random_corpora(
        self, tmp_path_factory, problem, first, then
    ):
        corpus, hp = problem
        path = tmp_path_factory.mktemp("resume") / "state.npz"
        with mock.patch.object(engine, "BLOCK_RECORDS", 2):
            assert_resume_is_exact(corpus, hp, path, first, then)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.npz"
        for version in (99, 3):
            np.savez(path, version=np.asarray(version))
            with pytest.raises(ValueError, match=f"version {version}"):
                load_state(path)

    @pytest.mark.parametrize(
        "name, corrupt, message",
        [
            ("lam", lambda a: a[:-1], r"a \(sum V_f, K\) = \(5, 3\) array"),
            ("alpha", lambda a: np.append(a, 1.0), r"alpha has shape \(6,\), not \(5,\)"),
            ("lam", None, "'lam' is missing"),
        ],
        ids=["lam_shape", "alpha_length", "missing_array"],
    )
    def test_rejects_inconsistent_arrays(self, tmp_path, name, corrupt, message):
        corpus = Corpus(
            schema=Schema(("f1", "f2"), (("a", "b", "c"), ("x", "y"))),
            db_sizes=(4,),
            values=[[0, 1], [1, 0], [0, 1], [2, 1]],
        )
        hp = HyperParams.symmetric(3, 0.5, corpus.schema.cardinalities)
        state, _ = fit(corpus, hp, max_sweeps=2, seed=0)
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_state(good, state.lam, corpus, hp)
        load_state(good)
        with np.load(good) as data:
            arrays = dict(data)
        if corrupt is None:
            del arrays[name]
        else:
            arrays[name] = corrupt(arrays[name])
        np.savez(bad, **arrays)
        with pytest.raises(ValueError, match=message):
            load_state(bad)


class TestStateValidation:
    def test_rejects_broken_simplex(self):
        for phi in ([[0.6, 0.6]], [[np.nan, 0.5]], [[np.inf, 0.5]]):
            state = VariationalState(phi, np.ones((2, 2)))
            with pytest.raises(ValueError):
                validate(state)

    def test_rejects_nonpositive_lambda(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            state = VariationalState([[0.5, 0.5]], [[1.0, 1.0], [bad, 1.0]])
            with pytest.raises(ValueError):
                validate(state)


class TestDistinctRecords:
    """fit runs on one phi row per distinct value tuple; the reference
    updates on a per-record state hold it."""

    def test_fit_matches_per_record_reference(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        state, report = fit(corpus, hp, max_sweeps=8, rel_tol=1e-14, seed=3)
        distinct = len({tuple(r) for r in corpus.values.tolist()})
        assert distinct < corpus.total_records / 2
        assert report.distinct_records == distinct
        assert state.argmax.shape == state.max_prob.shape == (distinct,)

        reference = init_state(corpus, hp, seed=3)
        trace = []
        for _ in report.elbo_trace:
            update_phi(reference, corpus, hp)
            update_lambda(reference, corpus, hp)
            trace.append(elbo(reference, corpus, hp))
        np.testing.assert_allclose(report.elbo_trace, trace, rtol=1e-10, atol=0.0)
        ours = map_linkage(state, corpus.db_sizes)
        np.testing.assert_array_equal(ours.map_entity, reference.phi.argmax(axis=1) + 1)
        np.testing.assert_allclose(ours.max_prob, reference.phi.max(axis=1), rtol=1e-9)

    def test_closed_form_start_matches_lambda_update(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        start = init_state(corpus, hp, seed=5)
        closed_form = start.lam.copy()
        update_lambda(start, corpus, hp)
        np.testing.assert_allclose(closed_form, start.lam, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(
            engine._seeded_lambda(corpus, hp, seed=5), closed_form
        )

    def test_known_duplicates(self):
        corpus = tiny_corpus([0, 1, 0, 0, 2, 1], cardinality=3)
        hp = HyperParams.symmetric(4, 0.5, [3])
        state, report = fit(corpus, hp, max_sweeps=3, seed=0)
        assert report.distinct_records == 3
        assert state.argmax.shape == state.max_prob.shape == (3,)
        assert state.lam.shape == state.prev.shape == (3, 4)
        rows = state.rows
        assert rows[0] == rows[2] == rows[3]
        assert rows[1] == rows[5]
        assert len({rows[0], rows[1], rows[4]}) == 3
        reference = reference_state(state, corpus)
        assert reference.phi.shape == (3, 4)
        validate(reference)

    def test_records_without_fields_share_one_row(self):
        corpus = Corpus(
            schema=Schema((), ()), db_sizes=(3,), values=np.zeros((3, 0))
        )
        state, report = fit(corpus, HyperParams(2, []), max_sweeps=3)
        assert report.distinct_records == 1
        assert state.argmax.shape == (1,) and state.entity_count == 2
        np.testing.assert_array_equal(state.rows, [0, 0, 0])
        np.testing.assert_array_equal(
            map_linkage(state, corpus.db_sizes).map_entity, [1, 1, 1]
        )

    @pytest.mark.parametrize("shape", ["duplicate_heavy", "no_fields", "no_records"])
    def test_tuple_view_matches_the_reference_patterns(self, duplicate_heavy, shape):
        corpus = {
            "duplicate_heavy": duplicate_heavy[0],
            "no_fields": Corpus(Schema((), ()), (4,), np.zeros((4, 0))),
            "no_records": Corpus(duplicate_heavy[0].schema, (0,), np.zeros((0, 8))),
        }[shape]
        rows, columns, weights = engine._distinct_rows(corpus)
        # rows number the tuples in the byte order of their codes
        keys = [record.tobytes() for record in corpus.values]
        order = {key: u for u, key in enumerate(sorted(set(keys)))}
        np.testing.assert_array_equal(rows, [order[key] for key in keys])
        expected = _row_patterns(rows, len(order), corpus)
        for ours, theirs in zip((columns, weights), expected):
            assert ours.dtype == theirs.dtype
            np.testing.assert_array_equal(ours, theirs)

    def test_last_phi_without_fields_is_the_map_row(self):
        corpus = Corpus(Schema((), ()), (3,), np.zeros((3, 0)))
        state, _ = fit(corpus, HyperParams(2, []), max_sweeps=3)
        phi = engine.last_phi(state, corpus)
        assert phi.shape == (1, 2)
        assert phi[0, state.argmax[0]] == state.max_prob[0]

    def test_caller_initial_state_is_not_written(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        start = init_state(corpus, hp, seed=2).lam
        before = start.copy()
        state, _ = fit(corpus, hp, initial_lam=start, max_sweeps=3)
        np.testing.assert_array_equal(start, before)
        assert not np.shares_memory(state.lam, start)

    def test_initial_state_of_wrong_shape_rejected(self, pair_corpus):
        hp = HyperParams.symmetric(2, 1.0, [2])
        shape = r"lam must be a \(sum V_f, K\) = \(2, 2\) array"
        for wrong in (np.ones((3, 2)), np.ones((2, 2, 1)), [np.ones((2, 2))]):
            with pytest.raises(ValueError, match=shape):
                fit(pair_corpus, hp, initial_lam=wrong)
        # bad input is a ValueError up front, never a numerical failure
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam must be finite"):
                fit(pair_corpus, hp, initial_lam=np.array([[1.0, bad], [1.0, 1.0]]))


class TestFusedSweep:
    """Each fit sweep is one blocked pass over phi with the ELBO in closed
    form; the reference update_phi, update_lambda and elbo hold it."""

    def test_elbo_matches_reference_at_every_sweep(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        gaps = []

        def check(_sweep, value, state):
            reference = reference_state(state, corpus)
            gaps.append(abs(value - elbo(reference, corpus, hp)) / abs(value))

        _, report = fit(corpus, hp, max_sweeps=8, rel_tol=1e-14, seed=4, on_sweep=check)
        assert len(gaps) == report.sweeps_run == 8
        assert max(gaps) <= 1e-10

    def test_lambda_is_the_update_of_the_returned_phi(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        state, _ = fit(corpus, hp, max_sweeps=5, seed=6)
        reference = reference_state(state, corpus)
        update_lambda(reference, corpus, hp)
        np.testing.assert_array_equal(state.lam, reference.lam)

    def test_copied_and_reloaded_lambda_give_the_same_phi(
        self, duplicate_heavy, tmp_path
    ):
        corpus, hp = duplicate_heavy
        state = reference_state(fit(corpus, hp, max_sweeps=2, seed=6)[0], corpus)
        updated = copy_state(state)
        update_lambda(updated, corpus, hp)
        assert state.lam.flags.c_contiguous and updated.lam.flags.c_contiguous
        copied = copy_state(state)
        save_state(tmp_path / "state.npz", state.lam, corpus, hp)
        lam, _ = load_state(tmp_path / "state.npz")
        reloaded = VariationalState(phi=state.phi.copy(), lam=lam, rows=state.rows)
        fortran = VariationalState(
            phi=state.phi.copy(), lam=np.asfortranarray(lam), rows=state.rows
        )
        for s in (state, copied, reloaded, fortran):
            update_phi(s, corpus, hp)
        for s in (copied, reloaded, fortran):
            np.testing.assert_array_equal(s.phi, state.phi)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_arrays_are_the_argmax_and_max_of_the_last_phi(
        self, duplicate_heavy, monkeypatch, workers
    ):
        corpus, hp = duplicate_heavy
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 64)  # 5 blocks
        state, _ = fit(corpus, hp, max_sweeps=4, seed=1, workers=workers)
        phi = engine.last_phi(state, corpus)
        assert len(engine._blocks(*phi.shape)) == 5
        np.testing.assert_array_equal(state.argmax, phi.argmax(axis=1))
        np.testing.assert_array_equal(state.max_prob, phi.max(axis=1))

    def test_blocks_are_capped_at_eight_mebibytes(self):
        assert engine._rows_per_block(50) == engine.BLOCK_RECORDS
        assert engine._rows_per_block(4000) == 262
        assert engine._rows_per_block(2**21) == 1
        assert len(engine._blocks(1572, 4000)) == 6

    def test_trace_monotone_on_recovery_config(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        _, report = fit(corpus, hp, seed=0)
        assert report.converged
        trace = report.elbo_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur >= prev - engine.DECREASE_SLACK * abs(prev)
        assert report.elbo_decreases == 0

    def test_elbo_decreases_are_counted(self, pair_corpus, monkeypatch):
        values = iter([-10.0, -9.0, -9.5, -9.4, -9.4 - 1e-12, -9.3, -9.3])
        monkeypatch.setattr(engine, "_sweep", lambda *_args: next(values))
        hp = HyperParams.symmetric(2, 1.0, [2])
        _, report = fit(pair_corpus, hp, max_sweeps=10, rel_tol=1e-14)
        assert report.elbo_trace == [-10.0, -9.0, -9.5, -9.4, -9.4 - 1e-12, -9.3, -9.3]
        assert report.converged
        assert report.elbo_decreases == 1
