import math
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

import vblink.engine as engine
from vblink.corpus import Corpus, Schema
from vblink.engine import (
    HyperParams,
    NumericalFailureError,
    VariationalState,
    elbo,
    elbo_grad_lambda,
    fit,
    init_state,
    load_state,
    save_state,
    update_lambda,
    update_phi,
)
from vblink.evaluate import map_linkage
from vblink.genmodel import GenConfig, sample_dataset

# Duplicate-heavy: the paper's recovery config, 600 records in about 280
# distinct value tuples.
DUPLICATE_HEAVY = GenConfig(
    entity_count=200,
    db_sizes=[300, 300],
    cardinalities=[10] * 8,
    distortion=0.02,
    seed=42,
)

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


def make_state(phi, lam):
    return VariationalState(
        phi=np.asarray(phi, dtype=np.float64),
        lam=[np.asarray(l, dtype=np.float64) for l in lam],
    )


@pytest.fixture
def pair_corpus():
    # two records carrying the same value of a binary field
    return tiny_corpus([0, 0])


class TestSpecialFunctions:
    """The scipy functions the updates and the gradient are built from."""

    def test_digamma_reference_values(self):
        for x, want in DIGAMMA_REFERENCE.items():
            assert engine.digamma(x) == pytest.approx(want, abs=1e-12)

    def test_trigamma_reference_values(self):
        for x, want in TRIGAMMA_REFERENCE.items():
            assert engine.polygamma(1, x) == pytest.approx(want, rel=1e-10)


class TestFieldCounts:
    def test_matches_add_at_reference_across_blocks(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 3)
        rng = np.random.default_rng(11)
        n, k, cards = 10, 4, (3, 5)
        values = np.stack([rng.integers(0, v, size=n) for v in cards], axis=1)
        phi = rng.dirichlet(np.ones(k), size=n)
        weights = rng.integers(1, 5, size=n).astype(np.float64)
        counts = engine._field_counts(phi, values, weights, cards, workers=1)
        for f, v_f in enumerate(cards):
            want = np.zeros((v_f, k))
            np.add.at(want, values[:, f], phi * weights[:, None])
            np.testing.assert_allclose(counts[f], want, rtol=1e-12, atol=1e-15)
        for got, want in zip(
            engine._field_counts(phi, values, weights, cards, workers=3), counts
        ):
            np.testing.assert_array_equal(got, want)

    def test_no_records_gives_zero_tables(self):
        cards = (3, 5)
        for workers in (1, 3):
            counts = engine._field_counts(
                np.zeros((0, 4)), np.zeros((0, 2), dtype=np.int32), np.zeros(0),
                cards, workers,
            )
            assert [c.shape for c in counts] == [(3, 4), (5, 4)]
            assert not any(np.any(c) for c in counts)


class TestUpdateLambda:
    def test_prior_plus_counts(self, pair_corpus):
        hp = HyperParams.symmetric(1, 1.0, [2])
        state = make_state(np.ones((2, 1)), [np.ones((1, 2))])
        update_lambda(state, pair_corpus, hp)
        np.testing.assert_allclose(state.lam[0], [[3.0, 1.0]])

    def test_split_responsibilities(self):
        corpus = tiny_corpus([0, 1])
        hp = HyperParams.symmetric(2, 0.5, [2])
        state = make_state(np.full((2, 2), 0.5), [None])
        update_lambda(state, corpus, hp)
        np.testing.assert_allclose(state.lam[0], np.full((2, 2), 1.0))

    def test_no_records_leaves_prior(self):
        corpus = tiny_corpus([])
        hp = HyperParams(2, [np.array([0.3, 0.9])])
        state = make_state(np.zeros((0, 2)), [None])
        update_lambda(state, corpus, hp)
        np.testing.assert_array_equal(state.lam[0], [[0.3, 0.9], [0.3, 0.9]])

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
        for f, a in enumerate(hp.alpha):
            total = float(np.sum(state.lam[f] - a[None, :]))
            assert abs(total - n) <= 1e-9 * n


class TestUpdatePhi:
    def test_single_entity(self, pair_corpus):
        hp = HyperParams.symmetric(1, 1.0, [2])
        state = make_state(np.zeros((2, 1)), [np.array([[3.0, 1.0]])])
        update_phi(state, pair_corpus, hp)
        np.testing.assert_array_equal(state.phi, np.ones((2, 1)))

    def test_identical_entities_give_uniform(self):
        corpus = tiny_corpus([0, 1, 0])
        hp = HyperParams.symmetric(3, 1.0, [2])
        state = make_state(np.zeros((3, 3)), [np.full((3, 2), 1.7)])
        update_phi(state, corpus, hp)
        np.testing.assert_allclose(state.phi, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_hand_computed_two_entities(self):
        corpus = tiny_corpus([0])
        hp = HyperParams.symmetric(2, 1.0, [2])
        state = make_state(np.zeros((1, 2)), [np.array([[2.0, 1.0], [1.0, 2.0]])])
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
        state.validate()

    def test_extreme_scores_stay_finite_on_simplex(self, monkeypatch):
        # value 0 overflows a plain exp, value 1 underflows it in every entity
        table = np.array(
            [
                [700.0, 700.0 - math.log(2.0), -700.0],
                [-800.0, -800.0 - math.log(2.0), -1500.0],
            ]
        )
        monkeypatch.setattr(engine, "_score_tables", lambda _state: [table])
        corpus = tiny_corpus([0, 1, 0])
        hp = HyperParams.symmetric(3, 1.0, [2])
        state = make_state(np.zeros((3, 3)), [np.ones((3, 2))])
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
            other = state.copy()
            row = rng.integers(0, 5)
            other.phi[row] = rng.dirichlet(np.ones(3))
            assert elbo(other, corpus, hp) <= base + 1e-12


class TestElbo:
    def test_zero_when_no_data_and_prior_state(self):
        corpus = tiny_corpus([])
        hp = HyperParams(3, [np.array([0.7, 1.3])])
        state = make_state(np.zeros((0, 3)), [np.tile([0.7, 1.3], (3, 1))])
        assert elbo(state, corpus, hp) == pytest.approx(0.0, abs=1e-13)

    def test_single_entity_closed_form(self, pair_corpus):
        # evidence of two identical binary observations under a flat prior
        hp = HyperParams.symmetric(1, 1.0, [2])
        state = init_state(pair_corpus, hp, seed=0)
        assert elbo(state, pair_corpus, hp) == pytest.approx(
            math.log(1.0 / 3.0), abs=1e-12
        )

    def test_two_entity_bound(self, pair_corpus):
        hp = HyperParams.symmetric(2, 1.0, [2])
        _, report = fit(pair_corpus, hp, seed=5)
        assert report.elbo_trace[-1] <= math.log(7.0 / 24.0) + 1e-9


class TestGradient:
    def test_zero_after_update_lambda(self):
        corpus = tiny_corpus([0, 1, 1, 0, 1], cardinality=3)
        hp = HyperParams.symmetric(3, 0.7, [3])
        state = init_state(corpus, hp, seed=2)
        # fit's state shares rows between duplicate records
        fitted, _ = fit(corpus, hp, max_sweeps=2, seed=2)
        assert fitted.phi.shape[0] < corpus.total_records
        for state in (state, fitted):
            for k in range(3):
                for v in range(3):
                    assert abs(elbo_grad_lambda(state, corpus, hp, k, 0, v)) <= 1e-8

    def test_zero_for_prior_state_without_data(self):
        corpus = tiny_corpus([])
        hp = HyperParams(2, [np.array([0.5, 2.0])])
        state = make_state(np.zeros((0, 2)), [np.tile([0.5, 2.0], (2, 1))])
        for k in range(2):
            for v in range(2):
                assert elbo_grad_lambda(state, corpus, hp, k, 0, v) == pytest.approx(
                    0.0, abs=1e-14
                )

    def test_matches_finite_differences(self):
        corpus = tiny_corpus([0, 1, 0])
        hp = HyperParams.symmetric(2, 0.8, [2])
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(20):
            state = make_state(
                rng.dirichlet(np.ones(2), size=3),
                [rng.uniform(0.5, 4.0, size=(2, 2))],
            )
            k = int(rng.integers(2))
            v = int(rng.integers(2))
            grad = elbo_grad_lambda(state, corpus, hp, k, 0, v)
            hi = state.copy()
            hi.lam[0][k, v] += h
            lo = state.copy()
            lo.lam[0][k, v] -= h
            fd = (elbo(hi, corpus, hp) - elbo(lo, corpus, hp)) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-5)


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
        state_b, report_b = fit(
            corpus, hp, initial_lam=start.permute_entities(perm).lam, max_sweeps=25
        )
        for ea, eb in zip(report_a.elbo_trace, report_b.elbo_trace):
            assert eb == pytest.approx(ea, rel=1e-12)
        np.testing.assert_allclose(
            state_b.phi, state_a.phi[:, perm], rtol=1e-9, atol=1e-12
        )
        for f in range(2):
            np.testing.assert_allclose(
                state_b.lam[f], state_a.lam[f][perm], rtol=1e-9, atol=1e-12
            )

    def test_numerical_failure_reports_sweep(self, pair_corpus):
        hp = HyperParams.symmetric(2, 1.0, [2])
        # finite and positive, so it passes the input checks, but entity 0's
        # row sum overflows to inf and the first sweep's ELBO is NaN
        lam = [np.array([[1e308, 1e308], [1.0, 1.0]])]
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
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers"):
                fit(pair_corpus, hp, workers=workers)

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
        np.testing.assert_array_equal(a.lam[0], b.lam[0])

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
        state.validate()

    def test_more_entities_than_records(self):
        corpus = tiny_corpus([0, 1])
        hp = HyperParams.symmetric(5, 0.5, [2])
        state = init_state(corpus, hp, seed=0)
        assert state.phi.shape == (2, 5)
        state.validate()

    def test_alpha_shape_mismatch_rejected(self, pair_corpus):
        with pytest.raises(ValueError):
            init_state(pair_corpus, HyperParams(2, [np.ones(3)]), seed=0)
        with pytest.raises(ValueError):
            init_state(pair_corpus, HyperParams(2, [np.ones(2), np.ones(2)]), seed=0)


class TestHyperParams:
    def test_symmetric_constructor(self):
        hp = HyperParams.symmetric(4, 0.2, [2, 5])
        assert hp.entity_count == 4
        assert [a.shape for a in hp.alpha] == [(2,), (5,)]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HyperParams(0, [np.ones(2)])
        with pytest.raises(ValueError):
            HyperParams(2, [np.array([1.0, 0.0])])
        with pytest.raises(ValueError):
            HyperParams(2, [np.array([])])

    def test_rejects_non_finite_alpha(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                HyperParams(2, [np.array([1.0, bad])])


class TestWorkers:
    def test_results_bitwise_identical_across_worker_counts(self):
        rng = np.random.default_rng(17)
        n = 20_000  # spans several record blocks
        corpus = tiny_corpus(rng.integers(0, 3, size=n), cardinality=3)
        hp = HyperParams.symmetric(4, 0.3, [3])
        results = []
        for workers in (1, 4):
            state = init_state(corpus, hp, seed=2)
            update_phi(state, corpus, hp, workers=workers)
            update_lambda(state, corpus, hp, workers=workers)
            value = elbo(state, corpus, hp, workers=workers)
            results.append((state, value))
        (s1, e1), (s4, e4) = results
        assert e1 == e4
        np.testing.assert_array_equal(s1.phi, s4.phi)
        np.testing.assert_array_equal(s1.lam[0], s4.lam[0])


def fit_sweeps(corpus, hp, **options):
    """Run fit to the sweep limit or an exactly flat ELBO, keeping each
    sweep's ELBO, phi and lam."""
    sweeps = []

    def keep(_sweep, value, state):
        sweeps.append((value, state.phi.copy(), [l.copy() for l in state.lam]))

    state, _ = fit(corpus, hp, rel_tol=1e-300, on_sweep=keep, **options)
    return state, sweeps


def assert_resume_is_exact(corpus, hp, path, first, then, workers, seed=0):
    """Fit ``first`` sweeps, checkpoint, and fit ``then`` more sweeps from
    the loaded lam: each sweep that both this and an uninterrupted fit
    made has the same ELBO, phi and lam bit for bit.  Returns how many
    sweeps were compared."""
    options = dict(workers=workers, seed=seed)
    _, whole = fit_sweeps(corpus, hp, max_sweeps=first + then, **options)
    state, head = fit_sweeps(corpus, hp, max_sweeps=first, **options)
    save_state(path, state.lam, corpus, hp)
    lam, _ = load_state(path)
    _, tail = fit_sweeps(corpus, hp, initial_lam=lam, max_sweeps=then, **options)
    compared = list(zip(whole[len(head) :], tail))
    for (elbo_a, phi_a, lam_a), (elbo_b, phi_b, lam_b) in compared:
        assert elbo_a == elbo_b
        np.testing.assert_array_equal(phi_a, phi_b)
        for got, want in zip(lam_b, lam_a):
            np.testing.assert_array_equal(got, want)
    return len(compared)


@st.composite
def tiny_problems(draw):
    """A random corpus of at most 12 records, 3 fields of at most 4 values
    and 1 or 2 databases, with at most 5 entities."""
    cards = draw(st.lists(st.integers(1, 4), max_size=3))
    n = draw(st.integers(1, 12))
    row = st.tuples(*(st.integers(0, v - 1) for v in cards))
    values = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.int32)
    first_db = draw(st.integers(0, n))
    corpus = Corpus(
        schema=Schema(
            tuple(f"f{f}" for f in range(len(cards))),
            tuple(tuple(str(c) for c in range(v)) for v in cards),
        ),
        db_sizes=(first_db, n - first_db),
        values=values.reshape(n, len(cards)),
    )
    alpha = draw(st.sampled_from([0.1, 0.5, 2.0]))
    return corpus, HyperParams.symmetric(draw(st.integers(1, 5)), alpha, cards)


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
                "version", "db_sizes", "cardinalities", "entity_count",
                "alpha_0", "lam_0", "alpha_1", "lam_1",
            ]
            assert data["version"].shape == ()
        lam, header = load_state(path)
        for f in range(2):
            np.testing.assert_array_equal(lam[f], state.lam[f])
            np.testing.assert_array_equal(header["alpha"][f], hp.alpha[f])
        assert header["version"] == engine.STATE_FORMAT_VERSION == 3
        assert header["db_sizes"] == (12, 9)
        assert header["cardinalities"] == [3, 2]
        assert header["entity_count"] == 5

    @pytest.mark.parametrize("workers", [1, 3])
    def test_resume_matches_uninterrupted_fit(self, tmp_path, monkeypatch, workers):
        corpus, _ = sample_dataset(DUPLICATE_HEAVY)
        hp = HyperParams.symmetric(600, 0.1, corpus.schema.cardinalities)
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 64)
        distinct = engine._distinct_rows(corpus.values).max() + 1
        assert len(engine._blocks(distinct, hp.entity_count)) > 3
        path = tmp_path / "state.npz"
        assert assert_resume_is_exact(corpus, hp, path, 3, 3, workers, seed=4) == 3

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(problem=tiny_problems(), first=st.integers(1, 3), then=st.integers(1, 3))
    def test_resume_is_exact_on_random_corpora(
        self, tmp_path_factory, problem, first, then
    ):
        corpus, hp = problem
        path = tmp_path_factory.mktemp("resume") / "state.npz"
        with mock.patch.object(engine, "BLOCK_RECORDS", 2):
            for workers in (1, 3):
                assert_resume_is_exact(corpus, hp, path, first, then, workers)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.asarray(99))
        with pytest.raises(ValueError):
            load_state(path)

    @pytest.mark.parametrize(
        "name, corrupt, message",
        [
            ("lam_1", lambda a: a[:, :-1], "lam for field 1"),
            ("alpha_0", lambda a: np.append(a, 1.0), "alpha for field 0"),
            ("lam_1", None, "'lam_1' is missing"),
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
            state = make_state(phi, [np.ones((2, 2))])
            with pytest.raises(ValueError):
                state.validate()

    def test_rejects_nonpositive_lambda(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            state = make_state([[0.5, 0.5]], [np.array([[1.0, bad], [1.0, 1.0]])])
            with pytest.raises(ValueError):
                state.validate()


class TestDistinctRecords:
    """fit runs on one phi row per distinct value tuple; the public updates
    on a per-record state are its reference."""

    @pytest.fixture(scope="class")
    def duplicate_heavy(self):
        corpus, _ = sample_dataset(DUPLICATE_HEAVY)
        return corpus, HyperParams.symmetric(600, 0.1, corpus.schema.cardinalities)

    def test_fit_matches_per_record_reference(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        state, report = fit(corpus, hp, max_sweeps=8, rel_tol=1e-14, seed=3)
        distinct = len({tuple(r) for r in corpus.values.tolist()})
        assert distinct < corpus.total_records / 2
        assert report.distinct_records == distinct
        assert state.phi.shape == (distinct, hp.entity_count)

        reference = init_state(corpus, hp, seed=3)
        trace = []
        for _ in report.elbo_trace:
            update_phi(reference, corpus, hp)
            update_lambda(reference, corpus, hp)
            trace.append(elbo(reference, corpus, hp))
        np.testing.assert_allclose(report.elbo_trace, trace, rtol=1e-10, atol=0.0)
        ours = map_linkage(state, corpus.db_sizes)
        theirs = map_linkage(reference, corpus.db_sizes)
        np.testing.assert_array_equal(ours.map_entity, theirs.map_entity)
        np.testing.assert_allclose(ours.max_prob, theirs.max_prob, rtol=1e-9)

    def test_worker_counts_bitwise_equal_across_row_blocks(
        self, duplicate_heavy, monkeypatch
    ):
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 3)
        corpus, hp = duplicate_heavy
        runs = [
            fit(corpus, hp, max_sweeps=4, seed=1, workers=workers)
            for workers in (1, 3)
        ]
        (s1, r1), (s3, r3) = runs
        assert r1.elbo_trace == r3.elbo_trace
        np.testing.assert_array_equal(s1.phi, s3.phi)
        for lam1, lam3 in zip(s1.lam, s3.lam):
            np.testing.assert_array_equal(lam1, lam3)

    def test_closed_form_start_matches_lambda_update(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        start = init_state(corpus, hp, seed=5)
        closed_form = [l.copy() for l in start.lam]
        update_lambda(start, corpus, hp)
        for got, want in zip(closed_form, start.lam):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(
            engine._seeded_lambda(corpus, hp, seed=5)[0], closed_form[0]
        )

    def test_known_duplicates(self):
        corpus = tiny_corpus([0, 1, 0, 0, 2, 1], cardinality=3)
        hp = HyperParams.symmetric(4, 0.5, [3])
        state, report = fit(corpus, hp, max_sweeps=3, seed=0)
        assert report.distinct_records == 3
        assert state.phi.shape == (3, 4)
        rows = state.rows
        assert rows[0] == rows[2] == rows[3]
        assert rows[1] == rows[5]
        assert len({rows[0], rows[1], rows[4]}) == 3
        state.validate()

    def test_records_without_fields_share_one_row(self):
        corpus = Corpus(
            schema=Schema((), ()), db_sizes=(3,), values=np.zeros((3, 0))
        )
        state, report = fit(corpus, HyperParams(2, []), max_sweeps=3)
        assert report.distinct_records == 1
        assert state.phi.shape == (1, 2)
        np.testing.assert_array_equal(state.rows, [0, 0, 0])
        np.testing.assert_array_equal(
            map_linkage(state, corpus.db_sizes).map_entity, [1, 1, 1]
        )

    def test_caller_initial_state_is_not_written(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        start = init_state(corpus, hp, seed=2).lam
        before = [l.copy() for l in start]
        state, _ = fit(corpus, hp, initial_lam=start, max_sweeps=3)
        for now, then in zip(start, before):
            np.testing.assert_array_equal(now, then)
        assert all(a is not b for a, b in zip(state.lam, start))

    def test_initial_state_of_wrong_shape_rejected(self, pair_corpus):
        hp = HyperParams.symmetric(2, 1.0, [2])
        with pytest.raises(ValueError, match="lam for field 0"):
            fit(pair_corpus, hp, initial_lam=[np.ones((3, 2))])
        # bad input is a ValueError up front, never a numerical failure
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam for field 0"):
                fit(pair_corpus, hp, initial_lam=[np.array([[1.0, bad], [1.0, 1.0]])])


class TestFusedSweep:
    """Each fit sweep is one blocked pass over phi with the ELBO in closed
    form; the public update_phi, update_lambda and elbo are its reference."""

    @pytest.fixture(scope="class")
    def duplicate_heavy(self):
        corpus, _ = sample_dataset(DUPLICATE_HEAVY)
        return corpus, HyperParams.symmetric(600, 0.1, corpus.schema.cardinalities)

    def test_elbo_matches_reference_at_every_sweep(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        gaps = []

        def check(_sweep, value, state):
            gaps.append(abs(value - elbo(state, corpus, hp)) / abs(value))

        _, report = fit(corpus, hp, max_sweeps=8, rel_tol=1e-14, seed=4, on_sweep=check)
        assert len(gaps) == report.sweeps_run == 8
        assert max(gaps) <= 1e-10

    def test_lambda_is_the_update_of_the_returned_phi(self, duplicate_heavy):
        corpus, hp = duplicate_heavy
        state, _ = fit(corpus, hp, max_sweeps=5, seed=6)
        reference = state.copy()
        update_lambda(reference, corpus, hp)
        for got, want in zip(state.lam, reference.lam):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_copied_and_reloaded_lambda_give_the_same_phi(
        self, duplicate_heavy, tmp_path
    ):
        corpus, hp = duplicate_heavy
        state, _ = fit(corpus, hp, max_sweeps=2, seed=6)
        updated = state.copy()
        update_lambda(updated, corpus, hp)
        assert all(l.flags.c_contiguous for l in state.lam + updated.lam)
        copied = state.copy()
        save_state(tmp_path / "state.npz", state.lam, corpus, hp)
        lam, _ = load_state(tmp_path / "state.npz")
        reloaded = VariationalState(phi=state.phi.copy(), lam=lam, rows=state.rows)
        for s in (state, copied, reloaded):
            update_phi(s, corpus, hp)
        np.testing.assert_array_equal(copied.phi, state.phi)
        np.testing.assert_array_equal(reloaded.phi, state.phi)

    def test_blocks_are_capped_at_eight_mebibytes(self):
        assert engine._rows_per_block(50) == engine.BLOCK_RECORDS
        assert engine._rows_per_block(4000) == 262
        assert engine._rows_per_block(2**21) == 1
        assert len(engine._blocks(1572, 4000)) == 6

    def test_worker_counts_bitwise_equal_when_bytes_split_blocks(self):
        rng = np.random.default_rng(3)
        schema = Schema(("a", "b", "c"), (tuple("0123456789"),) * 3)
        values = rng.integers(0, 10, size=(300, 3))
        corpus = Corpus(schema=schema, db_sizes=(300,), values=values)
        hp = HyperParams.symmetric(2**13, 0.2, [10] * 3)
        distinct = len({tuple(r) for r in values.tolist()})
        assert len(engine._blocks(distinct, hp.entity_count)) >= 3
        runs = [
            fit(corpus, hp, max_sweeps=3, seed=2, workers=workers)
            for workers in (1, 3)
        ]
        (s1, r1), (s3, r3) = runs
        assert r1.elbo_trace == r3.elbo_trace
        np.testing.assert_array_equal(s1.phi, s3.phi)
        for lam1, lam3 in zip(s1.lam, s3.lam):
            np.testing.assert_array_equal(lam1, lam3)

    def test_workers_hold_at_most_one_round_of_partials(self):
        lock = threading.Lock()
        produced, consumed, held = [0], [0], []

        def block(_bounds):
            with lock:
                produced[0] += 1
                held.append(produced[0] - consumed[0])
            return None

        blocks = engine._blocks(12, 2**20)  # one row per block
        assert len(blocks) == 12
        for _ in engine._map_blocks(block, blocks, workers=3):
            time.sleep(0.005)  # a slow consumer: finished blocks would pile up
            with lock:
                consumed[0] += 1
        assert produced[0] == consumed[0] == 12
        assert max(held) <= 3

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
