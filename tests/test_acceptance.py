"""End-to-end acceptance checks for the variational linkage engine.

Each test prints a one-line ``[PASS]``/``[FAIL]`` verdict so the suite
doubles as a sign-off report:

1. per-sweep ELBO monotonicity over a randomized battery
2. final ELBO never exceeds the exact evidence
3. analytic lambda gradient vs central finite differences
4. per-field pseudo-count conservation after every lambda update
5. frozen closed-form values (tiny-instance evidence and co-clustering)
6. equivariance of the whole fit under entity relabeling
7. recovery quality on peaked synthetic data (pairwise F1)
8. linear per-sweep scaling in the number of distinct records
9. byte-identical linkage output across worker counts
10. per-sweep fit work linear in the distinct records, counted, not timed
"""

import contextlib
import math
import threading
import time

import numpy as np
import pytest

import vblink.engine as engine
from vblink.cli import main
from vblink.corpus import Corpus, Schema
from vblink.engine import HyperParams, fit
from vblink.evaluate import map_linkage, pairwise_metrics
from vblink.genmodel import GenConfig, sample_dataset
from vblink.oracle import exact_posterior

from problems import central_differences
from reference import (
    elbo_grad_lambda,
    init_state,
    reference_state,
    update_lambda,
    update_phi,
)


@contextlib.contextmanager
def criterion(capsys, number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {label}")


def random_instance(rng, n, field_count, cardinality, distortion, seed):
    """A synthetic corpus with the record total split across 1-3 databases."""
    d = int(rng.integers(1, 4))
    if d > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=d - 1, replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [n]])).tolist()
    else:
        sizes = [n]
    config = GenConfig(
        entity_count=int(rng.integers(1, n + 1)),
        db_sizes=sizes,
        cardinalities=[cardinality] * field_count,
        distortion=distortion,
        seed=seed,
    )
    return sample_dataset(config)[0]


@pytest.fixture(scope="module")
def sweep_battery():
    """100 seeded fits shared by the monotonicity and conservation checks.

    Every sweep's post-update state is inspected through the fit callback,
    so conservation is verified after each lambda update of each run.
    """
    rng = np.random.default_rng(1402)
    runs = []
    start = time.perf_counter()
    for i in range(100):
        n = int(rng.integers(8, 201))
        corpus = random_instance(
            rng,
            n,
            field_count=int(rng.integers(1, 6)),
            cardinality=int(rng.integers(2, 7)),
            distortion=float(rng.uniform(0.0, 0.4)),
            seed=i,
        )
        k = int(rng.integers(1, 21))
        alpha = float(rng.choice([0.1, 0.5, 1.0]))
        hp = HyperParams.symmetric(k, alpha, corpus.schema.cardinalities)
        conservation = []
        cards = corpus.schema.cardinalities
        prior = k * engine._field_sums(hp.alpha, cards)

        def on_sweep(_s, _e, state, cards=cards, prior=prior, n=n, out=conservation):
            mass = engine._field_sums(state.lam, cards).sum(axis=1)
            out.append(float(np.max(np.abs(mass - prior - n), initial=0.0)))

        _, report = fit(
            corpus, hp, max_sweeps=25, rel_tol=1e-9, seed=i, on_sweep=on_sweep
        )
        runs.append(
            {"trace": report.elbo_trace, "conservation": conservation, "n": n}
        )
    return {"runs": runs, "wall_time": time.perf_counter() - start}


def test_01_elbo_monotonicity(capsys, sweep_battery):
    with criterion(capsys, 1, "ELBO never decreases across sweeps"):
        assert len(sweep_battery["runs"]) >= 100
        for run in sweep_battery["runs"]:
            trace = run["trace"]
            for prev, cur in zip(trace, trace[1:]):
                assert cur - prev >= -1e-9 * abs(cur)
        assert sweep_battery["wall_time"] < 60.0


def test_02_elbo_bounds_exact_evidence(capsys):
    with criterion(capsys, 2, "final ELBO stays below the exact evidence"):
        start = time.perf_counter()
        rng = np.random.default_rng(88)
        cases = [
            (1, 5), (1, 10), (2, 8), (2, 12), (2, 16),
            (3, 6), (3, 8), (3, 10), (4, 5), (4, 7), (4, 8),
            (6, 6), (10, 10), (12, 12),  # K = N
        ]
        # exact_posterior raises EnumerationBudgetError on a case too big
        for idx, (k, n) in enumerate(cases):
            corpus = random_instance(
                rng,
                n,
                field_count=int(rng.integers(1, 4)),
                cardinality=int(rng.integers(2, 4)),
                distortion=float(rng.uniform(0.0, 0.5)),
                seed=200 + idx,
            )
            alpha = float(rng.choice([0.1, 0.5, 1.0]))
            hp = HyperParams.symmetric(k, alpha, corpus.schema.cardinalities)
            evidence = exact_posterior(corpus, hp).log_evidence
            _, report = fit(corpus, hp, max_sweeps=500, rel_tol=1e-12, seed=idx)
            gap = evidence - report.elbo_trace[-1]
            assert gap >= -1e-9
            if k == 1:
                assert abs(gap) <= 1e-10
        assert time.perf_counter() - start < 60.0


def test_03_gradient_matches_finite_differences(capsys):
    with criterion(capsys, 3, "lambda gradient agrees with finite differences"):
        rng = np.random.default_rng(5150)
        corpus = random_instance(
            rng, 9, field_count=2, cardinality=3, distortion=0.3, seed=77
        )
        k = 3
        width = sum(corpus.schema.cardinalities)
        for _ in range(10):
            hp = HyperParams(k, rng.uniform(0.2, 2.0, size=width))
            state = init_state(corpus, hp, seed=int(rng.integers(1000)))
            state.phi = rng.dirichlet(np.ones(k), size=corpus.total_records)
            state.lam = rng.uniform(0.3, 5.0, size=(width, k))
            # every (row, entity) entry of the table
            np.testing.assert_allclose(
                elbo_grad_lambda(state, corpus, hp),
                central_differences(state, corpus, hp),
                rtol=1e-5,
                atol=1e-10,
            )

        # stationarity: a fresh lambda update must zero every entry
        state = init_state(corpus, hp, seed=1)
        update_phi(state, corpus, hp)
        update_lambda(state, corpus, hp)
        assert np.max(np.abs(elbo_grad_lambda(state, corpus, hp))) <= 1e-8


def test_04_pseudo_count_conservation(capsys, sweep_battery):
    with criterion(capsys, 4, "lambda mass equals prior plus record count"):
        for run in sweep_battery["runs"]:
            assert run["conservation"], "fit must report at least one sweep"
            for worst in run["conservation"]:
                assert worst <= 1e-9 * run["n"]


def test_05_closed_form_values(capsys):
    with criterion(capsys, 5, "frozen tiny-instance values reproduce"):
        schema = Schema(field_names=("f1",), field_values=(("a", "b"),))
        corpus = Corpus(
            schema=schema,
            db_sizes=(2,),
            values=np.zeros((2, 1), dtype=np.int32),
        )
        one = HyperParams.symmetric(1, 1.0, [2])
        _, report = fit(corpus, one, seed=0)
        assert report.elbo_trace[-1] == pytest.approx(math.log(1 / 3), abs=1e-10)

        two = HyperParams.symmetric(2, 1.0, [2])
        post = exact_posterior(corpus, two)
        assert post.log_evidence == pytest.approx(math.log(7 / 24), abs=1e-10)
        assert post.cocluster[0, 1] == pytest.approx(4 / 7, abs=1e-10)


def test_06_label_permutation_equivariance(capsys):
    with criterion(capsys, 6, "relabeling entities permutes the whole fit"):
        rng = np.random.default_rng(31)
        corpus = random_instance(
            rng, 40, field_count=3, cardinality=4, distortion=0.15, seed=9
        )
        k = 6
        hp = HyperParams.symmetric(k, 0.5, corpus.schema.cardinalities)
        start = init_state(corpus, hp, seed=3)
        perm = rng.permutation(k)
        state_a, report_a = fit(corpus, hp, initial_lam=start.lam, max_sweeps=15)
        state_b, report_b = fit(corpus, hp, initial_lam=start.lam[:, perm], max_sweeps=15)
        assert len(report_a.elbo_trace) == len(report_b.elbo_trace)
        for ea, eb in zip(report_a.elbo_trace, report_b.elbo_trace):
            assert abs(eb - ea) <= 1e-12 * abs(ea)
        np.testing.assert_allclose(
            reference_state(state_b, corpus).phi,
            reference_state(state_a, corpus).phi[:, perm],
            rtol=1e-9,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            state_b.lam, state_a.lam[:, perm], rtol=1e-9, atol=1e-12
        )


RECOVERY_CONFIG = GenConfig(
    entity_count=200,
    db_sizes=[300, 300],
    cardinalities=[10] * 8,
    distortion=0.02,
    seed=42,
)


def test_07_recovery_f1(capsys):
    with criterion(capsys, 7, "pairwise F1 >= 0.9 on peaked synthetic data"):
        start = time.perf_counter()
        corpus, truth = sample_dataset(RECOVERY_CONFIG)
        hp = HyperParams.symmetric(600, 0.1, corpus.schema.cardinalities)
        best = 0.0
        for seed in range(5):
            state, _ = fit(corpus, hp, seed=seed)
            score = pairwise_metrics(map_linkage(state, corpus.db_sizes), truth)
            best = max(best, score.pairwise_f1)
        assert best >= 0.9
        assert time.perf_counter() - start < 30.0


def test_08_linear_sweep_scaling(capsys):
    with criterion(capsys, 8, "per-sweep time linear in distinct records, 1e5 under 30s"):
        k, field_count, cardinality = 1000, 5, 10
        schema = Schema(
            field_names=tuple(f"f{j + 1}" for j in range(field_count)),
            field_values=(
                tuple(f"v{i + 1}" for i in range(cardinality)),
            ) * field_count,
        )
        hp = HyperParams.symmetric(k, 0.1, [cardinality] * field_count)
        sizes = [10_000, 50_000, 100_000]
        corpora = [
            Corpus(
                schema=schema,
                db_sizes=(n,),
                values=np.random.default_rng(n).integers(
                    0, cardinality, size=(n, field_count), dtype=np.int32
                ),
            )
            for n in sizes
        ]
        # CPU time of fit's own sweeps, which other processes' load does not
        # add to: the fastest sweep after the first.  Rounds run across all
        # sizes in turn, so a stretch of contention slows every size alike.
        # A sweep runs on the U distinct rows, so U is the regressor.
        times = [math.inf] * len(sizes)
        distinct = [0] * len(sizes)
        for _ in range(3):
            for i, corpus in enumerate(corpora):
                clock = []
                _, report = fit(corpus, hp, max_sweeps=2,
                                on_sweep=lambda *_: clock.append(time.process_time()))
                times[i] = min(times[i], clock[1] - clock[0])
                distinct[i] = report.distinct_records
        # R^2 of the least-squares line, the squared correlation
        assert np.corrcoef(distinct, times)[0, 1] ** 2 >= 0.98
        assert times[-1] <= 30.0


def test_10_fit_sweep_work_linear_in_rows(capsys, monkeypatch):
    with criterion(capsys, 10, "each fit sweep scores every distinct row once"):
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 64)
        run_pass, normalise, one_hot = engine._pass, engine._normalise_block, engine._one_hot
        seen = {"bounds": [], "normalised": 0, "one_hot": 0}

        def counted_pass(columns, weights, width, entity_count, step, workers=1):
            def counted_step(lo, hi, x):
                seen["bounds"].append((lo, hi))
                return step(lo, hi, x)

            return run_pass(columns, weights, width, entity_count, counted_step, workers)

        def counted_normalise(scores, out):
            seen["normalised"] += scores.shape[0]
            return normalise(scores, out)

        def counted_one_hot(*args):
            seen["one_hot"] += 1
            return one_hot(*args)

        monkeypatch.setattr(engine, "_pass", counted_pass)
        monkeypatch.setattr(engine, "_normalise_block", counted_normalise)
        monkeypatch.setattr(engine, "_one_hot", counted_one_hot)
        for n in (300, 900):
            corpus = random_instance(
                np.random.default_rng(n), n, field_count=4, cardinality=9,
                distortion=0.3, seed=n,
            )
            hp = HyperParams.symmetric(7, 0.5, corpus.schema.cardinalities)
            sweeps = []

            def on_sweep(_sweep, _value, state, out=sweeps):
                # the distinct rows each block the sweep's step got covers
                covered = np.zeros(state.argmax.size, dtype=int)
                for lo, hi in seen["bounds"]:
                    covered[lo:hi] += 1
                out.append((covered, seen["normalised"], len(seen["bounds"]),
                            seen["one_hot"]))
                seen.update(bounds=[], normalised=0, one_hot=0)

            _, report = fit(
                corpus, hp, max_sweeps=4, rel_tol=1e-300, on_sweep=on_sweep
            )
            distinct = report.distinct_records
            blocks = len(engine._blocks(distinct, hp.entity_count))
            assert distinct > 3 * 64 and blocks > 3
            assert len(sweeps) == report.sweeps_run == 4
            for covered, normalised, steps, one_hots in sweeps:
                assert np.all(covered == 1)
                assert normalised == distinct
                assert steps == one_hots == blocks


def test_09_worker_determinism(capsys, tmp_path, monkeypatch):
    with criterion(capsys, 9, "worker counts 1 and 4 give identical linkage"):
        # blocks of at most 64 rows: the 279 distinct rows of this instance
        # make 5 blocks, so --workers 4 runs blocks on pool threads
        monkeypatch.setattr(engine, "BLOCK_RECORDS", 64)
        started = []
        start = threading.Thread.start

        def count(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", count)
        data = tmp_path / "data"
        code = main(
            [
                "synth",
                "--k", str(RECOVERY_CONFIG.entity_count),
                "--db-sizes", ",".join(str(s) for s in RECOVERY_CONFIG.db_sizes),
                "--fields", str(len(RECOVERY_CONFIG.cardinalities)),
                "--cardinality", str(RECOVERY_CONFIG.cardinalities[0]),
                "--distortion", str(RECOVERY_CONFIG.distortion),
                "--seed", str(RECOVERY_CONFIG.seed),
                "--out", str(data),
            ]
        )
        assert code == 0
        outputs = []
        for workers in (1, 4):
            out = tmp_path / f"run_w{workers}"
            started.clear()
            code = main(
                [
                    "fit",
                    str(data / "db1.csv"),
                    str(data / "db2.csv"),
                    "--schema", str(data / "schema.txt"),
                    "--k", "600",
                    "--alpha", "0.1",
                    "--seed", "0",
                    "--workers", str(workers),
                    "--out", str(out),
                ]
            )
            assert code == 0
            assert bool(started) == (workers > 1)
            outputs.append((out / "linkage.csv").read_bytes())
        assert outputs[0] == outputs[1]
