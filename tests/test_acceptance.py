"""End-to-end acceptance checks for the variational linkage engine.

Each test prints a one-line ``[PASS]``/``[FAIL]`` verdict so the suite
doubles as a sign-off report:

1. per-sweep ELBO monotonicity over a randomized battery
2. final ELBO never exceeds the enumerated exact evidence
3. analytic lambda gradient vs central finite differences
4. per-field pseudo-count conservation after every lambda update
5. frozen closed-form values (tiny-instance evidence and co-clustering)
6. equivariance of the whole fit under entity relabeling
7. recovery quality on peaked synthetic data (pairwise F1)
8. linear per-sweep scaling in the number of records
9. byte-identical linkage output across worker counts
"""

import contextlib
import math
import time

import numpy as np
import pytest

from vblink.cli import main
from vblink.corpus import Corpus, Schema
from vblink.engine import (
    HyperParams,
    elbo,
    elbo_grad_lambda,
    fit,
    init_state,
    update_lambda,
    update_phi,
)
from vblink.evaluate import map_linkage, pairwise_metrics
from vblink.genmodel import GenConfig, sample_dataset
from vblink.oracle import exact_posterior


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

        def on_sweep(_sweep, _value, state, hp=hp, n=n, out=conservation):
            worst = 0.0
            for a, lam_f in zip(hp.alpha, state.lam):
                mass = float(lam_f.sum() - hp.entity_count * a.sum())
                worst = max(worst, abs(mass - n))
            out.append(worst)

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
        ]
        for idx, (k, n) in enumerate(cases):
            assert k**n <= 10**5
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
        h = 1e-5
        for _ in range(50):
            alpha = [rng.uniform(0.2, 2.0, size=c) for c in corpus.schema.cardinalities]
            hp = HyperParams(k, alpha)
            state = init_state(corpus, hp, seed=int(rng.integers(1000)))
            state.phi = rng.dirichlet(np.ones(k), size=corpus.total_records)
            state.lam = [rng.uniform(0.3, 5.0, size=(k, c)) for c in corpus.schema.cardinalities]
            kk = int(rng.integers(k))
            ff = int(rng.integers(2))
            vv = int(rng.integers(3))
            grad = elbo_grad_lambda(state, corpus, hp, kk, ff, vv)
            hi, lo = state.copy(), state.copy()
            hi.lam[ff][kk, vv] += h
            lo.lam[ff][kk, vv] -= h
            fd = (elbo(hi, corpus, hp) - elbo(lo, corpus, hp)) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-5, abs=1e-10)

        # stationarity: a fresh lambda update must zero every coordinate
        hp = HyperParams.symmetric(k, 0.5, corpus.schema.cardinalities)
        state = init_state(corpus, hp, seed=1)
        update_phi(state, corpus, hp)
        update_lambda(state, corpus, hp)
        for ff, c in enumerate(corpus.schema.cardinalities):
            for kk in range(k):
                for vv in range(c):
                    assert abs(elbo_grad_lambda(state, corpus, hp, kk, ff, vv)) <= 1e-8


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
        state_b, report_b = fit(
            corpus, hp, initial_lam=start.permute_entities(perm).lam, max_sweeps=15
        )
        assert len(report_a.elbo_trace) == len(report_b.elbo_trace)
        for ea, eb in zip(report_a.elbo_trace, report_b.elbo_trace):
            assert abs(eb - ea) <= 1e-12 * abs(ea)
        np.testing.assert_allclose(
            state_b.phi, state_a.phi[:, perm], rtol=1e-9, atol=1e-12
        )
        for f in range(corpus.schema.field_count):
            np.testing.assert_allclose(
                state_b.lam[f], state_a.lam[f][perm], rtol=1e-9, atol=1e-12
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
    with criterion(capsys, 8, "per-sweep time linear in records, 1e5 under 30s"):
        k, field_count, cardinality = 1000, 5, 10
        schema = Schema(
            field_names=tuple(f"f{j + 1}" for j in range(field_count)),
            field_values=(
                tuple(f"v{i + 1}" for i in range(cardinality)),
            ) * field_count,
        )
        hp = HyperParams.symmetric(k, 0.1, [cardinality] * field_count)
        sizes = [10_000, 50_000, 100_000]
        times = []
        for n in sizes:
            rng = np.random.default_rng(n)
            corpus = Corpus(
                schema=schema,
                db_sizes=(n,),
                values=rng.integers(
                    0, cardinality, size=(n, field_count), dtype=np.int32
                ),
            )
            state = init_state(corpus, hp, seed=0)
            best = math.inf
            for _ in range(2):
                tic = time.perf_counter()
                update_phi(state, corpus, hp)
                update_lambda(state, corpus, hp)
                elbo(state, corpus, hp)
                best = min(best, time.perf_counter() - tic)
            times.append(best)
            del state, corpus
        slope, intercept = np.polyfit(sizes, times, 1)
        predicted = slope * np.asarray(sizes) + intercept
        residual = np.sum((np.asarray(times) - predicted) ** 2)
        total = np.sum((np.asarray(times) - np.mean(times)) ** 2)
        r_squared = 1.0 - residual / total
        assert r_squared >= 0.98
        assert times[-1] <= 30.0


def test_09_worker_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "worker counts 1 and 4 give identical linkage"):
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
            outputs.append((out / "linkage.csv").read_bytes())
        assert outputs[0] == outputs[1]
