import csv
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import vblink.cli as cli
import vblink.corpus as corpus_module
import vblink.engine as engine
import vblink.evaluate as evaluate
from vblink.cli import main
from vblink.corpus import (
    Corpus,
    Schema,
    load_databases,
    read_schema_file,
    write_databases,
)
from vblink.engine import HyperParams, NumericalFailureError, fit, load_state
from vblink.genmodel import GroundTruth, write_ground_truth


def child_env():
    """The environment of a child Python that imports this checkout's
    vblink, with block-buffered streams: PYTHONUNBUFFERED is dropped, so a
    child that ends without flushing loses what it printed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def vblink_child(*args):
    """``python -m vblink.cli`` with ``args``, its streams piped."""
    return subprocess.run(
        [sys.executable, "-m", "vblink.cli", *map(str, args)],
        env=child_env(),
        capture_output=True,
        text=True,
    )


def write_tiny_db(tmp_path, rows=("red", "red"), field="color"):
    db = tmp_path / "db.csv"
    db.write_text(f"{field}\n" + "".join(f"{r}\n" for r in rows))
    schema = tmp_path / "schema.txt"
    schema.write_text(f"{field}\tred,blue\n")
    return str(db), str(schema)


def run_synth(out_dir, seed=0, distortion="0.05"):
    return main(
        [
            "synth",
            "--k",
            "4",
            "--db-sizes",
            "8,6",
            "--fields",
            "3",
            "--cardinality",
            "5",
            "--distortion",
            distortion,
            "--seed",
            str(seed),
            "--out",
            str(out_dir),
        ]
    )


class TestSynth:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "data"
        assert run_synth(out) == 0
        for name in (
            "db1.csv",
            "db2.csv",
            "schema.txt",
            "truth.csv",
            "truth_latent.csv",
            "manifest.json",
        ):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["db_sizes"] == [8, 6]
        assert "version" in manifest
        assert manifest["numpy"] == np.__version__
        # synth runs no scipy, so its manifest names none, though this
        # process has imported it
        assert "scipy" in sys.modules and "scipy" not in manifest
        assert manifest["nproc"] == os.cpu_count()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_synth(a) == 0
        assert run_synth(b) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_synth(a, seed=0)
        run_synth(b, seed=1)
        assert (a / "db1.csv").read_bytes() != (b / "db1.csv").read_bytes()

    def test_rejects_distortion_outside_unit_interval(self, tmp_path, capsys):
        assert run_synth(tmp_path / "x", distortion="1.5") == 2
        assert "error:" in capsys.readouterr().err

    def test_one_valued_field_takes_only_zero_distortion(self, tmp_path, capsys):
        def synth(distortion, out):
            return main(
                ["synth", "--k", "2", "--db-sizes", "3", "--fields", "2",
                 "--cardinality", "1", "--distortion", distortion, "--out", str(out)]
            )

        assert synth("0", tmp_path / "ok") == 0
        assert (tmp_path / "ok" / "db1.csv").read_text() == "f1,f2\n" + "v1,v1\n" * 3
        assert synth("0.1", tmp_path / "bad") == 2
        assert "distortion must be 0 for a 1-valued field" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("fields", ["0", "-2"])
    def test_rejects_no_fields(self, tmp_path, capsys, fields):
        out = tmp_path / "x"
        code = main(
            ["synth", "--k", "2", "--db-sizes", "4", f"--fields={fields}",
             "--cardinality", "2", "--distortion", "0.1", "--out", str(out)]
        )
        assert code == 2
        assert "error: at least one field is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_rejects_non_finite_alpha(self, tmp_path, capsys, alpha):
        out = tmp_path / "x"
        code = main(
            ["synth", "--k", "2", "--db-sizes", "4", "--fields", "1",
             "--cardinality", "2", "--alpha", alpha, "--out", str(out)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_both_noise_modes(self, tmp_path):
        code = main(
            [
                "synth",
                "--k",
                "2",
                "--db-sizes",
                "4",
                "--fields",
                "1",
                "--cardinality",
                "2",
                "--distortion",
                "0.1",
                "--alpha",
                "1.0",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_empty_first_database_runs_end_to_end(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(
            ["synth", "--k", "2", "--db-sizes", "0,3", "--fields", "2",
             "--cardinality", "3", "--distortion", "0.1", "--out", str(data)]
        ) == 0
        assert (data / "db1.csv").read_text() == "f1,f2\n"
        assert main(
            ["fit", str(data / "db1.csv"), str(data / "db2.csv"), "--schema",
             str(data / "schema.txt"), "--out", str(run)]
        ) == 0
        assert main(
            ["eval", str(run / "linkage.csv"), str(data / "truth.csv"),
             "--out", str(tmp_path / "score")]
        ) == 0

    def test_negative_db_size_is_usage_error(self, tmp_path, capsys):
        """--db-sizes parses integers; GenConfig alone checks their range."""
        out = tmp_path / "x"
        base = ["synth", "--k", "2", "--fields", "1", "--cardinality", "2",
                "--distortion", "0.1", "--out", str(out)]
        assert main([*base, "--db-sizes=-1,3"]) == 2
        assert "nonnegative" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:  # argparse reads -1,3 as a flag
            main([*base, "--db-sizes", "-1,3"])
        assert err.value.code == 2
        assert not out.exists()

    def test_out_is_required(self, tmp_path):
        code = main(
            [
                "synth",
                "--k",
                "2",
                "--db-sizes",
                "4",
                "--fields",
                "1",
                "--cardinality",
                "2",
                "--distortion",
                "0.1",
            ]
        )
        assert code == 2


class TestFit:
    def test_known_tiny_instance(self, tmp_path, capsys):
        db, schema = write_tiny_db(tmp_path)
        out = tmp_path / "run"
        code = main(
            [
                "fit",
                db,
                "--schema",
                schema,
                "--k",
                "1",
                "--alpha",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "sweep,elbo"
        final = float(rows[-1].split(",")[1])
        assert final == pytest.approx(math.log(1 / 3), abs=1e-12)
        linkage = (out / "linkage.csv").read_text().splitlines()
        assert linkage == [
            "db,record,entity,max_prob",
            "1,1,1,1.0",
            "1,2,1,1.0",
        ]

    def test_default_entity_count_is_record_count(self, tmp_path):
        db, schema = write_tiny_db(tmp_path, rows=("red", "blue", "red"))
        out = tmp_path / "run"
        assert main(["fit", db, "--schema", schema, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["k"] == 3
        assert manifest["alpha"] == cli.DEFAULT_ALPHA == 0.1
        _, header = load_state(out / "state.npz")
        assert header["entity_count"] == 3

    def test_state_holds_lambda_without_phi(self, tmp_path):
        db, schema = write_tiny_db(tmp_path, rows=("red", "blue", "red"))
        out = tmp_path / "run"
        assert main(["fit", db, "--schema", schema, "--out", str(out)]) == 0
        with np.load(out / "state.npz") as data:
            assert data.files == [
                "version", "db_sizes", "cardinalities", "entity_count", "alpha", "lam",
            ]
        lam, header = load_state(out / "state.npz")
        assert header["db_sizes"] == (3,)
        assert lam.shape == (2, 3)
        # the prior mass 3 x 2 x 0.1 plus one count per record
        assert lam.sum() == pytest.approx(3.6, rel=1e-12)

    def test_entities_break_ties_at_the_smallest_code(self, tmp_path):
        # one entity holds one "blue" and one "red": lambda ties, and "red"
        # comes first in the schema although "blue" comes first in the file
        db, schema = write_tiny_db(tmp_path, rows=("blue", "red"))
        out = tmp_path / "run"
        assert main(["fit", db, "--schema", schema, "--k", "1", "--out", str(out)]) == 0
        assert (out / "entities.csv").read_bytes() == (
            b"entity,field,value\r\n1,color,red\r\n"
        )

    def test_entities_are_the_linked_entities_at_their_modes(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data)
        schema = read_schema_file(data / "schema.txt")
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"run{workers}"
            assert main(
                ["fit", str(data / "db1.csv"), str(data / "db2.csv"), "--schema",
                 str(data / "schema.txt"), "--workers", workers, "--out", str(out)]
            ) == 0
            with open(out / "entities.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            lam, _ = load_state(out / "state.npz")
            fields = np.split(lam, np.cumsum(schema.cardinalities)[:-1])
            linked = np.unique(evaluate.read_linkage(out / "linkage.csv").map_entity)
            assert rows == [
                ["entity", "field", "value"],
                *[
                    [str(k), name, schema.value(f, int(np.argmax(fields[f][:, k - 1])))]
                    for k in linked.tolist()
                    for f, name in enumerate(schema.field_names)
                ],
            ]
            assert main(
                ["eval", str(out / "linkage.csv"), str(data / "truth.csv"),
                 "--out", str(out / "score")]
            ) == 0
            score = json.loads((out / "score" / "score.json").read_text())
            assert score["estimated_entity_count"] == linked.size > 1
            written.append((out / "entities.csv").read_bytes())
        assert written[0] == written[1]

    def test_entities_are_the_linkage_labels_and_the_eval_count(self, tmp_path):
        # K = 10 above synth's 4 true entities, so lam has columns that no
        # record takes: entities.csv, linkage.csv and eval must agree on
        # which entities were resolved
        data, out = tmp_path / "data", tmp_path / "run"
        run_synth(data)
        assert main(
            ["fit", str(data / "db1.csv"), str(data / "db2.csv"), "--schema",
             str(data / "schema.txt"), "--k", "10", "--out", str(out)]
        ) in (0, 4)
        with open(out / "entities.csv", newline="", encoding="utf-8") as fh:
            ids = {int(row["entity"]) for row in csv.DictReader(fh)}
        labels = set(evaluate.read_linkage(out / "linkage.csv").map_entity.tolist())
        assert ids == labels
        assert 1 < len(ids) < 10
        assert main(
            ["eval", str(out / "linkage.csv"), str(data / "truth.csv"),
             "--out", str(out / "score")]
        ) == 0
        score = json.loads((out / "score" / "score.json").read_text())
        assert score["estimated_entity_count"] == len(ids)

    def test_sweep_limit_reports_non_convergence(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_synth(data)
        out = tmp_path / "run"
        code = main(
            [
                "fit",
                str(data / "db1.csv"),
                str(data / "db2.csv"),
                "--schema",
                str(data / "schema.txt"),
                "--max-sweeps",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 4
        assert "without meeting" in capsys.readouterr().err
        assert len((out / "trace.csv").read_text().splitlines()) == 2

    def test_elbo_decrease_warns(self, tmp_path, capsys, monkeypatch):
        values = iter([-3.0, -2.0, -2.5, -2.5])
        monkeypatch.setattr(engine, "_sweep", lambda *_args: next(values))
        db, schema = write_tiny_db(tmp_path)
        out = str(tmp_path / "run")
        assert main(["fit", db, "--schema", schema, "--out", out]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: the ELBO fell beyond roundoff in 1 of 4 sweeps"]

    def test_no_warning_without_decrease(self, tmp_path, capsys):
        db, schema = write_tiny_db(tmp_path, rows=("red", "blue", "red"))
        out = str(tmp_path / "run")
        assert main(["fit", db, "--schema", schema, "--out", out]) == 0
        assert capsys.readouterr().err == ""

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def explode(*_args, **_kwargs):
            raise NumericalFailureError(3, "synthetic breakdown")

        monkeypatch.setattr(cli, "fit", explode)
        db, schema = write_tiny_db(tmp_path)
        code = main(
            ["fit", db, "--schema", schema, "--out", str(tmp_path / "run")]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def exhaust(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "fit", exhaust)
        db, schema = write_tiny_db(tmp_path)
        code = main(
            ["fit", db, "--schema", schema, "--out", str(tmp_path / "run")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: out of memory: the fit's (sum of field cardinalities) x K "
            "tables and one record block per worker did not fit; try a smaller "
            "--k or fewer --workers\n"
        )

    @pytest.mark.parametrize(
        "command, patched",
        [(["synth", "--k", "2", "--db-sizes", "3", "--fields", "1",
           "--cardinality", "2", "--distortion", "0.1"], "sample_dataset"),
         (["eval", "linkage.csv", "truth.csv"], "read_linkage")],
        ids=["synth", "eval"],
    )
    def test_memory_error_outside_a_fit_gives_no_fit_advice(
        self, tmp_path, capsys, monkeypatch, command, patched
    ):
        def exhaust(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, patched, exhaust)
        assert main([*command, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_usage_error(self, tmp_path, capsys, alpha):
        db, schema = write_tiny_db(tmp_path)
        code = main(
            ["fit", db, "--schema", schema, "--alpha", alpha,
             "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_alpha_file_is_usage_error(self, tmp_path, capsys):
        db, schema = write_tiny_db(tmp_path)
        alpha_file = tmp_path / "alpha.txt"
        alpha_file.write_text("0.5,nan\n")
        code = main(
            ["fit", db, "--schema", schema, "--alpha-file", str(alpha_file),
             "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_database_file(self, tmp_path):
        code = main(["fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_alpha_and_alpha_file_conflict(self, tmp_path):
        db, schema = write_tiny_db(tmp_path)
        alpha_file = tmp_path / "alpha.txt"
        alpha_file.write_text("0.5,0.5\n")
        code = main(
            [
                "fit",
                db,
                "--schema",
                schema,
                "--alpha",
                "0.1",
                "--alpha-file",
                str(alpha_file),
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 2

    def test_alpha_file_round_trips_into_state(self, tmp_path):
        db, schema = tmp_path / "db.csv", tmp_path / "schema.txt"
        db.write_text("color,size\nred,s\nblue,l\n")
        schema.write_text("color\tred,blue\nsize\ts,m,l\n")
        alpha_file = tmp_path / "alpha.txt"
        alpha_file.write_text("# per-field vectors\n0.5,2.0\n0.3,0.7,1.1\n")
        out = tmp_path / "run"
        code = main(
            [
                "fit",
                str(db),
                "--schema",
                str(schema),
                "--k",
                "1",
                "--alpha-file",
                str(alpha_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header = load_state(out / "state.npz")
        # the per-field lines, stacked in the rows of lam
        np.testing.assert_array_equal(header["alpha"], [0.5, 2.0, 0.3, 0.7, 1.1])

    def test_bad_option_values(self, tmp_path, monkeypatch):
        def enumerate_nothing(*_args, **_kwargs):
            raise AssertionError("oracle-check enumerated with a bad option")

        monkeypatch.setattr(cli, "exact_posterior", enumerate_nothing)
        db, schema = write_tiny_db(tmp_path)
        out = tmp_path / "run"
        base = ["fit", db, "--schema", schema, "--out", str(out)]
        assert main(base + ["--max-sweeps", "0"]) == 2
        assert main(base + ["--tol", "0"]) == 2
        assert main(base + ["--workers", "0"]) == 2
        assert main(base + ["--k", "0"]) == 2
        for flags in (["--max-sweeps", "0"], ["--tol", "0"], ["--workers", "0"],
                      ["--k", "0"]):
            assert main(["oracle-check", *base[1:], *flags]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "oracle-check"])
    def test_entity_count_beyond_intp_is_named(self, tmp_path, capsys, command):
        db, schema = write_tiny_db(tmp_path)
        out = tmp_path / "run"
        k = "99999999999999999999"
        assert main([command, db, "--schema", schema, "--k", k, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: entity_count must be at most {np.iinfo(np.intp).max}, not {k}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "oracle-check", "synth"])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        # numpy's own refusal, "expected non-negative integer", names neither
        db, schema = write_tiny_db(tmp_path)
        out = tmp_path / "run"
        argv = {
            "fit": ["fit", db, "--schema", schema],
            "oracle-check": ["oracle-check", db, "--schema", schema],
            "synth": ["synth", "--k", "2", "--db-sizes", "3,3", "--fields", "2",
                      "--cardinality", "3", "--distortion", "0.1"],
        }[command]
        assert main([*argv, "--seed", "-5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"
        assert not out.exists()


def csv_writer_bytes(path, rows):
    """The bytes a csv.writer writes for ``rows``, one row per call."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


class TestOutputWriters:
    """Every CSV file the package writes is byte-identical to a csv.writer
    that writes one row per line."""

    def test_match_csv_writer_with_commas_and_quotes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_module, "WRITE_CHUNK", 5)  # ends inside a db
        schemas = [
            Schema(
                ("name, full", 'say "hi"', "", "plain"),
                (("a,b", '"q"', "x"), ('y"', ""), ("1", "2"), ("\n", " z ", "w,")),
            ),
            # Alone on its line, an empty cell is written "".
            Schema(("",), (("", "a,b", "c"),)),
            Schema((), ()),  # every line is empty
        ]
        for i, schema in enumerate(schemas):
            out = tmp_path / str(i)
            out.mkdir()
            rng = np.random.default_rng(5)
            values = np.empty((11, schema.field_count), dtype=np.int64)
            for f, v in enumerate(schema.cardinalities):
                values[:, f] = rng.integers(0, v, size=11)
            corpus = Corpus(schema=schema, db_sizes=(7, 4), values=values)
            truth = GroundTruth(
                schema=schema,
                db_sizes=corpus.db_sizes,
                assignments=rng.integers(0, 3, size=11),
                latent_values=values[[0, 5, 9]],
            )
            hp = HyperParams.symmetric(3, 0.5, schema.cardinalities)
            state, _ = fit(corpus, hp, max_sweeps=3, seed=1)
            linkage = evaluate.map_linkage(state, corpus.db_sizes)
            fields = np.split(state.lam, np.cumsum(schema.cardinalities, dtype=int)[:-1])

            write_databases(corpus, [out / "db1.csv", out / "db2.csv"])
            write_ground_truth(truth, out / "truth.csv")
            # fit on this corpus writes linkage.csv and entities.csv; only
            # the zero-field fit converges within 3 sweeps
            monkeypatch.setattr(cli, "load_databases", lambda *_a, **_k: corpus)
            assert main(
                ["fit", "db1.csv", "--k", "3", "--alpha", "0.5", "--max-sweeps",
                 "3", "--seed", "1", "--out", str(out)]
            ) == (0 if i == 2 else 4)

            records = [(1, r) for r in range(1, 8)] + [(2, r) for r in range(1, 5)]
            raw = [
                [schema.value(f, c) for f, c in enumerate(row)]
                for row in values.tolist()
            ]
            want = {
                "db1.csv": [schema.field_names, *raw[:7]],
                "db2.csv": [schema.field_names, *raw[7:]],
                "truth.csv": [
                    ["db", "record", "entity"],
                    *[[d, r, int(a) + 1] for (d, r), a in zip(records, truth.assignments)],
                ],
                "truth_latent.csv": [
                    ["entity", "field", "value"],
                    *[
                        [k + 1, name, schema.value(f, int(truth.latent_values[k, f]))]
                        for k in range(3)
                        for f, name in enumerate(schema.field_names)
                    ],
                ],
                "linkage.csv": [
                    ["db", "record", "entity", "max_prob"],
                    *[
                        [d, r, int(ent), repr(float(prob))]
                        for (d, r), ent, prob in zip(
                            records, linkage.map_entity, linkage.max_prob
                        )
                    ],
                ],
                "entities.csv": [
                    ["entity", "field", "value"],
                    *[
                        [k, name, schema.value(f, int(np.argmax(fields[f][:, k - 1])))]
                        for k in np.unique(linkage.map_entity).tolist()
                        for f, name in enumerate(schema.field_names)
                    ],
                ],
            }
            for name, rows in want.items():
                expected = csv_writer_bytes(out / f"want_{name}", rows)
                assert (out / name).read_bytes() == expected, (i, name)
        assert b'"name, full"' in (tmp_path / "0" / "entities.csv").read_bytes()
        assert (tmp_path / "2" / "entities.csv").read_bytes() == b"entity,field,value\r\n"
        assert (tmp_path / "1" / "db1.csv").read_bytes().startswith(b'""\r\n')


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        db, schema = write_tiny_db(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# defaults\nk=1\nseed=7\nunrelated-key=ignored\n"
            "tol=1e-6\nworkers=2\nalpha=0.5\n"
            "func=ignored\nconfig=ignored.cfg\ndatabases=ignored.csv\n"
        )
        out = tmp_path / "run"
        code = main(
            ["fit", db, "--schema", schema, "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["k"] == 1
        assert manifest["seed"] == 7
        assert manifest["tol"] == 1e-6
        assert manifest["workers"] == 2
        assert manifest["alpha"] == 0.5
        assert manifest["databases"] == [db]
        assert "func" not in manifest and "config" not in manifest

    def test_explicit_flag_beats_config(self, tmp_path):
        db, schema = write_tiny_db(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=1\n")
        out = tmp_path / "run"
        main(
            [
                "fit",
                db,
                "--schema",
                schema,
                "--config",
                str(cfg),
                "--k",
                "2",
                "--out",
                str(out),
            ]
        )
        assert json.loads((out / "manifest.json").read_text())["k"] == 2

    def test_malformed_config_line(self, tmp_path):
        db, schema = write_tiny_db(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no separator\n")
        code = main(
            [
                "fit",
                db,
                "--schema",
                schema,
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 2


    def test_mistyped_value_fails_like_the_flag(self, tmp_path, capsys):
        db, schema = write_tiny_db(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-sweeps=abc\n")
        out = tmp_path / "run"
        errors = []
        for extra in (["--config", str(cfg)], ["--max-sweeps", "abc"]):
            with pytest.raises(SystemExit) as err:
                main(["fit", db, "--schema", schema, "--out", str(out), *extra])
            assert err.value.code == 2
            errors.append(capsys.readouterr().err.splitlines()[-1])
        assert errors[0] == errors[1]
        assert "--max-sweeps: invalid int value: 'abc'" in errors[0]
        assert not out.exists()


class TestEval:
    def test_perfect_linkage(self, tmp_path, capsys):
        linkage = tmp_path / "linkage.csv"
        linkage.write_text(
            "db,record,entity,max_prob\n1,1,1,0.9\n1,2,1,0.8\n2,1,2,0.7\n"
        )
        truth = tmp_path / "truth.csv"
        truth.write_text("db,record,entity\n1,1,4\n1,2,4\n2,1,9\n")
        out = tmp_path / "scores"
        assert main(["eval", str(linkage), str(truth), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "pairwise_f1=1.0" in printed
        score = json.loads((out / "score.json").read_text())
        assert score["pairwise_f1"] == 1.0
        assert score["true_entity_count"] == 2

    def test_missing_truth_file(self, tmp_path):
        linkage = tmp_path / "linkage.csv"
        linkage.write_text("db,record,entity,max_prob\n1,1,1,1.0\n")
        code = main(
            [
                "eval",
                str(linkage),
                str(tmp_path / "absent.csv"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def test_mismatched_record_sets(self, tmp_path, capsys):
        linkage = tmp_path / "linkage.csv"
        linkage.write_text("db,record,entity,max_prob\n1,1,1,1.0\n1,2,1,1.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("db,record,entity\n1,1,1\n")
        code = main(
            ["eval", str(linkage), str(truth), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_entity_id_beyond_int64(self, tmp_path, capsys):
        linkage = tmp_path / "linkage.csv"
        linkage.write_text(
            "db,record,entity,max_prob\n1,1,99999999999999999999,1.0\n"
        )
        truth = tmp_path / "truth.csv"
        truth.write_text("db,record,entity\n1,1,1\n")
        code = main(
            ["eval", str(linkage), str(truth), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


# One character more than csv's field size limit, which the call reads
# without changing it.
LONG_CELL = b"x" * (csv.field_size_limit() + 1)


def run_on_bad_file(tmp_path, name, text):
    """Write ``text`` to the input ``name`` beside sound ones, run the
    command that reads it, assert it exits 2 and return the file's path."""
    db, schema = write_tiny_db(tmp_path)
    linkage = tmp_path / "linkage.csv"
    linkage.write_text("db,record,entity,max_prob\n1,1,1,1.0\n1,2,1,1.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("db,record,entity\n1,1,1\n1,2,1\n")
    bad = tmp_path / name
    bad.write_bytes(text)
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "db.csv": ["fit", db, "--k", "2", *out],
        "schema.txt": ["fit", db, "--schema", schema, *out],
        "alpha.txt": ["fit", db, "--schema", schema, "--alpha-file", str(bad), *out],
        "config.txt": ["fit", db, "--schema", schema, "--config", str(bad), *out],
        "linkage.csv": ["eval", str(linkage), str(truth), *out],
        "truth.csv": ["eval", str(linkage), str(truth), *out],
    }[name]
    assert main(argv) == 2
    return bad


class TestInputErrors:
    """A file that cannot be read as its format says exits 2, naming the
    file and its line or row."""

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("db.csv", b"color\nred\nbl\xffue\n", 3),
            ("db.csv", b"col\xffor\nred\n", 1),  # in the header
            ("schema.txt", b"color\tred,bl\xffue\n", 1),
            ("alpha.txt", b"0.5,0.5\n0.\xff5,0.5\n", 2),
            ("config.txt", b"k=2\nseed=\xff\n", 2),
            ("linkage.csv", b"db,record,entity,max_prob\n1,1,1,1.0\n1,2,1,\xff\n", 3),
            ("truth.csv", b"db,record,entity\n1,1,1\n1,2,\xff\n", 3),
        ],
        ids=["database", "header", "schema", "alpha-file", "config",
             "linkage", "truth"],
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, capsys, name, text, line):
        bad = run_on_bad_file(tmp_path, name, text)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line {line}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("db.csv", b"color\nred\n" + LONG_CELL + b"\n", 3),
            ("db.csv", LONG_CELL + b"\nred\n", 1),  # in the header
            ("schema.txt", b"color\tred," + LONG_CELL + b"\n", 1),
            ("linkage.csv", b"db,record,entity,max_prob\n1,1,1,1.0\n1,2,1," + LONG_CELL + b"\n", 3),
            ("truth.csv", b"db,record,entity\n1,1,1\n1,2," + LONG_CELL + b"\n", 3),
        ],
        ids=["database", "header", "schema", "linkage", "truth"],
    )
    def test_cell_over_the_csv_field_limit(self, tmp_path, capsys, name, text, line):
        bad = run_on_bad_file(tmp_path, name, text)
        assert capsys.readouterr().err == (
            f"error: {bad}: line {line}: field larger than field limit "
            f"({csv.field_size_limit()})\n"
        )

    def test_alpha_file_number_names_its_line(self, tmp_path, capsys):
        db, schema = write_tiny_db(tmp_path)
        alpha_file = tmp_path / "alpha.txt"
        alpha_file.write_text("# red, blue\n0.1 0.2\n")
        code = main(
            ["fit", db, "--schema", schema, "--alpha-file", str(alpha_file),
             "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {alpha_file}: line 2: could not convert string to float: "
            "'0.1 0.2'\n"
        )

    def test_alpha_file_of_the_wrong_shape_is_named(self, tmp_path, capsys):
        db, schema = write_tiny_db(tmp_path)
        alpha_file = tmp_path / "alpha.txt"
        alpha_file.write_text("0.1,0.2,0.3\n")
        code = main(
            ["fit", db, "--schema", schema, "--alpha-file", str(alpha_file),
             "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {alpha_file}: ")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,1,1,1.0\n1,2,0,1.0\n", "row 2 has entity 0; entity ids are 1-based"),
            ("1,1,1,nan\n", "row 1 has max_prob nan; max_prob must lie in [0, 1]"),
            ("1,1,1,1.0\n1,2,1,2.0\n", "row 2 has max_prob 2.0; max_prob must lie in [0, 1]"),
            ("1,1,1,-0.5\n", "row 1 has max_prob -0.5; max_prob must lie in [0, 1]"),
        ],
        ids=["entity-0", "nan", "above-1", "below-0"],
    )
    def test_linkage_values_name_their_row(self, tmp_path, capsys, rows, message):
        linkage = tmp_path / "linkage.csv"
        linkage.write_text("db,record,entity,max_prob\n" + rows)
        truth = tmp_path / "truth.csv"  # eval reads the linkage first
        truth.write_text("db,record,entity\n1,1,1\n1,2,1\n")
        code = main(["eval", str(linkage), str(truth), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {linkage}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_truth_label_names_its_row(self, tmp_path, capsys):
        linkage = tmp_path / "linkage.csv"
        linkage.write_text("db,record,entity,max_prob\n1,1,1,1.0\n1,2,1,1.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("db,record,entity\n1,1,1\n1,2,0\n")
        code = main(["eval", str(linkage), str(truth), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {truth}: row 2 has entity 0; entity ids are 1-based\n"
        )


def plain(value):
    """A reader's result as lists, dicts and scalars, so == compares it."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: plain(v) for k, v in vars(value).items()}
    return value


class TestByteOrderMark:
    """A file that an editor saved with a UTF-8 byte order mark reads
    exactly as the same file without one."""

    @pytest.mark.parametrize(
        "text, read",
        [
            ("max-sweeps=2\nk=1\n", lambda path: cli._config_defaults(
                cli.build_parser().parse_args(["fit", "db.csv"]).subparser, path)),
            ("0.5,2.0\n", cli._read_alpha_file),
            ("color\tred,blue\n", read_schema_file),
            ("color,size\nred,big\nblue,big\n", lambda path: load_databases([path])),
            ("db,record,entity,max_prob\n1,1,1,1.0\n1,2,1,0.5\n", evaluate.read_linkage),
        ],
        ids=["config", "alpha-file", "schema", "database", "linkage"],
    )
    def test_reads_as_without_one(self, tmp_path, text, read):
        path, marked = tmp_path / "plain", tmp_path / "marked"
        path.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert plain(read(str(marked))) == plain(read(str(path)))

    def test_first_config_key_is_applied(self, tmp_path):
        # the key read as "\ufeffmax-sweeps" named no flag and was ignored
        db, schema = write_tiny_db(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeffmax-sweeps=2\n", encoding="utf-8")
        out = tmp_path / "run"
        code = main(["fit", db, "--schema", schema, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 4)
        assert json.loads((out / "manifest.json").read_text())["max_sweeps"] == 2


class TestAlphaRange:
    """An alpha whose digamma or ln Gamma overflows is refused before the
    first sweep, as a usage error that names --alpha or the alpha file and
    the field, never a numerical failure."""

    @pytest.mark.parametrize("command", ["fit", "oracle-check"])
    @pytest.mark.parametrize("alpha", ["1e307", "1e308", "1e-320"])
    def test_overflowing_alpha_is_usage_error(self, tmp_path, capsys, command, alpha):
        db, schema = write_tiny_db(tmp_path)
        code = main([command, db, "--schema", schema, "--k", "2", "--alpha", alpha,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --alpha {float(alpha)!r}: the alpha of field 'color' is out "
            "of range: digamma or ln Gamma of one of its entries, or of its sum "
            "plus the 2 records, is not finite\n"
        )
        if command == "fit":  # only the header of the trace was written
            assert (tmp_path / "run" / "trace.csv").read_text() == "sweep,elbo\n"
        else:
            assert not (tmp_path / "run").exists()

    def test_alpha_file_names_the_field(self, tmp_path, capsys):
        db = tmp_path / "db.csv"
        db.write_text("color,size\nred,big\nblue,small\n")
        alpha_file = tmp_path / "alpha.txt"
        alpha_file.write_text("0.5,0.5\n1e-320,0.5\n")
        code = main(
            ["fit", str(db), "--alpha-file", str(alpha_file),
             "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {alpha_file}: the alpha of field 'size' is out of range: "
        )

    @pytest.mark.parametrize("command", ["fit", "oracle-check"])
    @pytest.mark.parametrize("alpha", ["1e-300", "1e300"])
    def test_extreme_but_bounded_alpha_runs(self, tmp_path, command, alpha):
        db, schema = write_tiny_db(tmp_path)
        code = main([command, db, "--schema", schema, "--k", "2", "--alpha", alpha,
                     "--max-sweeps", "5", "--out", str(tmp_path / "run")])
        assert code in (0, 4)

    def test_synth_refuses_an_alpha_whose_field_sum_overflows(self, tmp_path, capsys):
        def synth(alpha, out):
            return main(["synth", "--k", "2", "--db-sizes", "3,3", "--fields", "2",
                         "--cardinality", "3", "--alpha", alpha, "--out", str(out)])

        assert synth("1e307", tmp_path / "runs") == 0  # 3 values sum to 3e307
        assert synth("1e308", tmp_path / "refused") == 2
        assert capsys.readouterr().err == (
            "error: dirichlet_alpha 1e+308 is too large: the 3 concentrations "
            "of field 0 sum past the largest float\n"
        )
        assert not (tmp_path / "refused").exists()


class TestOracleCheck:
    def test_bound_holds_on_tiny_instance(self, tmp_path, capsys):
        db, schema = write_tiny_db(tmp_path, rows=("red", "red", "blue"))
        out = tmp_path / "check"
        code = main(
            [
                "oracle-check",
                db,
                "--schema",
                schema,
                "--k",
                "2",
                "--alpha",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["gap"] >= -1e-9
        assert 0.0 <= report["max_cocluster_discrepancy"] <= 1.0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("exact_log_evidence=") for line in lines)
        assert any(line.startswith("gap=") for line in lines)

    def test_default_k_is_the_record_count(self, tmp_path):
        # K = N = 10: 10^10 labelled assignments, one sum over set partitions
        db, schema = write_tiny_db(tmp_path, rows=("red", "blue", "red") * 3 + ("blue",))
        out = tmp_path / "check"
        assert main(["oracle-check", db, "--schema", schema, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["k"] == 10
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["gap"] >= -1e-9

    def test_enumeration_budget_refusal(self, tmp_path):
        rows = ["red"] * 30
        db, schema = write_tiny_db(tmp_path, rows=rows)
        code = main(
            [
                "oracle-check",
                db,
                "--schema",
                schema,
                "--k",
                "4",
                "--out",
                str(tmp_path / "check"),
            ]
        )
        assert code == 2

    def test_bound_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        def fake_exact(corpus, hp):
            n = corpus.total_records
            return SimpleNamespace(
                log_evidence=-1e6, cocluster=np.zeros((n, n))
            )

        monkeypatch.setattr(cli, "exact_posterior", fake_exact)
        db, schema = write_tiny_db(tmp_path)
        code = main(
            [
                "oracle-check",
                db,
                "--schema",
                schema,
                "--k",
                "1",
                "--alpha",
                "1.0",
                "--out",
                str(tmp_path / "check"),
            ]
        )
        assert code == 5
        assert "bound violated" in capsys.readouterr().err


class TestManifest:
    def test_outputs_are_exactly_the_files_written(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        score, check = tmp_path / "score", tmp_path / "check"
        assert run_synth(data) == 0
        assert main(
            ["fit", str(data / "db1.csv"), str(data / "db2.csv"), "--schema",
             str(data / "schema.txt"), "--out", str(run)]
        ) == 0
        assert main(
            ["eval", str(run / "linkage.csv"), str(data / "truth.csv"),
             "--out", str(score)]
        ) == 0
        db, schema = write_tiny_db(tmp_path)
        assert main(
            ["oracle-check", db, "--schema", schema, "--k", "2", "--out", str(check)]
        ) == 0
        for out in (data, run, score, check):
            manifest = json.loads((out / "manifest.json").read_text())
            outputs = manifest["outputs"]
            assert sorted(outputs) == sorted(p.name for p in out.iterdir()), out.name
            assert manifest["numpy"] == np.__version__, out.name
            # the scipy version of the commands that run scipy, and only those
            if out in (run, check):
                assert manifest["scipy"] == scipy.__version__, out.name
            else:
                assert "scipy" not in manifest, out.name


class TestWorkers:
    def test_worker_counts_write_identical_files(self, tmp_path, monkeypatch):
        # Blocks of 2 rows, at least 3 of them: --workers 1 runs every block
        # on the calling thread, and 2 and 4 start pool threads, yet every
        # count writes the same files; the manifests differ only in workers.
        def refuse(_thread):
            raise AssertionError("a thread was started")

        started = []
        start = threading.Thread.start

        def count(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(engine, "BLOCK_RECORDS", 2)
        data = tmp_path / "data"
        assert run_synth(data) == 0
        dbs = [str(data / "db1.csv"), str(data / "db2.csv")]
        assert engine._distinct_rows(
            corpus_module.load_databases(dbs)
        )[0].max() >= 4  # at least 3 blocks of 2 rows
        common = [*dbs, "--schema", str(data / "schema.txt")]
        for argv in (["fit", *common], ["oracle-check", *common, "--k", "2"]):
            outs = {}
            for w in (1, 2, 4):
                outs[w] = tmp_path / f"{argv[0]}_w{w}"
                started.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(threading.Thread, "start", refuse if w == 1 else count)
                    code = main(argv + ["--workers", str(w), "--out", str(outs[w])])
                assert code == 0, (argv[0], w)
                assert bool(started) == (w > 1), (argv[0], w)
            names = sorted(p.name for p in outs[1].iterdir())
            for w in (2, 4):
                assert names == sorted(p.name for p in outs[w].iterdir())
                for name in names:
                    one, other = ((out / name).read_bytes() for out in (outs[1], outs[w]))
                    if name == "manifest.json":
                        one, other = (json.loads(m) for m in (one, other))
                        assert (one.pop("workers"), other.pop("workers")) == (1, w)
                    assert one == other, (argv[0], w, name)


class TestParser:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["fit", "db.csv", "--no-such-flag"])
        assert err.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["fit", "oracle-check"])
    def test_fit_flags_default_to_the_fits_keywords(self, command):
        args = cli.build_parser().parse_args([command, "db.csv"])
        kw = fit.__kwdefaults__
        assert (args.max_sweeps, args.tol, args.seed, args.workers) == (
            kw["max_sweeps"], kw["rel_tol"], kw["seed"], kw["workers"]
        )

    @pytest.mark.parametrize("command", ["synth", "fit", "eval", "oracle-check"])
    def test_help(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: vblink {command}")
        if command in ("fit", "oracle-check"):
            assert "(default 1000)" in text and "(default 1e-08)" in text


class TestImports:
    def test_synth_and_eval_leave_scipy_unloaded(self, tmp_path):
        # Only a fit or the oracle needs scipy, and only a fit the thread
        # pool of concurrent.futures; the import, `vblink synth` and
        # `vblink eval` load neither scipy itself nor scipy.special,
        # scipy.sparse or concurrent.futures.  A tiny fit at the end is the
        # positive control for the scipy modules only: scipy.special and
        # scipy.sparse each import concurrent.futures themselves, so its
        # last True shows nothing about _pass's own lazy import of the pool.
        data, run = tmp_path / "data", tmp_path / "run"
        synth = ["synth", "--k", "2", "--db-sizes", "3,3", "--fields", "2",
                 "--cardinality", "3", "--distortion", "0.1"]
        dbs = [str(data / "db1.csv"), str(data / "db2.csv"),
               "--schema", str(data / "schema.txt")]
        assert main([*synth, "--out", str(data)]) == 0
        assert main(["fit", *dbs, "--out", str(run)]) == 0
        steps = [
            [*synth, "--out", str(tmp_path / "again")],
            ["eval", str(run / "linkage.csv"), str(data / "truth.csv"),
             "--out", str(tmp_path / "score")],
            ["fit", *dbs, "--out", str(tmp_path / "refit")],
        ]
        code = (
            "import sys\n"
            "import vblink.cli\n"
            "def loaded():\n"
            "    print('loaded', *(m in sys.modules for m in\n"
            "        ('scipy', 'scipy.special', 'scipy.sparse',\n"
            "         'concurrent.futures')))\n"
            "loaded()\n"
            f"for argv in {steps!r}:\n"
            "    assert vblink.cli.main(argv) == 0\n"
            "    loaded()\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        seen = [line.split()[1:] for line in done.stdout.splitlines()
                if line.startswith("loaded ")]
        assert seen == [["False"] * 4] * 3 + [["True"] * 4]


class TestRun:
    """The command line, ``python -m vblink.cli``: :func:`cli.run` ends the
    process by ``os._exit`` once the streams are flushed.  The children's
    streams are block-buffered pipes, so a missing flush loses output."""

    def test_eval_prints_every_score_line(self, tmp_path):
        data, fitted, score = tmp_path / "data", tmp_path / "run", tmp_path / "score"
        assert run_synth(data) == 0
        assert main(["fit", str(data / "db1.csv"), str(data / "db2.csv"),
                     "--schema", str(data / "schema.txt"), "--out", str(fitted)]) == 0
        done = vblink_child("eval", fitted / "linkage.csv", data / "truth.csv",
                            "--out", score)
        assert (done.returncode, done.stderr) == (0, "")
        scores = json.loads((score / "score.json").read_text())
        assert len(scores) == 5
        assert sorted(done.stdout.splitlines()) == sorted(
            f"{name}={value}" for name, value in scores.items()
        )

    def test_oracle_check_prints_its_four_lines(self, tmp_path):
        db, schema = write_tiny_db(tmp_path, rows=("red", "red", "blue"))
        check = tmp_path / "check"
        done = vblink_child("oracle-check", db, "--schema", schema, "--k", "2",
                            "--out", check)
        assert (done.returncode, done.stderr) == (0, "")
        report = json.loads((check / "oracle_report.json").read_text())
        assert done.stdout.splitlines() == [
            f"{name}={report[name]}"
            for name in ("exact_log_evidence", "final_elbo", "gap",
                         "max_cocluster_discrepancy")
        ]

    def test_sweep_limit_exits_4(self, tmp_path):
        data = tmp_path / "data"
        assert run_synth(data) == 0
        done = vblink_child("fit", data / "db1.csv", data / "db2.csv",
                            "--max-sweeps", "1", "--out", tmp_path / "run")
        assert done.returncode == 4
        assert "stopped after 1 sweeps" in done.stderr

    def test_missing_database_exits_2(self, tmp_path):
        done = vblink_child("fit", tmp_path / "nope.csv", "--out", tmp_path / "o")
        assert done.returncode == 2
        assert done.stderr.startswith("error:")

    def test_fit_files_match_an_in_process_fit(self, tmp_path):
        # K = 2**15 makes blocks of 32 rows, so the 40 records' distinct
        # rows take two blocks and --workers 2 runs one on a pool thread.
        data = tmp_path / "data"
        assert main(["synth", "--k", "30", "--db-sizes", "20,20", "--fields", "4",
                     "--cardinality", "5", "--distortion", "0.3", "--out",
                     str(data)]) == 0
        dbs = [str(data / "db1.csv"), str(data / "db2.csv")]
        rows = engine._distinct_rows(corpus_module.load_databases(dbs))[0]
        assert rows.max() >= 32  # at least 33 distinct rows
        argv = ["fit", *dbs, "--k", str(2**15), "--max-sweeps", "3",
                "--workers", "2", "--out"]
        assert main([*argv, str(tmp_path / "inside")]) == 4
        done = vblink_child(*argv, tmp_path / "child")
        assert done.returncode == 4
        names = sorted(p.name for p in (tmp_path / "inside").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "child").iterdir())
        for name in names:
            assert (tmp_path / "inside" / name).read_bytes() == (
                tmp_path / "child" / name
            ).read_bytes(), name

    def test_failed_flush_exits_as_without_run(self, tmp_path):
        # stdout is a pipe whose reader has gone: the flush fails, and the
        # child leaves by the normal exit, with the message and code that
        # a child returning main()'s code to sys.exit gives.
        db, schema = write_tiny_db(tmp_path, rows=("red", "red", "blue"))
        args = ["oracle-check", db, "--schema", schema, "--k", "2", "--out"]
        plain = "import sys, vblink.cli; sys.exit(vblink.cli.main())"
        results = []
        for launcher in (["-m", "vblink.cli"], ["-c", plain]):
            out = tmp_path / f"out{len(results)}"
            read, write = os.pipe()
            os.close(read)
            try:
                done = subprocess.run(
                    [sys.executable, *launcher, *args, str(out)],
                    env=child_env(), stdout=write, stderr=subprocess.PIPE, text=True,
                )
            finally:
                os.close(write)
            results.append((done.returncode, done.stderr))
        assert results[0] == results[1]
        assert results[0][0] != 0 and "BrokenPipeError" in results[0][1]

    def test_console_script_is_run(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert 'vblink = "vblink.cli:run"' in scripts.splitlines()
