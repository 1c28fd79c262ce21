import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import vblink.cli as cli
import vblink.corpus as corpus_module
import vblink.engine as engine
import vblink.evaluate as evaluate
from vblink.cli import main
from vblink.corpus import Corpus, Schema, write_databases
from vblink.engine import HyperParams, NumericalFailureError, fit, load_state
from vblink.genmodel import GroundTruth, write_ground_truth


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
                "version", "db_sizes", "cardinalities", "entity_count",
                "alpha_0", "lam_0",
            ]
        lam, header = load_state(out / "state.npz")
        assert header["db_sizes"] == (3,)
        assert lam[0].shape == (3, 2)
        # the prior mass 3 x 2 x 0.1 plus one count per record
        assert lam[0].sum() == pytest.approx(3.6, rel=1e-12)

    def test_lambda_dump_covers_every_cell(self, tmp_path):
        db, schema = write_tiny_db(tmp_path)
        out = tmp_path / "run"
        main(["fit", db, "--schema", schema, "--k", "2", "--out", str(out)])
        rows = (out / "lambda.csv").read_text().splitlines()
        assert rows[0] == "entity,field,value,lambda"
        assert len(rows) == 1 + 2 * 1 * 2  # entities x fields x values
        assert rows[1].startswith("1,color,red,")

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
        assert "did not fit" in err and "--k" in err
        assert len(err.strip().splitlines()) == 1

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
        db, schema = write_tiny_db(tmp_path)
        alpha_file = tmp_path / "alpha.txt"
        alpha_file.write_text("# per-field vectors\n0.5,2.0\n")
        out = tmp_path / "run"
        code = main(
            [
                "fit",
                db,
                "--schema",
                schema,
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
        np.testing.assert_array_equal(header["alpha"][0], [0.5, 2.0])

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

            write_databases(corpus, [out / "db1.csv", out / "db2.csv"])
            write_ground_truth(truth, out / "truth.csv")
            evaluate.write_linkage(out / "linkage.csv", linkage)
            cli._write_lambda_csv(out / "lambda.csv", state, schema)

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
                "lambda.csv": [
                    ["entity", "field", "value", "lambda"],
                    *[
                        [k + 1, name, schema.value(f, v), repr(float(lam))]
                        for k in range(hp.entity_count)
                        for f, name in enumerate(schema.field_names)
                        for v, lam in enumerate(state.lam[f][k])
                    ],
                ],
            }
            for name, rows in want.items():
                expected = csv_writer_bytes(out / f"want_{name}", rows)
                assert (out / name).read_bytes() == expected, (i, name)
        assert b'"a,b"' in (tmp_path / "0" / "lambda.csv").read_bytes()
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
        def fake_exact(corpus, hp, workers=1):
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


class TestParser:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["fit", "db.csv", "--no-such-flag"])
        assert err.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["synth", "fit", "eval", "oracle-check"])
    def test_help(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: vblink {command}")
        if command in ("fit", "oracle-check"):
            assert "(default 1000)" in text and "(default 1e-08)" in text
