import numpy as np
import pytest

from vblink.corpus import (
    Corpus,
    MissingValueError,
    Schema,
    SchemaError,
    UnknownAttributeError,
    decode,
    load_databases,
    read_schema_file,
    write_databases,
    write_schema_file,
)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def two_files(tmp_path):
    f1 = _write(tmp_path / "a.csv", ["gender,county", "M,A", "F,B"])
    f2 = _write(tmp_path / "b.csv", ["gender,county", "F,A"])
    return [f1, f2]


class TestLoadDatabases:
    def test_first_seen_encoding(self, two_files):
        corpus = load_databases(two_files)
        assert corpus.database_count == 2
        assert corpus.db_sizes == (2, 1)
        assert corpus.schema.field_count == 2
        assert corpus.schema.cardinalities == [2, 2]
        # first-seen order: M=0, F=1 / A=0, B=1
        np.testing.assert_array_equal(
            corpus.values, [[0, 0], [1, 1], [1, 0]]
        )

    def test_decode_round_trip(self, two_files):
        corpus = load_databases(two_files)
        assert decode(corpus, 0, 0) == ["M", "A"]
        assert decode(corpus, 1, 0) == ["F", "A"]
        for d in range(corpus.database_count):
            for r in range(corpus.db_sizes[d]):
                raw = decode(corpus, d, r)
                codes = [corpus.schema.code(f, s) for f, s in enumerate(raw)]
                np.testing.assert_array_equal(
                    codes, corpus.values[corpus.flat_index(d, r)]
                )

    def test_empty_database_with_schema(self, tmp_path):
        path = _write(tmp_path / "empty.csv", ["gender,county"])
        schema = Schema(
            field_names=("gender", "county"),
            field_values=(("M", "F"), ("A", "B")),
        )
        corpus = load_databases([path], schema=schema)
        assert corpus.db_sizes == (0,)
        assert corpus.total_records == 0
        assert corpus.values.shape == (0, 2)

    def test_empty_database_alongside_populated_one(self, tmp_path):
        empty = _write(tmp_path / "empty.csv", ["gender,county"])
        full = _write(tmp_path / "full.csv", ["gender,county", "M,A"])
        corpus = load_databases([empty, full])
        assert corpus.db_sizes == (0, 1)

    def test_all_empty_needs_a_schema(self, tmp_path):
        # a value dictionary cannot be inferred from zero records
        path = _write(tmp_path / "empty.csv", ["gender,county"])
        with pytest.raises(SchemaError, match="empty attribute dictionary"):
            load_databases([path])

    def test_header_mismatch_names_offending_file(self, tmp_path):
        f1 = _write(tmp_path / "a.csv", ["gender,county", "M,A"])
        f2 = _write(tmp_path / "b.csv", ["county,gender", "A,M"])
        with pytest.raises(SchemaError, match="b.csv"):
            load_databases([f1, f2])

    def test_empty_cell_reports_location(self, tmp_path):
        path = _write(tmp_path / "a.csv", ["gender,county", "M,A", "F,"])
        with pytest.raises(MissingValueError, match=r"row 2.*county"):
            load_databases([path])

    def test_short_row_rejected(self, tmp_path):
        path = _write(tmp_path / "a.csv", ["gender,county", "M"])
        with pytest.raises(MissingValueError, match="row 1"):
            load_databases([path])

    def test_explicit_schema_fixes_codes(self, two_files):
        schema = Schema(
            field_names=("gender", "county"),
            field_values=(("F", "M"), ("B", "A")),
        )
        corpus = load_databases(two_files, schema=schema)
        np.testing.assert_array_equal(
            corpus.values, [[1, 1], [0, 0], [0, 1]]
        )

    def test_unknown_value_under_explicit_schema(self, two_files):
        schema = Schema(
            field_names=("gender", "county"), field_values=(("M", "F"), ("A",))
        )
        with pytest.raises(UnknownAttributeError):
            load_databases(two_files, schema=schema)

    def test_explicit_schema_field_names_must_match_header(self, two_files):
        schema = Schema(field_names=("sex", "county"), field_values=(("M",), ("A",)))
        with pytest.raises(SchemaError):
            load_databases(two_files, schema=schema)

    def test_loading_is_deterministic(self, two_files):
        c1 = load_databases(two_files)
        c2 = load_databases(two_files)
        np.testing.assert_array_equal(c1.values, c2.values)
        assert c1.schema.field_values == c2.schema.field_values

    def test_split_invariance(self, tmp_path, two_files):
        merged = _write(
            tmp_path / "all.csv", ["gender,county", "M,A", "F,B", "F,A"]
        )
        split = load_databases(two_files)
        whole = load_databases([merged])
        np.testing.assert_array_equal(split.values, whole.values)

    def test_no_files_rejected(self):
        with pytest.raises(ValueError):
            load_databases([])


class TestSchema:
    def test_duplicate_values_rejected(self):
        with pytest.raises(SchemaError):
            Schema(field_names=("f",), field_values=(("a", "a"),))

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(field_names=("f", "f"), field_values=(("a",), ("b",)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Schema(field_names=("f", "g"), field_values=(("a",),))

    def test_empty_dictionary_rejected(self):
        with pytest.raises(SchemaError):
            Schema(field_names=("f",), field_values=((),))

    def test_code_value_bijection(self):
        schema = Schema(field_names=("f",), field_values=(("x", "y", "z"),))
        for c, raw in enumerate(("x", "y", "z")):
            assert schema.code(0, raw) == c
            assert schema.value(0, c) == raw
        with pytest.raises(UnknownAttributeError):
            schema.code(0, "w")


class TestCorpus:
    def test_out_of_range_codes_rejected(self):
        schema = Schema(field_names=("f",), field_values=(("a", "b"),))
        with pytest.raises(ValueError):
            Corpus(
                schema=schema,
                db_sizes=(1,),
                values=np.array([[2]], dtype=np.int32),
            )
        with pytest.raises(ValueError):
            Corpus(
                schema=schema,
                db_sizes=(1,),
                values=np.array([[-1]], dtype=np.int32),
            )

    def test_size_shape_consistency(self):
        schema = Schema(field_names=("f",), field_values=(("a",),))
        with pytest.raises(ValueError):
            Corpus(
                schema=schema,
                db_sizes=(3,),
                values=np.zeros((2, 1), dtype=np.int32),
            )

    def test_flat_index_round_trip(self):
        schema = Schema(field_names=("f",), field_values=(("a",),))
        corpus = Corpus(
            schema=schema, db_sizes=(2, 3), values=np.zeros((5, 1), np.int32)
        )
        seen = []
        for d, size in enumerate(corpus.db_sizes):
            for r in range(size):
                n = corpus.flat_index(d, r)
                assert corpus.record_location(n) == (d, r)
                seen.append(n)
        assert seen == list(range(5))
        with pytest.raises(IndexError):
            corpus.flat_index(0, 2)
        with pytest.raises(IndexError):
            corpus.record_location(5)


class TestFileRoundTrips:
    def test_schema_file(self, tmp_path, two_files):
        loaded = load_databases(two_files).schema
        quoted = Schema(
            ("f", "g h", "e"),
            (("a,b", "c"), ('say "hi"', "x\ty", ""), ("",)),
        )
        path = tmp_path / "schema.txt"
        for schema in (loaded, quoted):
            write_schema_file(schema, path)
            back = read_schema_file(path)
            assert back.field_names == schema.field_names
            assert back.field_values == schema.field_values
        # values that need no quoting are written bare
        write_schema_file(loaded, path)
        assert path.read_text() == "gender\tM,F\ncounty\tA,B\n"

    @pytest.mark.parametrize(
        "names, values",
        [
            (("a\tb",), (("x",),)),
            (("a\nb",), (("x",),)),
            (("f",), (("x", "y\nz"),)),
            (("f",), (("x\r",),)),
        ],
        ids=["tab_in_name", "newline_in_name", "newline_in_value", "return_in_value"],
    )
    def test_schema_file_refuses_what_a_line_cannot_hold(self, tmp_path, names, values):
        path = tmp_path / "schema.txt"
        with pytest.raises(SchemaError):
            write_schema_file(Schema(names, values), path)
        assert not path.exists()

    def test_databases_round_trip(self, tmp_path, two_files):
        corpus = load_databases(two_files)
        outs = [str(tmp_path / "o1.csv"), str(tmp_path / "o2.csv")]
        write_databases(corpus, outs)
        back = load_databases(outs, schema=corpus.schema)
        np.testing.assert_array_equal(back.values, corpus.values)
        assert back.db_sizes == corpus.db_sizes

    def test_write_databases_path_count(self, two_files, tmp_path):
        corpus = load_databases(two_files)
        with pytest.raises(ValueError):
            write_databases(corpus, [str(tmp_path / "only.csv")])
