import csv
import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vblink.corpus as corpus_module
from vblink.cli import main
from vblink.corpus import (
    Corpus,
    MissingValueError,
    Schema,
    SchemaError,
    UnknownAttributeError,
    load_databases,
    read_record_table,
    read_schema_file,
    write_databases,
    write_record_table,
    write_schema_file,
)
from vblink.evaluate import read_ground_truth, read_linkage


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
        schema = corpus.schema
        raw = [
            [schema.value(f, c) for f, c in enumerate(row)]
            for row in corpus.values.tolist()
        ]
        # records stacked database by database in file order
        assert raw == [["M", "A"], ["F", "B"], ["F", "A"]]
        for row, codes in zip(raw, corpus.values.tolist()):
            assert [schema.code(f, s) for f, s in enumerate(row)] == codes

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

    def test_unknown_value_reported_at_its_first_cell(self, tmp_path):
        path = _write(
            tmp_path / "a.csv", ["gender,county", "M,A", "F,Z", "X,A", "M,Y"]
        )
        schema = Schema(
            field_names=("gender", "county"), field_values=(("M", "F"), ("A",))
        )
        with pytest.raises(UnknownAttributeError, match="'Z'.*'county'"):
            load_databases([path], schema=schema)

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

    def test_codes_rows_as_they_are_read(self, tmp_path):
        # 20,000 rows of 5 fields: held as strings, the rows alone take
        # about 80 bytes per cell; coded as read, a code list and the
        # int32 values take about 13
        rows, fields = 20_000, 5
        codes = np.random.default_rng(3).integers(0, 40, size=(rows, fields))
        path = _write(
            tmp_path / "big.csv",
            [",".join(f"f{f}" for f in range(fields))]
            + [",".join(f"value{c}" for c in row) for row in codes.tolist()],
        )
        tracemalloc.start()
        try:
            corpus = load_databases([path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.values.shape == (rows, fields)
        assert peak < 32 * rows * fields

    def test_no_files_rejected(self):
        with pytest.raises(ValueError):
            load_databases([])


class TestReadRecordTable:
    def test_reads_rows_as_they_come(self, tmp_path):
        # 20,000 rows of db,record,entity: held as a list of rows the reader
        # peaks near 220 bytes per row; keeping only the entity cells, near 90
        rows = 20_000
        entities = np.random.default_rng(3).integers(1, 5000, size=rows)
        lines = [
            f"{1 + n // 10_000},{n % 10_000 + 1},{e}"
            for n, e in enumerate(entities.tolist())
        ]
        path = _write(tmp_path / "truth.csv", ["db,record,entity", *lines])
        tracemalloc.start()
        try:
            db_sizes, (read,) = read_record_table(path, {"entity": np.int64})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert db_sizes == (10_000, 10_000)
        np.testing.assert_array_equal(read, entities)
        assert peak < 140 * rows


def reference_read_record_table(path, columns):
    """read_record_table row by row: each row's ids parsed and checked in
    turn, the value cells kept as strings and each column cast at the end."""
    expected = ["db", "record", *columns]
    width, db_sizes, cells = len(expected), [], []
    with corpus_module.open_table(path) as (header, reader):
        if header != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}")
        for row in reader:
            if len(row) != width or not (row[0].isdecimal() and row[1].isdecimal()):
                raise ValueError(f"{path}: malformed row {row!r}")
            d, r = int(row[0]), int(row[1])
            if r == 1 and d > len(db_sizes):
                db_sizes += [0] * (d - len(db_sizes))
            elif not (db_sizes and d == len(db_sizes) and r == db_sizes[-1] + 1):
                raise ValueError(f"{path}: record ({d},{r}) out of sequence")
            db_sizes[-1] = r
            cells += row[2:]
    arrays = []
    for i, (name, dtype) in enumerate(columns.items()):
        try:
            arrays.append(np.array(cells[i :: len(columns)]).astype(dtype))
        except (ValueError, OverflowError) as err:
            raise ValueError(
                f"{path}: column {name!r} is not all {np.dtype(dtype).name}: {err}"
            ) from None
    return tuple(db_sizes), arrays


def _outcome(read, path, columns):
    try:
        return read(path, columns)
    except ValueError as err:
        return str(err)


HUGE = "99999999999999999999"  # beyond int64
# Id cells: decimal ones (a leading zero, an Arabic-Indic three) and not.
ID_CELLS = ["0", "1", "2", "3", "4", "01", "\u0663", "x", "", "1.0", " 1", "-1"]
VALUE_CELLS = ["1", "7", "2.5", "abc", "", HUGE, "1_0", " 3", "nan"]


class TestReadRecordTableAgainstRowByRow:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        sizes=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        edits=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 4),
                      st.sampled_from(ID_CELLS + VALUE_CELLS)),
            max_size=3,
        ),
        chunk=st.integers(1, 5),
    )
    # both value columns bad, entity's first bad cell in the second chunk
    @example(sizes=[3], edits=[(0, 3, "abc"), (1, 2, "2.5"), (2, 2, "abc")], chunk=1)
    def test_same_rows_accepted_and_same_errors(
        self, tmp_path_factory, sizes, edits, chunk
    ):
        # A sound table of databases of the given sizes, then a few cells
        # replaced, or dropped (column 4): both readers must return the
        # same arrays, or raise the same message, at every chunk size.  A
        # database id beyond int64 is left to test_ids_beyond_int64.
        rows = [
            [str(d), str(r), str(10 * d + r), f"0.{r}"]
            for d, size in enumerate(sizes, 1)
            for r in range(1, size + 1)
        ]
        for n, column, cell in edits:
            if rows:
                row = rows[n % len(rows)]
                if column == 4:
                    row.pop()
                elif column < len(row) and (column, cell) != (0, HUGE):
                    row[column] = cell
        path = tmp_path_factory.mktemp("table") / "linkage.csv"
        path.write_text(
            "db,record,entity,max_prob\n" + "".join(",".join(r) + "\n" for r in rows),
            encoding="utf-8",
        )
        columns = {"entity": np.int64, "max_prob": np.float64}
        want = _outcome(reference_read_record_table, path, columns)
        with mock.patch.object(corpus_module, "READ_CHUNK", chunk):
            got = _outcome(read_record_table, path, columns)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0] == want[0]
            for a, b in zip(got[1], want[1]):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_ids_beyond_int64(self, tmp_path):
        # A record id beyond int64 is out of sequence, as row by row; so is
        # a database id, where the row-by-row reader overflowed making room
        # for that many databases.
        path = tmp_path / "truth.csv"
        for rows, message in (
            (f"1,1,1\n1,{HUGE},1\n", f"record (1,{HUGE}) out of sequence"),
            (f"1,1,1\n{HUGE},1,1\n", f"record ({HUGE},1) out of sequence"),
        ):
            path.write_text("db,record,entity\n" + rows)
            with pytest.raises(ValueError, match=re.escape(message)):
                read_record_table(path, {"entity": np.int64})


# Database ids past MAX_DATABASES: int64's top, 2^62, 10^12 and one past it.
FAR_IDS = ["9223372036854775807", "4611686018427387904", "1000000000000", "1048577"]


class TestDatabaseIdLimit:
    # Each table's header, the value cells of its rows and its columns
    TABLES = {
        "linkage": ("db,record,entity,max_prob", ",1,1.0",
                    {"entity": np.int64, "max_prob": np.float64}),
        "truth": ("db,record,entity", ",1", {"entity": np.int64}),
    }

    @pytest.mark.parametrize("chunk", [2, 512])
    @pytest.mark.parametrize("lead", [0, 2])
    @pytest.mark.parametrize("db_id", FAR_IDS)
    @pytest.mark.parametrize("table", ["linkage", "truth"])
    def test_far_id_is_refused_naming_file_row_and_id(
        self, tmp_path, capsys, table, db_id, lead, chunk
    ):
        # Counting the databases up to such an id overruns the heap, wraps
        # to no databases or runs out of memory, so it is refused before any
        # count is made: as the only row or after two sound ones, in the
        # first or the second chunk.
        paths = {}
        for name, (header, cells, _) in self.TABLES.items():
            rows = [f"1,{r}{cells}" for r in range(1, lead + 1)]
            if name == table:
                rows.append(f"{db_id},1{cells}")
            paths[name] = _write(tmp_path / f"{name}.csv", [header, *rows])
        message = (
            f"{paths[table]}: row {lead + 1} has database id {db_id}, more than the "
            "1048576 a record table may hold"
        )
        argv = ["eval", paths["linkage"], paths["truth"], "--out", str(tmp_path / "out")]
        with mock.patch.object(corpus_module, "READ_CHUNK", chunk):
            with pytest.raises(ValueError, match=re.escape(message)):
                read_record_table(paths[table], self.TABLES[table][2])
            assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tables_at_the_limit_read_back(self, tmp_path):
        # The last database id a table may hold, after skipped empty
        # databases, and empty ones skipped in between
        path = tmp_path / "truth.csv"
        limit = corpus_module.MAX_DATABASES
        for db_sizes in ((0,) * (limit - 1) + (2,), (1, 0, 0, 3, 0, 2)):
            entity = np.arange(1, sum(db_sizes) + 1)
            write_record_table(path, db_sizes, {"entity": entity})
            read, (back,) = read_record_table(path, {"entity": np.int64})
            assert read == db_sizes
            np.testing.assert_array_equal(back, entity)

    def test_writer_refuses_more_databases(self, tmp_path):
        path = tmp_path / "truth.csv"
        db_sizes = (1,) + (0,) * corpus_module.MAX_DATABASES
        with pytest.raises(ValueError, match="1048577 databases, more than the 1048576"):
            write_record_table(path, db_sizes, {"entity": np.ones(1, np.int64)})
        assert not path.exists()


class TestWriteRecordTable:
    def test_formats_columns_a_chunk_at_a_time(self, tmp_path):
        # 200,000 records of entity and max_prob: whole columns turned into
        # Python numbers peak near 80 bytes per record; WRITE_CHUNK values
        # at a time, near 2 MB whatever the record count
        rows = 200_000
        columns = {
            "entity": np.arange(1, rows + 1, dtype=np.int64),
            "max_prob": np.linspace(0.1, 1.0, rows),
        }
        path = tmp_path / "linkage.csv"
        tracemalloc.start()
        try:
            write_record_table(path, (rows // 2, rows // 2), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == rows + 1
        assert lines[-1] == f"2,{rows // 2},{rows},1.0"
        assert peak < 20 * rows

    FLOATS = [0.1, 1.0, 5e-324, 1e22, 0.9999999999999991, -0.0, 1e-7, 123456.789]
    INTS = [1, 7, 2**53 + 1, -5, 0, 40, 12, 3]

    @pytest.mark.parametrize(
        "db_sizes, names",
        [
            ((5, 3), ("entity", "max_prob")),
            ((0, 8), ("entity", "max_prob")),
            ((2, 0, 6), ("entity", "max_prob")),
            ((8,), ("max_prob",)),
            ((3, 0, 5), ()),
            ((0, 0), ("entity",)),
        ],
        ids=["two-dbs", "empty-first", "empty-middle", "floats-only",
             "no-value-columns", "no-records"],
    )
    def test_bytes_are_csv_writers(self, tmp_path, db_sizes, names):
        n = sum(db_sizes)
        data = {
            "entity": np.array(self.INTS[:n], dtype=np.int64),
            "max_prob": np.array(self.FLOATS[:n]),
        }
        columns = {name: data[name] for name in names}
        path = tmp_path / "table.csv"
        write_record_table(path, db_sizes, columns)
        ids = [(d, r) for d, size in enumerate(db_sizes, 1) for r in range(1, size + 1)]
        values = [col.tolist() for col in columns.values()]
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["db", "record", *names])
        writer.writerows(
            [d, r, *(col[i] for col in values)] for i, (d, r) in enumerate(ids)
        )
        assert path.read_bytes() == want.getvalue().encode("utf-8")


def write_databases_by_record(corpus, paths):
    """The reference writer: csv.writer, one record at a time."""
    schema = corpus.schema
    for path, start, size in zip(paths, corpus._offsets, corpus.db_sizes):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(schema.field_names)
            for row in corpus.values[start : start + size].tolist():
                writer.writerow([schema.value(f, c) for f, c in enumerate(row)])


class TestWriteDatabases:
    @pytest.mark.parametrize(
        "schema",
        [
            Schema(
                ("name, full", 'say "hi"', "plain"),
                (("a,b", '"q"', "x", ""), ('y"', " z ", "w,"), ("1", "\n")),
            ),
            # Alone on its line, an empty cell is written "".
            Schema(("",), (("", "a,b", "c"),)),
            Schema((), ()),  # every record is an empty line
        ],
        ids=["commas-and-quotes", "one-field", "no-fields"],
    )
    def test_bytes_match_a_per_record_writer(self, tmp_path, monkeypatch, schema):
        # chunks of 3 records: the 11-record database ends inside one
        monkeypatch.setattr(corpus_module, "WRITE_CHUNK", 3)
        db_sizes = (7, 0, 11, 3)
        n = sum(db_sizes)
        rng = np.random.default_rng(3)
        values = np.empty((n, schema.field_count), dtype=np.int32)
        for f, v in enumerate(schema.cardinalities):
            values[:, f] = rng.integers(0, v, size=n)
        corpus = Corpus(schema=schema, db_sizes=db_sizes, values=values)
        names = [f"db{d}.csv" for d in range(1, len(db_sizes) + 1)]
        write_databases(corpus, [tmp_path / name for name in names])
        write_databases_by_record(corpus, [tmp_path / f"want_{name}" for name in names])
        for name in names:
            got = (tmp_path / name).read_bytes()
            assert got == (tmp_path / f"want_{name}").read_bytes(), name
        if schema.field_count == 0:
            assert (tmp_path / "db3.csv").read_bytes() == b"\r\n" * 12

    def test_peak_is_a_chunk_of_records(self, tmp_path):
        # 200,000 records x 10 fields: one list per record peaked at 46 MB;
        # WRITE_CHUNK records at a time, near 2 MB whatever the record count
        rows, fields = 200_000, 10
        schema = Schema(
            tuple(f"f{f}" for f in range(fields)),
            tuple(tuple(f"v{v}" for v in range(10)) for _ in range(fields)),
        )
        values = np.random.default_rng(1).integers(0, 10, (rows, fields), np.int32)
        corpus = Corpus(schema=schema, db_sizes=(rows,), values=values)
        path = tmp_path / "db1.csv"
        tracemalloc.start()
        try:
            write_databases(corpus, [path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * rows
        back = load_databases([path], schema=schema)
        np.testing.assert_array_equal(back.values, values)


@pytest.mark.parametrize(
    "read, argv",
    [
        (lambda path: load_databases([path]), ["fit", "{empty}"]),
        (read_linkage, ["eval", "{empty}", "{truth}"]),
        (read_ground_truth, ["eval", "{linkage}", "{empty}"]),
    ],
    ids=["database", "linkage", "truth"],
)
def test_headerless_file_rejected(tmp_path, capsys, read, argv):
    (tmp_path / "empty.csv").write_text("")
    files = {
        "empty": str(tmp_path / "empty.csv"),
        "linkage": _write(
            tmp_path / "linkage.csv", ["db,record,entity,max_prob", "1,1,1,1.0"]
        ),
        "truth": _write(tmp_path / "truth.csv", ["db,record,entity", "1,1,1"]),
    }
    message = f"{files['empty']}: file has no header row"
    with pytest.raises(SchemaError, match=re.escape(message)):
        read(files["empty"])
    argv = [arg.format(**files) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "read, argv",
    [
        (lambda path: load_databases([path]), ["fit", "{blank}", "--k", "3"]),
        (read_linkage, ["eval", "{blank}", "{truth}"]),
        (read_ground_truth, ["eval", "{linkage}", "{blank}"]),
    ],
    ids=["database", "linkage", "truth"],
)
@pytest.mark.parametrize("line_break", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_blank_header_row_rejected(tmp_path, capsys, read, argv, line_break):
    """A file holding only a line break has an empty first row: it is
    refused as headerless, not read as a table of no columns."""
    (tmp_path / "blank.csv").write_bytes(line_break.encode())
    files = {
        "blank": str(tmp_path / "blank.csv"),
        "linkage": _write(
            tmp_path / "linkage.csv", ["db,record,entity,max_prob", "1,1,1,1.0"]
        ),
        "truth": _write(tmp_path / "truth.csv", ["db,record,entity", "1,1,1"]),
    }
    message = f"{files['blank']}: file has no header row"
    with pytest.raises(SchemaError, match=re.escape(message)):
        read(files["blank"])
    argv = [arg.format(**files) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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

    def test_codes_the_int32_cast_would_change_rejected(self):
        # each would be stored as a valid code (1, 1, 0, ...) by the cast
        schema = Schema(field_names=("f",), field_values=(("a", "b"),))
        for values in ([[2**32 + 1]], [[1.7]], [[-(2**32)]], [[np.nan]]):
            with pytest.raises(ValueError, match="int32"):
                Corpus(schema=schema, db_sizes=(1,), values=values)
        exact = Corpus(schema=schema, db_sizes=(2,), values=[[1.0], [np.int64(0)]])
        np.testing.assert_array_equal(exact.values, [[1], [0]])
        for dtype in (np.float64, np.int64, object):
            empty = Corpus(schema=schema, db_sizes=(0,), values=np.zeros((0, 1), dtype))
            assert empty.values.dtype == np.int32

    def test_size_shape_consistency(self):
        schema = Schema(field_names=("f",), field_values=(("a",),))
        with pytest.raises(ValueError):
            Corpus(
                schema=schema,
                db_sizes=(3,),
                values=np.zeros((2, 1), dtype=np.int32),
            )


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
