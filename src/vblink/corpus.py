"""Multi-database categorical records, and the CSV files of the package.

A corpus is a stack of databases (one CSV file each) sharing a common header
of categorical fields.  Attribute strings are mapped to integer codes through
per-field dictionaries owned by a :class:`Schema`.  Codes are stored 0-based
in numpy arrays; file formats and documentation count from 1.

Both ``Schema`` and ``Corpus`` are immutable after construction and safe for
concurrent reads.

Every CSV file the package writes goes through :func:`write_table`: UTF-8,
``\r\n`` line ends and ``csv.writer``'s quoting; each one it reads, through
:func:`open_table`.  Every text file it reads is opened by :func:`open_text`,
which drops a leading byte order mark and names the file and the line of a
byte that is not UTF-8.  Record
tables, keyed by record (ground truth, linkage), are written by
:func:`write_record_table` and read back by :func:`read_record_table`.
Entity tables, keyed by entity (the true latent values, the fitted modal
values), are written by :func:`write_entity_table`.
"""

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from types import SimpleNamespace

import numpy as np

# Data lines per write in write_table: a batch's text stays under about 1 MB.
WRITE_CHUNK = 8192

# Rows per step of read_record_table.  By default CPython collects its
# youngest generation once 700 more container objects have been made than
# freed.  A step holds its rows as lists until it is done with them, and
# at 512 rows it makes too few to start a collection.  In a process
# holding a fit's objects, steps of 4096 rows spent about a quarter of the
# read in the collector.
READ_CHUNK = 512

# Databases a record table may hold.  No command makes more databases than
# it has input files or --db-sizes entries, far fewer than this; a database
# id above it is refused before the reader allocates one count per database.
MAX_DATABASES = 1 << 20


class SchemaError(ValueError):
    """Headers disagree across files, or a schema definition is malformed."""


class MissingValueError(ValueError):
    """A record has an empty cell; records must be complete."""


class UnknownAttributeError(ValueError):
    """A raw value does not appear in the supplied explicit schema."""


@dataclass(eq=False)
class Schema:
    """Field names plus, per field, the attribute strings in code order.

    ``field_values[f][c]`` is the raw string for code ``c`` (0-based) of
    field ``f``; the mapping is a bijection per field.
    """

    field_names: tuple
    field_values: tuple
    _code_maps: list = field(init=False, repr=False)

    def __post_init__(self):
        self.field_names = tuple(self.field_names)
        self.field_values = tuple(tuple(vals) for vals in self.field_values)
        if len(self.field_names) != len(self.field_values):
            raise SchemaError(
                f"{len(self.field_names)} field names but "
                f"{len(self.field_values)} value lists"
            )
        if len(set(self.field_names)) != len(self.field_names):
            raise SchemaError("duplicate field names")
        for name, vals in zip(self.field_names, self.field_values):
            if not vals:
                raise SchemaError(f"field {name!r} has an empty attribute dictionary")
            if len(set(vals)) != len(vals):
                raise SchemaError(f"field {name!r} has duplicate attribute values")
        self._code_maps = [
            {v: c for c, v in enumerate(vals)} for vals in self.field_values
        ]

    @property
    def field_count(self):
        return len(self.field_names)

    @property
    def cardinalities(self):
        return [len(vals) for vals in self.field_values]

    def code(self, f, raw):
        """0-based code of raw value ``raw`` in field ``f``."""
        try:
            return self._code_maps[f][raw]
        except KeyError:
            raise UnknownAttributeError(
                f"value {raw!r} is not in the dictionary of field "
                f"{self.field_names[f]!r}"
            ) from None

    def value(self, f, code):
        """Raw string for 0-based ``code`` in field ``f``."""
        return self.field_values[f][code]


@dataclass(eq=False)
class Corpus:
    """Integer-encoded records across one or more databases.

    ``values[n, f]`` is the 0-based code of field ``f`` in the ``n``-th
    record, records stacked database by database in file order.
    """

    schema: Schema
    db_sizes: tuple
    values: np.ndarray

    def __post_init__(self):
        self.db_sizes = tuple(int(s) for s in self.db_sizes)
        if any(s < 0 for s in self.db_sizes):
            raise ValueError("database sizes must be nonnegative")
        given = np.asarray(self.values)
        with np.errstate(invalid="ignore"):  # NaN is refused below
            self.values = np.ascontiguousarray(given, dtype=np.int32)
        if not np.array_equal(self.values, given):
            raise ValueError("values must be integer codes that fit in int32")
        n = sum(self.db_sizes)
        if self.values.shape != (n, self.schema.field_count):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{n} records x {self.schema.field_count} fields"
            )
        for f, v_f in enumerate(self.schema.cardinalities):
            col = self.values[:, f]
            if col.size and (col.min() < 0 or col.max() >= v_f):
                raise ValueError(f"field {f} has codes outside [0, {v_f})")
        self._offsets = np.concatenate([[0], np.cumsum(self.db_sizes)]).astype(int)

    @property
    def database_count(self):
        return len(self.db_sizes)

    @property
    def total_records(self):
        return int(self.values.shape[0])


@contextmanager
def open_text(path, newline=None):
    """Yields a UTF-8 text file open for reading, without the byte order
    mark that some editors write first, which would otherwise become part
    of the first key, field name or cell.  Where it is not UTF-8, the
    ``UnicodeDecodeError`` raised while reading it becomes a
    ``ValueError`` naming the file and its first line that does not
    decode, found by a rescan of the file's bytes."""
    with open(path, newline=newline, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as err:
                        raise ValueError(f"{path}: line {lineno}: {err}") from None
            raise  # every line decodes: the error is not this file's


@contextmanager
def open_table(path):
    """Yields a CSV file's header row and a ``csv.reader`` over the rest.
    A file with no first row, or a blank one (``csv.reader`` reads a lone
    line break as ``[]``), has no header.  A file that is not UTF-8 is
    refused as :func:`open_text` refuses it, and a ``csv.Error`` raised
    while reading it, such as a cell over csv's field size limit, becomes
    a ``ValueError`` naming the file and the line it was raised at."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if not (header := next(reader, None)):
                raise SchemaError(f"{path}: file has no header row")
            yield header, reader
        except csv.Error as err:
            raise ValueError(f"{path}: line {reader.line_num}: {err}") from None


class _FirstSeen(dict):
    """A field's codes in first-seen order: an unseen value takes the next.
    ``dict.__getitem__`` calls :meth:`__missing__` on this subclass too."""

    def __missing__(self, raw):
        code = self[raw] = len(self)
        return code


def load_databases(paths, schema=None):
    """Read one CSV file per database into a single encoded :class:`Corpus`.

    All files must share an identical header (same fields, same order) and
    contain no empty cells.  Without an explicit ``schema``, dictionaries are
    built by first-seen order scanning files in argument order (codes are
    deterministic for a fixed file list).  With an explicit schema, any value
    absent from it raises :class:`UnknownAttributeError` at its first cell.
    Each file is read once, and each row coded as it is read.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("at least one database file is required")

    header, db_sizes, codes = None, [], []
    for path in paths:
        with open_table(path) as (file_header, reader):
            if header is None:
                header, width = file_header, len(file_header)
                if schema is not None and list(schema.field_names) != header:
                    raise SchemaError(
                        f"explicit schema fields {list(schema.field_names)!r} do not "
                        f"match file header {header!r}"
                    )
                maps = schema._code_maps if schema else [_FirstSeen() for _ in header]
            elif file_header != header:
                raise SchemaError(
                    f"{path}: header {file_header!r} does not match "
                    f"{paths[0]}'s header {header!r}"
                )
            n = 0
            for n, row in enumerate(reader, start=1):
                if len(row) != width:
                    raise MissingValueError(
                        f"{path}: row {n} has {len(row)} cells, expected {width}"
                    )
                if "" in row:
                    raise MissingValueError(
                        f"{path}: row {n}, column {header[row.index('')]!r} is empty"
                    )
                try:
                    codes += map(dict.__getitem__, maps, row)
                except KeyError:  # schema.code names the value and its field
                    for f, raw in enumerate(row):
                        schema.code(f, raw)
                    raise
            db_sizes.append(n)

    if schema is None:
        schema = Schema(field_names=header, field_values=maps)
    values = np.array(codes, dtype=np.int32).reshape(sum(db_sizes), width)
    return Corpus(schema=schema, db_sizes=db_sizes, values=values)


def quote_cells(cells, alone=False):
    """The strings ``cells`` quoted once, as ``csv.writer`` quotes them, to be
    reused in every line they appear in.  An empty cell stays empty unless
    it is ``alone`` on its line, where csv.writer writes ``""``."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows([c] for c in cells)
    # Each line ends in csv.writer's "\r\n".
    return [line[:-2] if c or alone else "" for c, line in zip(cells, lines)]


def write_table(path, header, lines):
    """Write one CSV file: the ``header`` cells, then the data ``lines``,
    strings without line ends whose cells are already quoted (see
    :func:`quote_cells`).  The lines are written ``WRITE_CHUNK`` at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        lines = iter(lines)
        while batch := list(islice(lines, WRITE_CHUNK)):
            fh.write("\r\n".join(batch) + "\r\n")


def write_databases(corpus, paths):
    """Write one CSV per database: header row of field names, then raw
    attribute strings.  Inverse of :func:`load_databases` when the same
    schema is supplied on the way back in.  Each attribute string is
    quoted once.  A database is written ``WRITE_CHUNK`` records at a time,
    each field's cells gathered by one index of its codes and each line
    joined from its cells by ``map``, as :func:`write_record_table` does,
    so no Python code runs and no list is made per record.  With no
    fields, every record is an empty line."""
    paths = list(paths)
    if len(paths) != corpus.database_count:
        raise ValueError(
            f"{len(paths)} paths for {corpus.database_count} databases"
        )
    schema = corpus.schema
    alone = schema.field_count == 1
    quoted = [
        np.array(quote_cells(vals, alone), dtype=object)
        for vals in schema.field_values
    ]
    for path, start, size in zip(paths, corpus._offsets, corpus.db_sizes):
        codes = corpus.values[start : start + size]
        lines = chain.from_iterable(
            map(
                ",".join,
                zip(*[q[c].tolist() for q, c in zip(quoted, chunk.T)]),
            )
            for chunk in np.split(codes, range(WRITE_CHUNK, size, WRITE_CHUNK))
        )
        write_table(path, schema.field_names, lines if quoted else repeat("", size))


def write_record_table(path, db_sizes, columns):
    """Write a record table: header ``db,record`` and the names of
    ``columns``, then one line per record, database by database, with
    1-based database and record ids.  ``columns`` maps each name to a
    numeric array over all records in stacked order; the numbers are
    written by ``repr``, as csv.writer writes them.  An empty database has
    no lines.  Each column is formatted by one ``map``, ``WRITE_CHUNK``
    values at a time, and each line joined from its cells by another, so
    no Python code runs per line.  More than ``MAX_DATABASES`` databases
    are refused, as :func:`read_record_table` would refuse the table."""
    if len(db_sizes) > MAX_DATABASES:
        raise ValueError(
            f"{path}: {len(db_sizes)} databases, more than the "
            f"{MAX_DATABASES} a record table may hold"
        )
    db = chain.from_iterable(
        repeat(repr(d), size) for d, size in enumerate(db_sizes, 1)
    )
    record = chain.from_iterable(map(repr, range(1, size + 1)) for size in db_sizes)
    bounds = range(WRITE_CHUNK, sum(db_sizes), WRITE_CHUNK)
    cells = [
        map(repr, chain.from_iterable(map(np.ndarray.tolist, np.split(col, bounds))))
        for col in columns.values()
    ]
    lines = map(",".join, zip(db, record, *cells))
    write_table(path, ["db", "record", *columns], lines)


def _first(mask):
    """The index of the first true entry of ``mask``, or its length."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _ids(cells):
    """Decimal strings as int64.  One beyond int64, an id that no record
    table can reach, reads as -1, which is never in sequence."""
    try:
        return np.fromiter(map(int, cells), np.int64, len(cells))
    except OverflowError:
        ids = [i if i >> 63 == 0 else -1 for i in map(int, cells)]
        return np.array(ids, np.int64)


def _parse(cells, dtype):
    """Strings as ``dtype`` numbers.  numpy's cast from strings parses
    each one by Python's ``int`` or ``float``; calling those directly gives
    the same numbers without a numpy string per cell.  For a cell they
    refuse, the cast itself raises, with its own message."""
    parse = int if np.issubdtype(dtype, np.integer) else float
    try:
        return np.fromiter(map(parse, cells), dtype, len(cells))
    except (ValueError, OverflowError):
        return np.array(cells).astype(dtype)


def read_record_table(path, columns):
    """Read a record table; ``columns`` maps each value column's name to
    its dtype.  Returns ``(db_sizes, arrays)``, one array per column.

    Rows come database by database, with record ids 1, 2, ... in each.  A
    database number that skips ahead, at record 1, marks the databases in
    between as empty.  An empty last database has no row and is not counted.
    A database id above ``MAX_DATABASES`` raises ``ValueError`` naming the
    file, the row and the id, before any count is allocated for it.
    A cell that does not parse raises ``ValueError`` naming the file and
    the first bad row or, when every row is sound, the first bad column.

    Rows are read ``READ_CHUNK`` at a time.  Only their widths are checked
    row by row; each chunk's ids and values are parsed and checked column
    by column.
    """
    expected = ["db", "record", *columns]
    width, dbs, errors = len(expected), [np.zeros(0, np.int64)], {}
    parts = [[np.zeros(0, dtype)] for dtype in columns.values()]
    last_d = last_r = 0  # the ids of the row before; none before the first
    seen = 0  # rows of the chunks before
    with open_table(path) as (header, reader):
        if header != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}")
        while rows := list(islice(reader, READ_CHUNK)):
            whole = _first(np.fromiter(map(len, rows), np.intp, len(rows)) != width)
            db, record, *cells = list(zip(*rows[:whole])) or [()] * width
            decimal = np.fromiter(map(str.isdecimal, db), bool, whole)
            decimal &= np.fromiter(map(str.isdecimal, record), bool, whole)
            good = _first(~decimal)  # the rows before the first malformed one
            d, r = _ids(db[:good]), _ids(record[:good])
            prev_d, prev_r = np.r_[last_d, d][:-1], np.r_[last_r, r][:-1]
            in_sequence = ((r == 1) & (d > prev_d)) | (
                (d == prev_d) & (prev_d > 0) & (r == prev_r + 1)
            )
            if (bad := _first(~in_sequence | (d > MAX_DATABASES))) < good:
                row = rows[bad]
                if in_sequence[bad]:
                    raise ValueError(
                        f"{path}: row {seen + bad + 1} has database id "
                        f"{int(row[0])}, more than the {MAX_DATABASES} a "
                        "record table may hold"
                    )
                raise ValueError(
                    f"{path}: record ({int(row[0])},{int(row[1])}) out of sequence"
                )
            if good < len(rows):
                raise ValueError(f"{path}: malformed row {rows[good]!r}")
            last_d, last_r = d[-1], r[-1]
            seen += len(rows)
            dbs.append(d)
            for i, (name, dtype) in enumerate(columns.items()):
                if i in errors:
                    continue
                try:
                    parts[i].append(_parse(cells[i], dtype))
                except (ValueError, OverflowError) as err:
                    errors[i] = (
                        f"{path}: column {name!r} is not all "
                        f"{np.dtype(dtype).name}: {err}"
                    )
    if errors:
        raise ValueError(errors[min(errors)])
    # Every row is in sequence, so a database's size is its count of rows.
    db_sizes = np.bincount(np.concatenate(dbs))[1:]
    return tuple(db_sizes.tolist()), [np.concatenate(part) for part in parts]


def write_entity_table(path, schema, entity_ids, codes):
    """Write an entity table: header ``entity,field,value``, then one line
    per entity and field, the id from ``entity_ids`` (1-based) and the raw
    string of the 0-based code ``codes[e, f]``.  Each field name and value
    is quoted once."""
    labels = [
        [f"{name},{value}" for value in quote_cells(vals)]
        for name, vals in zip(quote_cells(schema.field_names), schema.field_values)
    ]
    lines = (
        f"{k},{labels_f[c]}"
        for k, row in zip(entity_ids.tolist(), codes.tolist())
        for labels_f, c in zip(labels, row)
    )
    write_table(path, ["entity", "field", "value"], lines)


def write_schema_file(schema, path):
    """Write the dictionary definition: one ``name<TAB>values`` line per
    field, the values one CSV line quoted by :func:`quote_cells`.  Raises
    :class:`SchemaError` for what such a line cannot hold: a tab or a line
    break in a field name, or a line break in a value."""
    lines = []
    for name, vals in zip(schema.field_names, schema.field_values):
        if any(c in name for c in "\t\r\n"):
            raise SchemaError(f"field name {name!r} holds a tab or a line break")
        for v in vals:
            if "\r" in v or "\n" in v:
                raise SchemaError(f"field {name!r}: value {v!r} holds a line break")
        lines.append(f"{name}\t{','.join(quote_cells(vals))}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_schema_file(path):
    """Parse a schema file written by :func:`write_schema_file`.  A line
    whose values csv cannot read is refused naming the file and the line."""
    names, values = [], []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise SchemaError(f"{path}: line {lineno} has no tab separator")
            name, _, joined = line.partition("\t")
            names.append(name)
            try:
                cells = next(csv.reader([joined]))
            except csv.Error as err:
                raise ValueError(f"{path}: line {lineno}: {err}") from None
            # csv reads an empty line as no cells; it is the one empty value
            values.append(tuple(cells) or ("",))
    return Schema(field_names=tuple(names), field_values=tuple(values))
