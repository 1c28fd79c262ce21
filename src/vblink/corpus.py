"""Multi-database categorical records, and the CSV files of the package.

A corpus is a stack of databases (one CSV file each) sharing a common header
of categorical fields.  Attribute strings are mapped to integer codes through
per-field dictionaries owned by a :class:`Schema`.  Codes are stored 0-based
in numpy arrays; file formats and documentation count from 1.

Both ``Schema`` and ``Corpus`` are immutable after construction and safe for
concurrent reads.

Every CSV file the package writes goes through :func:`write_table`: UTF-8,
``\r\n`` line ends and ``csv.writer``'s quoting.  The files keyed by
record (ground truth, linkage) are record tables, written by
:func:`write_record_table` and read back by :func:`read_record_table`.
"""

import csv
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from types import SimpleNamespace

import numpy as np

# Data lines per write in write_table: a batch's text stays under about 1 MB.
WRITE_CHUNK = 8192


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
        self.values = np.ascontiguousarray(self.values, dtype=np.int32)
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

    def flat_index(self, d, r):
        """Flat record index of record ``r`` of database ``d`` (0-based)."""
        if not 0 <= d < self.database_count:
            raise IndexError(f"database index {d} out of range")
        if not 0 <= r < self.db_sizes[d]:
            raise IndexError(f"record index {r} out of range for database {d}")
        return int(self._offsets[d] + r)

    def record_location(self, n):
        """(database, record) pair (0-based) for flat index ``n``."""
        if not 0 <= n < self.total_records:
            raise IndexError(f"flat record index {n} out of range")
        d = int(np.searchsorted(self._offsets, n, side="right") - 1)
        return d, int(n - self._offsets[d])


def decode(corpus, d, r):
    """Raw attribute strings of record ``r`` in database ``d`` (0-based)."""
    row = corpus.values[corpus.flat_index(d, r)]
    return [corpus.schema.value(f, int(c)) for f, c in enumerate(row)]


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise SchemaError(f"{path}: file has no header row")
    return rows[0], rows[1:]


def load_databases(paths, schema=None):
    """Read one CSV file per database into a single encoded :class:`Corpus`.

    All files must share an identical header (same fields, same order) and
    contain no empty cells.  Without an explicit ``schema``, dictionaries are
    built by first-seen order scanning files in argument order (codes are
    deterministic for a fixed file list).  With an explicit schema, any value
    absent from it raises :class:`UnknownAttributeError`.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("at least one database file is required")

    header = None
    tables = []
    for path in paths:
        file_header, rows = _read_rows(path)
        if header is None:
            header = file_header
        elif file_header != header:
            raise SchemaError(
                f"{path}: header {file_header!r} does not match "
                f"{paths[0]}'s header {header!r}"
            )
        tables.append((path, rows))

    if schema is not None:
        if list(schema.field_names) != list(header):
            raise SchemaError(
                f"explicit schema fields {list(schema.field_names)!r} do not "
                f"match file header {header!r}"
            )
        code_of = schema.code
    else:
        seen = [{} for _ in header]

        def code_of(f, raw):
            codes = seen[f]
            if raw not in codes:
                codes[raw] = len(codes)
            return codes[raw]

    n_fields = len(header)
    db_sizes = []
    encoded = []
    for path, rows in tables:
        db_sizes.append(len(rows))
        for i, row in enumerate(rows):
            if len(row) != n_fields:
                raise MissingValueError(
                    f"{path}: row {i + 1} has {len(row)} cells, expected {n_fields}"
                )
            for f, raw in enumerate(row):
                if raw == "":
                    raise MissingValueError(
                        f"{path}: row {i + 1}, column {header[f]!r} is empty"
                    )
                encoded.append(code_of(f, raw))

    if schema is None:
        schema = Schema(
            field_names=tuple(header),
            field_values=tuple(tuple(codes) for codes in seen),
        )
    n = sum(db_sizes)
    values = np.asarray(encoded, dtype=np.int32).reshape(n, n_fields)
    return Corpus(schema=schema, db_sizes=tuple(db_sizes), values=values)


def quote_cells(cells, alone=False):
    """The strings ``cells`` quoted once, as ``csv.writer`` quotes them, to be
    reused in every line they appear in.  An empty cell stays empty unless
    it is ``alone`` on its line, where csv.writer writes ``""``."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows([c] for c in cells)
    # Each line ends in csv.writer's "\r\n".
    return [line[:-2] if c or alone else "" for c, line in zip(cells, lines)]


def quoted_labels(schema):
    """``labels[f][c]``: field ``f``'s name and the string of its code ``c``
    as the two cells ``name,value``, each quoted once."""
    names = quote_cells(schema.field_names)
    return [
        [f"{name},{value}" for value in quote_cells(vals)]
        for name, vals in zip(names, schema.field_values)
    ]


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
    schema is supplied on the way back in."""
    paths = list(paths)
    if len(paths) != corpus.database_count:
        raise ValueError(
            f"{len(paths)} paths for {corpus.database_count} databases"
        )
    schema = corpus.schema
    # Every attribute string, quoted once; code c of field f is at first[f] + c.
    alone = schema.field_count == 1
    quoted = [c for vals in schema.field_values for c in quote_cells(vals, alone)]
    quoted = np.array(quoted, dtype=object)
    first = np.cumsum([0, *schema.cardinalities])[:-1]
    for path, start, size in zip(paths, corpus._offsets, corpus.db_sizes):
        cells = quoted[corpus.values[start : start + size] + first]
        write_table(path, schema.field_names, map(",".join, cells.tolist()))


def write_record_table(path, db_sizes, columns):
    """Write a record table: header ``db,record`` and the names of
    ``columns``, then one line per record, database by database, with
    1-based database and record ids.  ``columns`` maps each name to a
    numeric array over all records in stacked order; the numbers are
    written by ``repr``, as csv.writer writes them.  An empty database has
    no lines."""
    db = chain.from_iterable(repeat(d, size) for d, size in enumerate(db_sizes, 1))
    record = chain.from_iterable(range(1, size + 1) for size in db_sizes)
    line = ",".join(["{!r}"] * (2 + len(columns))).format
    cells = [col.tolist() for col in columns.values()]
    write_table(path, ["db", "record", *columns], map(line, db, record, *cells))


def read_record_table(path, columns):
    """Read a record table; ``columns`` maps each value column's name to
    its dtype.  Returns ``(db_sizes, arrays)``, one array per column.

    Rows come database by database, with record ids 1, 2, ... in each.  A
    database number that skips ahead, at record 1, marks the databases in
    between as empty.  An empty last database has no row and is not counted.
    A cell that does not parse raises ``ValueError`` naming the file and
    the row or the column.
    """
    header, rows = _read_rows(path)
    expected = ["db", "record", *columns]
    if header != expected:
        raise ValueError(f"{path}: expected header {','.join(expected)}")
    db_sizes = []
    for row in rows:
        if len(row) != len(expected) or not all(c.isdecimal() for c in row[:2]):
            raise ValueError(f"{path}: malformed row {row!r}")
        d, r = int(row[0]), int(row[1])
        if r == 1 and d > len(db_sizes):
            db_sizes += [0] * (d - len(db_sizes))
        elif not (db_sizes and d == len(db_sizes) and r == db_sizes[-1] + 1):
            raise ValueError(f"{path}: record ({d},{r}) out of sequence")
        db_sizes[-1] = r
    arrays = []
    for i, (name, dtype) in enumerate(columns.items(), start=2):
        try:
            arrays.append(np.array([row[i] for row in rows]).astype(dtype))
        except (ValueError, OverflowError) as err:
            raise ValueError(
                f"{path}: column {name!r} is not all {np.dtype(dtype).name}: {err}"
            ) from None
    return tuple(db_sizes), arrays


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
    """Parse a schema file written by :func:`write_schema_file`."""
    names, values = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise SchemaError(f"{path}: line {lineno} has no tab separator")
            name, _, joined = line.partition("\t")
            names.append(name)
            # csv reads an empty line as no cells; it is the one empty value
            values.append(tuple(next(csv.reader([joined]))) or ("",))
    return Schema(field_names=tuple(names), field_values=tuple(values))
