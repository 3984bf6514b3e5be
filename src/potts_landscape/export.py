"""Versioned CSV/JSON record export and reload.

Every file carries a record kind with a fixed, versioned column set.  CSV
files start with the line ``# potts-landscape v1 <kind>`` followed by a
header row; floats are serialized as shortest round-trip decimals, so a
reload reproduces the in-memory values bit for bit.  JSON files hold an
array of flat objects with the same field names plus ``kind`` and
``schema_version``.  The writers take a ``Table`` of columns or a list of
record dicts and write the rows a chunk at a time, formatting each
distinct value of a column once and holding only the texts of values
that repeat.  Both refuse a non-finite float with a ``NumericalError`` before writing
anything; ``None`` marks an unused column (the spare Maxwell minimizer
slots).  The readers raise ``DomainError`` on a malformed file.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError, NumericalError

SCHEMA_VERSION = 1
MAGIC = "# potts-landscape v1"

SCHEMAS = {
    "slice_point": (
        ("beta", float), ("branch", str), ("interval", int),
        ("x_param", float), ("nu1", float), ("nu2", float), ("nu3", float),
        ("alpha1", float), ("alpha2", float), ("alpha3", float),
        ("p", float), ("q", float),
    ),
    "surface_point": (
        ("sign", int), ("nu1", float), ("nu2", float), ("nu3", float),
        ("beta", float),
        ("alpha1", float), ("alpha2", float), ("alpha3", float),
        ("p", float), ("q", float),
    ),
    "critical_temps": (
        ("butterfly", float), ("cross", float), ("ellis_wang", float),
        ("touch", float), ("umbilic", float),
    ),
    "census": (
        ("beta", float),
        ("alpha1", float), ("alpha2", float), ("alpha3", float),
        ("nu1", float), ("nu2", float), ("nu3", float),
        ("eig_lo", float), ("eig_hi", float),
        ("kind", str), ("value", float), ("is_global_min", int),
        ("n_local_minima", int), ("degenerate_warning", int),
    ),
    "maxwell_point": (
        ("beta", float), ("section", str), ("index", int),
        ("alpha1", float), ("alpha2", float), ("alpha3", float),
        ("u", float), ("v", float), ("x", float), ("y", float),
        ("depth", float), ("n_minimizers", int),
        ("m1_nu1", float), ("m1_nu2", float), ("m1_nu3", float),
        ("m2_nu1", float), ("m2_nu2", float), ("m2_nu3", float),
        ("m3_nu1", float), ("m3_nu2", float), ("m3_nu3", float),
        ("m4_nu1", float), ("m4_nu2", float), ("m4_nu3", float),
    ),
    "potential_grid": (
        ("beta", float), ("x", float), ("y", float),
        ("nu1", float), ("nu2", float), ("nu3", float), ("f", float),
    ),
}


class Table:
    """Records held as columns: ``columns[name]`` is a 1-D array or list
    with one entry per record; ``len()`` is the number of records.  A
    schema column missing from ``columns`` is written as empty cells."""

    def __init__(self, columns: dict):
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
        self.columns = columns
        self._n = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._n


def _table(records, names) -> Table:
    """A ``Table``, or a list of record dicts transposed into one."""
    if isinstance(records, Table):
        return records
    records = list(records)
    return Table({name: [rec.get(name) for rec in records]
                  for name in names})


def _text(value, name: str, as_json: bool) -> str:
    """One cell: ``None`` is empty (``null``), a float its shortest
    round-trip repr; non-finite floats are refused."""
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericalError(f"refusing to write non-finite {name} = "
                                 f"{value!r}")
        return float.__repr__(value)
    return json.dumps(value) if as_json else str(value)


def _refuse_non_finite(table: Table, names: list) -> None:
    """NumericalError on the first non-finite float of the named columns,
    in column order."""
    for name in names:
        col = table.columns.get(name)
        if col is None:
            continue
        if isinstance(col, np.ndarray) and col.dtype.kind != "O":
            bad = col[~np.isfinite(col)] if col.dtype.kind == "f" else []
        else:
            bad = [v for v in col
                   if isinstance(v, float) and not math.isfinite(v)]
        if len(bad):
            raise NumericalError(f"refusing to write non-finite {name} = "
                                 f"{float(bad[0])!r}")


def _column(col, name: str, as_json: bool, prefix: str, suffix: str):
    """The function (start, stop) -> texts of those rows of one column,
    with ``prefix`` and ``suffix`` attached.  In numeric and string arrays
    every distinct value is formatted once: a value found in more than one
    row when the write starts and held to its end, any other when its row
    is written, so a column of distinct values holds no text beyond the
    chunk being written.  Floats are told apart by bit pattern, so -0.0
    stays apart from 0.0."""
    if col is None:
        empty = prefix + _text(None, name, as_json) + suffix
        return lambda start, stop: [empty] * (stop - start)
    if not (isinstance(col, np.ndarray) and col.dtype.kind in "fiubU"):
        return lambda start, stop: [prefix + _text(v, name, as_json) + suffix
                                    for v in col[start:stop]]
    is_float = col.dtype.kind == "f"
    if is_float:
        col = col.astype(np.float64, copy=False).view(np.int64)

    def texts(values):
        if is_float:
            out = list(map(float.__repr__, values.view(np.float64).tolist()))
        else:
            out = [_text(v, name, as_json) for v in values.tolist()]
        if prefix or suffix:
            out = [prefix + text + suffix for text in out]
        return out

    keys, index, counts = np.unique(col, return_inverse=True,
                                    return_counts=True)
    once = counts == 1
    # the texts of repeated values, then a slot for the others
    held = np.array(texts(keys[~once]) + [None], dtype=object)
    slot = np.where(once, -1, np.cumsum(~once) - 1).astype(np.int32)[index]

    def chunk(start, stop):
        at = slot[start:stop]
        out = held[at]
        single = at < 0
        out[single] = np.array(texts(col[start:stop][single]), dtype=object)
        return out.tolist()
    return chunk


# Rows are formatted, joined and written this many at a time (more rows
# per write buy no speed and hold a larger text).
_CHUNK = 1024


def _write_rows(fh, table: Table, columns: list, row_sep: str) -> None:
    """Every row: the texts of ``columns`` joined by ',', rows by
    ``row_sep``."""
    for start in range(0, len(table), _CHUNK):
        stop = min(start + _CHUNK, len(table))
        cells = [column(start, stop) for column in columns]
        if start:
            fh.write(row_sep)
        fh.write(row_sep.join(map(",".join, zip(*cells))))


def write_csv(fh, kind: str, records) -> None:
    """CSV of a ``Table`` or a list of record dicts.  Every column is
    checked before anything is written."""
    names = [name for name, _ in SCHEMAS[kind]]
    table = _table(records, names)
    _refuse_non_finite(table, names)
    fh.write(f"{MAGIC} {kind}\n")
    fh.write(",".join(names) + "\n")
    columns = [_column(table.columns.get(name), name, False, "",
                       "\n" if name == names[-1] else "") for name in names]
    _write_rows(fh, table, columns, "")


def write_json(fh, kind: str, records) -> None:
    """JSON of a ``Table`` or a list of record dicts, laid out exactly as
    ``json.dump(objects, fh, indent=1)`` followed by a newline.  Each
    object starts with ``kind`` and ``schema_version``; a column of the
    same name (the census ``kind``) takes that first slot.  Every column
    is checked before anything is written."""
    names = [name for name, _ in SCHEMAS[kind]]
    table = _table(records, names)
    _refuse_non_finite(table, names)
    constants = {"kind": kind, "schema_version": SCHEMA_VERSION}
    fields = list(dict.fromkeys([*constants, *names]))
    columns, prefix = [], " {"
    for field in fields:
        prefix += f"\n  {json.dumps(field)}: "
        if field not in names:
            prefix += json.dumps(constants[field]) + ","
            continue
        suffix = "\n }" if field == fields[-1] else ""
        columns.append(_column(table.columns.get(field), field, True, prefix,
                               suffix))
        prefix = ""
    if not len(table):
        fh.write("[]\n")
        return
    fh.write("[\n")
    _write_rows(fh, table, columns, ",\n")
    fh.write("\n]\n")


def _records(rows: list, columns, text: bool) -> list:
    """Records from one call of numpy's C reader; with ``text``, numeric
    cells are read as text and parsed by float and int ('' is None)."""
    table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1, dtype=[
        (name, object if text or t is str else t) for name, t in columns])
    records = [{} for _ in range(len(table))]
    for name, typ in columns:
        values = table[name].tolist()
        if text:
            values = [typ(cell) if cell != "" else None for cell in values]
        for rec, value in zip(records, values):
            rec[name] = value
    return records


def _refuse(path: str, columns, lines: list) -> None:
    """DomainError at the first bad body line, if Python finds one."""
    for lineno, line in enumerate(lines, start=3):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise DomainError(f"{path} line {lineno}: {len(cells)} cells, "
                              f"expected {len(columns)}")
        for (name, typ), cell in zip(columns, cells):
            try:
                if cell:
                    typ(cell)
            except ValueError:
                raise DomainError(f"{path} line {lineno}: cannot parse "
                                  f"{name} = {cell!r}") from None


def read_csv(path: str):
    """Returns (kind, records); numbers are parsed back to full precision.
    A file numpy refuses is checked line by line, then read as text."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(MAGIC):
            raise DomainError(f"{path} is not a potts-landscape CSV file")
        kind = header[len(MAGIC):].strip()
        if kind not in SCHEMAS:
            raise DomainError(f"unknown record kind {kind!r} in {path}")
        columns = SCHEMAS[kind]
        names = fh.readline().rstrip("\n").split(",")
        if names != [name for name, _ in columns]:
            raise DomainError(f"column mismatch for kind {kind!r} in {path}")
        body = fh.read()
    lines = body.split("\n")
    rows = [ln for ln in lines if ln[:1] != "#"] if "#" in body else lines
    if not any(rows):  # numpy warns on a body without rows
        return kind, []
    # numbers are read as text where numpy refuses them (an empty cell) or
    # misreads them (it takes \x1c-\x1f for spaces and letters for digits)
    text = (not body.isascii() or any(c in body for c in "\x1c\x1d\x1e\x1f")
            or any(r[:1] == "," or r[-1:] == "," or ",," in r for r in rows))
    try:
        return kind, _records(rows, columns, text)
    except ValueError:
        _refuse(path, columns, lines)
    return kind, _records(rows, columns, True)


def read_json(path: str):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"{path} is not JSON: {exc}") from None
    if not isinstance(data, list):
        raise DomainError(f"{path}: top level is a {type(data).__name__}, "
                          f"expected an array of records")
    for k, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise DomainError(f"{path} entry {k} is a "
                              f"{type(obj).__name__}, expected an object")
    if not data:
        return None, []
    kind = data[0].get("kind")
    if kind not in SCHEMAS:
        # a schema with a ``kind`` column (the census) holds that column's
        # value in the slot: the key set names the schema
        keys = set(data[0])
        kind = next((name for name, columns in SCHEMAS.items()
                     if keys == {"kind", "schema_version"}
                     | {field for field, _ in columns}), kind)
    if kind not in SCHEMAS:
        raise DomainError(f"unknown record kind {kind!r} in {path}")
    return kind, [{name: obj.get(name) for name, _ in SCHEMAS[kind]}
                  for obj in data]
