"""Versioned CSV/JSON record export and reload.

Every file carries a record kind with a fixed, versioned column set.  CSV
files start with the line ``# potts-landscape v1 <kind>`` followed by a
header row; floats are serialized as shortest round-trip decimals, so a
reload reproduces the in-memory values bit for bit.  JSON files hold an
array of flat objects with the same field names plus ``kind`` and
``schema_version``.  The writers take a ``Table`` of columns or a list of
record dicts and write the rows a chunk at a time, each the bare cell texts
between fixed separators; a float found in more than one row of a column
is formatted once per write, whichever float columns hold it.  Both refuse
a non-finite float (``NumericalError``) before writing anything; a missing
column or a ``None`` cell is written empty.  ``read_csv`` parses a file
with one call of numpy's C reader and releases the text before it builds
the records.  The readers raise ``DomainError`` on a malformed file.
"""

from __future__ import annotations

import itertools
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


def _table(kind: str, records) -> tuple:
    """The kind's column names and the records as a checked ``Table``."""
    names = [name for name, _ in SCHEMAS[kind]]
    if not isinstance(records, Table):
        records = list(records)
        records = Table({n: [rec.get(n) for rec in records] for n in names})
    _refuse_non_finite(records, names)
    return names, records


def _text(value, as_json: bool) -> str:
    """One cell: ``None`` is empty (``null``), a float its shortest
    round-trip repr (``_refuse_non_finite`` has refused the others)."""
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, float):
        return float.__repr__(value)
    return json.dumps(value) if as_json else str(value)


def _refuse_non_finite(table: Table, names: list) -> None:
    """NumericalError on the first non-finite float of the named columns,
    in column order."""
    for name in names:
        col = table.columns.get(name, ())
        if isinstance(col, np.ndarray) and col.dtype.kind != "O":
            bad = col[~np.isfinite(col)] if col.dtype.kind == "f" else []
        else:
            bad = [v for v in col
                   if isinstance(v, float) and not math.isfinite(v)]
        if len(bad):
            raise NumericalError(f"refusing to write non-finite {name} = "
                                 f"{float(bad[0])!r}")


def _float_texts(bits) -> list:
    """Shortest round-trip texts of the doubles with these bit patterns."""
    return list(map(float.__repr__, bits.view(np.float64).tolist()))


def _held(values):
    """The sorted values whose texts are held (those that repeat, or all in
    a table of one chunk) and each row's slot among them, -1 if not held."""
    keys, index, counts = np.unique(values, return_inverse=True,
                                    return_counts=True)
    once = (counts == 1) & (len(values) > _CHUNK)
    slot = np.where(once, -1, np.cumsum(~once) - 1).astype(np.int32)
    return keys[~once], slot[index]


def _chunks(values, slot, held, texts):
    """The function (start, stop) -> cell texts of those rows: the ``held``
    text of a row's slot, else ``texts`` of its value."""
    held = np.array([*held, None], object)  # slot -1 is None
    if len(held) == 1:  # holds less than the masked path below
        return lambda start, stop: texts(values[start:stop])

    def chunk(start, stop):
        at = slot[start:stop]
        out, single = held[at], at < 0
        out[single] = np.array(texts(values[start:stop][single]), object)
        return out.tolist()
    return chunk


def _columns(table: Table, names: list, as_json: bool) -> list:
    """Each named column as the function (start, stop) -> its cell texts,
    or as one text for all rows (a missing column).  The ``_held`` floats of
    all columns are pooled (told apart by bit pattern: -0.0 is not 0.0)."""
    out, floats = {}, {}
    for name in names:
        col = table.columns.get(name)
        if col is None:
            out[name] = _text(None, as_json)
        elif not (isinstance(col, np.ndarray) and col.dtype.kind in "fiubU"):
            out[name] = lambda start, stop, col=col: [
                _text(v, as_json) for v in col[start:stop]]
        elif col.dtype.kind == "f":
            bits = col.astype(np.float64, copy=False).view(np.int64)
            floats[name] = (bits, *_held(bits))
        else:
            def texts(values):
                return [_text(v, as_json) for v in values.tolist()]
            keys, slot = _held(col)
            out[name] = _chunks(col, slot, texts(keys), texts)
    # with an inverse np.unique argsorts as in ``_held``: without one it
    # hashes (slower), and np.sort maps in a sort kernel (peak RSS)
    if floats:
        pool, at = np.unique(np.concatenate(
            [keys for _, keys, _ in floats.values()]), return_inverse=True)
        held, start = np.array(_float_texts(pool), object)[at], 0
    for name, (bits, keys, slot) in floats.items():
        out[name] = _chunks(bits, slot, held[start:start + len(keys)],
                            _float_texts)
        start += len(keys)
    return [out[name] for name in names]


# Rows are formatted, joined and written this many at a time (more rows
# per write buy no speed and hold a larger text).
_CHUNK = 1024


def _write_rows(fh, n: int, seps: list, columns: list, row_sep: str) -> None:
    """Rows of ``seps[0]``, a cell of each column, ``seps[1]``, ... joined,
    joined by ``row_sep``; a column given as one text joins the ``seps``."""
    parts = [seps[0]]
    for column, sep in zip(columns, seps[1:]):
        parts[-1:] = ([parts[-1] + column + sep] if isinstance(column, str)
                      else [parts[-1], column, sep])
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        cells = [itertools.repeat(part, stop - start) if isinstance(part, str)
                 else part(start, stop) for part in parts]
        if start:
            fh.write(row_sep)
        fh.write(row_sep.join(map("".join, zip(*cells))))


def write_csv(fh, kind: str, records) -> None:
    """CSV of a ``Table`` or a list of record dicts.  Every column is
    checked before anything is written."""
    names, table = _table(kind, records)
    fh.write(f"{MAGIC} {kind}\n" + ",".join(names) + "\n")
    _write_rows(fh, len(table), ["", *[","] * (len(names) - 1), "\n"],
                _columns(table, names, False), "")


def write_json(fh, kind: str, records) -> None:
    """JSON of a ``Table`` or a list of record dicts, laid out exactly as
    ``json.dump(objects, fh, indent=1)`` followed by a newline.  Each
    object starts with ``kind`` and ``schema_version``; a column of the
    same name (the census ``kind``) takes that first slot.  Every column
    is checked before anything is written."""
    names, table = _table(kind, records)
    if not len(table):
        fh.write("[]\n")
        return
    cells = {"kind": json.dumps(kind), "schema_version": str(SCHEMA_VERSION),
             **dict(zip(names, _columns(table, names, True)))}
    seps = [("," if k else " {") + f"\n  {json.dumps(field)}: "
            for k, field in enumerate(cells)]
    fh.write("[\n")
    _write_rows(fh, len(table), seps + ["\n }"], list(cells.values()), ",\n")
    fh.write("\n]\n")


def _records(rows: list, columns, text: bool) -> list:
    """Records from one call of numpy's C reader; with ``text``, numeric
    cells are read as text and parsed by float and int ('' is None).
    ``rows`` is emptied once every cell is parsed."""
    table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1, dtype=[
        (name, object if text or t is str else t) for name, t in columns])
    parsed = {name: [typ(cell) if cell != "" else None
                     for cell in table[name].tolist()]
              for name, typ in columns} if text else {}
    rows.clear()
    records = [{} for _ in range(len(table))]
    for name, _ in columns:
        values = parsed.pop(name) if text else table[name].tolist()
        for rec, value in zip(records, values):
            rec[name] = value
    return records


def _refuse(path: str, columns, lines: list) -> None:
    """DomainError at the first bad body line, if Python finds one."""
    for lineno, line in enumerate(lines, start=3):
        if not line:
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
    rows = body.split("\n")
    if "#" in body:  # a comment line becomes an empty one: both are skipped
        rows = ["" if row[:1] == "#" else row for row in rows]
    if not any(rows):  # numpy warns on a body without rows
        return kind, []
    # numbers are read as text where numpy refuses them (an empty cell) or
    # misreads them (it takes \x1c-\x1f for spaces and letters for digits)
    text = (not body.isascii() or any(c in body for c in "\x1c\x1d\x1e\x1f")
            or any(r[:1] == "," or r[-1:] == "," or ",," in r for r in rows))
    del body
    try:
        return kind, _records(rows, columns, text)
    except ValueError:
        _refuse(path, columns, rows)
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
