"""Column-at-a-time writers checked byte for byte against the per-cell CSV
writer and ``json.dump`` they replace, and the readers' refusals."""

import dataclasses
import io
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import potts_landscape as pl
from potts_landscape import cli, export
from potts_landscape import maxwell as mw
from potts_landscape.bifurcation import slice_curves, surface_patches
from potts_landscape.export import (MAGIC, SCHEMA_VERSION, SCHEMAS, Table,
                                    read_csv, read_json, write_csv,
                                    write_json)
from potts_landscape.model import batch_pq, batch_uv, batch_xy


# ---------------------------------------------------------------------------
# oracles: the per-cell CSV writer and json.dump
# ---------------------------------------------------------------------------

def _format_value_cell(value, name):
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise pl.NumericalError(f"refusing to write non-finite {name} = "
                                    f"{value!r}")
        return repr(value)
    return str(value)


def oracle_csv(kind, records, note=None):
    columns = SCHEMAS[kind]
    fh = io.StringIO()
    fh.write(f"{MAGIC} {kind}\n")
    fh.write(",".join(name for name, _ in columns) + "\n")
    for rec in records:
        fh.write(",".join(_format_value_cell(rec.get(name), name)
                          for name, _ in columns) + "\n")
    if note:
        fh.write(f"# note: {note}\n")
    return fh.getvalue()


def oracle_json(kind, records):
    out = []
    for rec in records:
        obj = {"kind": kind, "schema_version": SCHEMA_VERSION}
        for name, _ in SCHEMAS[kind]:
            obj[name] = rec.get(name)
        out.append(obj)
    fh = io.StringIO()
    json.dump(out, fh, indent=1, allow_nan=False)
    fh.write("\n")
    return fh.getvalue()


def written(writer, kind, records):
    fh = io.StringIO()
    writer(fh, kind, records)
    return fh.getvalue()


def assert_same_text(got, want):
    """Equal texts; on failure names the first differing line instead of
    diffing megabytes."""
    if got == want:
        return
    a, b = got.splitlines(), want.splitlines()
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    pytest.fail(f"line {k}: got {a[k:k + 1]}, want {b[k:k + 1]} "
                f"({len(a)} lines, want {len(b)})")


# ---------------------------------------------------------------------------
# seeded random tables
# ---------------------------------------------------------------------------

# Values at the edges of repr's fixed/exponent switch, the extremes, both
# zeros and a few exactly representable decimals.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05,
           -1e-05, 0.0001, 9.999999999999999e-06, 1e16, -1e16,
           9999999999999998.0, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1, 0.5, 1.0, -3.0, 2.9)
ASCII_TEXT = ("minimum", "saddle", "123", 'quo"te', "back\\slash",
              "tab\tbed", "ctl\x01")
TEXT = ASCII_TEXT + ("β-ü", "naïve", "日本", "😀")
MINIMIZER_SLOT = "m{}_nu{}"


def random_floats(rng, n):
    """Random bit patterns (every exponent, subnormals included), special
    values and repeats drawn from a small pool."""
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, size=n, endpoint=True)
    pool = bits.view(np.float64)
    pool = np.where(np.isfinite(pool), pool, 0.25)
    pick = rng.integers(0, 3, size=n)
    special = np.array(SPECIAL)[rng.integers(0, len(SPECIAL), size=n)]
    repeats = pool[rng.integers(0, max(1, n // 10), size=n)]
    return np.select([pick == 0, pick == 1], [pool, special], repeats)


def random_table(rng, kind, n, texts=TEXT):
    """(Table, list of record dicts) holding the same values.  Table
    columns are numpy arrays or, for some, plain lists; the spare
    minimizer slots of maxwell records are None."""
    columns = {}
    for name, typ in SCHEMAS[kind]:
        if typ is float:
            col = random_floats(rng, n)
        elif typ is int:
            col = rng.integers(-5, 50, size=n)
        else:
            col = np.array(texts)[rng.integers(0, len(texts), size=n)]
        columns[name] = col.tolist() if rng.random() < 0.25 else col
    if kind == "maxwell_point":
        count = rng.integers(0, 5, size=n)
        columns["n_minimizers"] = count
        for k in range(1, 5):
            for c in range(1, 4):
                name = MINIMIZER_SLOT.format(k, c)
                values = np.asarray(columns[name]).tolist()
                columns[name] = [v if k <= m else None
                                 for v, m in zip(values, count.tolist())]
    records = [dict(zip(columns, row)) for row in zip(
        *(c if isinstance(c, list) else c.tolist()
          for c in columns.values()))]
    return Table(columns), records


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@pytest.mark.parametrize("n", [0, 1, 7, 1000, 9000])
def test_random_tables_match_oracles(kind, n):
    rng = np.random.default_rng([n, *map(ord, kind)])
    table, records = random_table(rng, kind, n)
    assert len(table) == n
    csv_text = oracle_csv(kind, records)
    json_text = oracle_json(kind, records)
    assert_same_text(written(write_csv, kind, table), csv_text)
    assert_same_text(written(write_csv, kind, records), csv_text)
    assert_same_text(written(write_json, kind, table), json_text)
    assert_same_text(written(write_json, kind, records), json_text)


@pytest.mark.parametrize("rows", [5, 6, 7, 8])
def test_rows_written_in_chunks(monkeypatch, rows):
    """Chunk boundaries (3 rows a chunk here) leave no mark."""
    monkeypatch.setattr(export, "_CHUNK", 3)
    table, records = random_table(np.random.default_rng(rows), "census",
                                  rows)
    assert_same_text(written(write_csv, "census", table),
                     oracle_csv("census", records))
    assert_same_text(written(write_json, "census", table),
                     oracle_json("census", records))


def test_edge_values_in_one_column():
    values = list(SPECIAL) * 3 + [-0.0, 0.0, 0.0, -0.0]
    rows = len(values)
    table = Table({"butterfly": np.array(values), "cross": values,
                   "ellis_wang": np.zeros(rows), "touch": -np.zeros(rows),
                   "umbilic": np.full(rows, 1e16)})
    records = [{"butterfly": v, "cross": v, "ellis_wang": 0.0,
                "touch": -0.0, "umbilic": 1e16} for v in values]
    text = written(write_csv, "critical_temps", table)
    assert_same_text(text, oracle_csv("critical_temps", records))
    assert_same_text(written(write_json, "critical_temps", table),
                     oracle_json("critical_temps", records))
    lines = text.splitlines()[2:]
    assert lines[0] == "0.0,0.0,0.0,-0.0,1e+16"
    assert lines[1] == "-0.0,-0.0,0.0,-0.0,1e+16"
    for needle in ("5e-324", "1e-05", "0.0001", "9.999999999999999e-06",
                   "9999999999999998.0", "1.7976931348623157e+308"):
        assert needle in text


def test_none_in_maxwell_minimizer_slots():
    rng = np.random.default_rng(7)
    table, records = random_table(rng, "maxwell_point", 50)
    assert any(rec["m4_nu3"] is None for rec in records)
    csv_text = written(write_csv, "maxwell_point", table)
    assert_same_text(csv_text, oracle_csv("maxwell_point", records))
    json_text = written(write_json, "maxwell_point", table)
    assert_same_text(json_text, oracle_json("maxwell_point", records))
    assert '"m4_nu3": null' in json_text
    assert all(row.endswith(",,") for row in csv_text.splitlines()[2:]
               if row.split(",")[11] == "3")


def test_maxwell_write_fits_the_record_budget(tmp_path):
    """Building and writing 20,000 maxwell records, every value distinct,
    peaks below cli._RECORD_BYTES a record, the size that bounds
    --segment-samples."""
    rng = np.random.default_rng(11)
    n = 20000

    def section(name, m, k):
        return cli._maxwell_section(2.6, name, rng.dirichlet((1, 1, 1), m),
                                    rng.random(m),
                                    rng.dirichlet((1, 1, 1), (m, k)))

    layout = (("segment", n - 42, 2), ("triple", 1, 3), ("curve", 20, 2),
              ("curve_mirror", 20, 2), ("uniform", 1, 4))
    for writer in (write_csv, write_json):
        with open(tmp_path / "maxwell.out", "w") as fh:
            tracemalloc.start()
            try:
                table = cli._maxwell_table([section(*s) for s in layout])
                writer(fh, "maxwell_point", table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(table) == n
        assert peak <= n * cli._RECORD_BYTES, (writer.__name__, peak / n)


def maxwell_sections(rng, layout):
    return [cli._maxwell_section(2.6, name, rng.dirichlet((1, 1, 1), m),
                                 rng.random(m),
                                 rng.dirichlet((1, 1, 1), (m, k)))
            for name, m, k in layout]


def test_unfilled_minimizer_slots_are_left_out():
    """A minimizer slot that no section fills is no column of the table;
    one that some section fills holds None elsewhere.  Both are written
    as empty cells."""
    table = cli._maxwell_table(maxwell_sections(
        np.random.default_rng(2), (("segment", 5, 2), ("triple", 1, 3))))
    assert not any(name.startswith("m4_") for name in table.columns)
    assert table.columns["m3_nu1"][:5] == [None] * 5
    assert table.columns["m3_nu1"][5] is not None
    records = [dict(zip(table.columns, row)) for row in zip(
        *(c if isinstance(c, list) else c.tolist()
          for c in table.columns.values()))]
    assert_same_text(written(write_csv, "maxwell_point", table),
                     oracle_csv("maxwell_point", records))
    assert_same_text(written(write_json, "maxwell_point", table),
                     oracle_json("maxwell_point", records))


# ---------------------------------------------------------------------------
# float values shared between columns
# ---------------------------------------------------------------------------

def shared_floats_table(rng, n):
    """(Table, record dicts) of slice points whose float columns share
    values: permuted copies of one column, -0.0 in one column and 0.0 in
    another, a value repeated in one column and found once in another, and
    a float32 column whose values a float64 column holds too."""
    base = random_floats(rng, n)
    perm = rng.permutation(n)
    zero = rng.random(n) < 0.3
    once = np.linspace(1.0, 2.0, n)
    once[n // 2:n // 2 + 1] = base[:1]
    single = rng.standard_normal(n).astype(np.float32)
    columns = {
        "beta": np.full(n, 2.9), "branch": np.full(n, "W0"),
        "interval": np.arange(n), "x_param": base, "nu1": base[perm],
        "nu2": base[perm][::-1], "nu3": np.where(zero, -0.0, base),
        "alpha1": np.where(zero[perm], 0.0, base[::-1]), "alpha2": once,
        "alpha3": np.where(np.arange(n) % 3 == 0, base[:1], once[::-1]),
        "p": single, "q": single.astype(np.float64)[perm]}
    records = [dict(zip(columns, row)) for row in
               zip(*(col.tolist() for col in columns.values()))]
    return Table(columns), records


@pytest.mark.parametrize("chunk", [3, 1024])
@pytest.mark.parametrize("n", [0, 1, 7, 3000])
def test_floats_shared_between_columns_match_oracles(monkeypatch, chunk, n):
    """The texts pooled across the float columns are the texts of their own
    values, in CSV and JSON, whether a table is one chunk or many."""
    monkeypatch.setattr(export, "_CHUNK", chunk)
    table, records = shared_floats_table(np.random.default_rng(n), n)
    if n > 1:
        nu3, alpha1 = table.columns["nu3"], table.columns["alpha1"]
        assert (np.signbit(nu3) & (nu3 == 0)).any()
        assert (~np.signbit(alpha1) & (alpha1 == 0)).any()
        assert table.columns["p"].dtype == np.float32
    assert_same_text(written(write_csv, "slice_point", table),
                     oracle_csv("slice_point", records))
    assert_same_text(written(write_json, "slice_point", table),
                     oracle_json("slice_point", records))


@pytest.mark.parametrize("argv,formatted", [
    (["slice", "--beta", "2.9"], 18001),
    (["surface", "--grid", "128", "--beta-max", "4"], 24336)])
def test_each_repeated_float_formatted_once(tmp_path, monkeypatch, argv,
                                            formatted):
    """The permuted copies of the fold points are formatted once per file:
    18,001 and 24,336 reprs, where one repr per distinct value of each
    column took 33,601 and 29,713."""
    counts = []
    texts = export._float_texts
    monkeypatch.setattr(export, "_float_texts",
                        lambda bits: counts.append(len(bits)) or texts(bits))
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert sum(counts) == formatted


def test_read_csv_peak_stays_near_its_records(tmp_path):
    """Reading the 8,099-row surface CSV peaks at most 1.25 times the
    records it returns: the file's text is released before the record
    dicts are built."""
    path = str(tmp_path / "surface.csv")
    assert cli.main(["surface", "--grid", "128", "--beta-max", "4",
                     "--out", path]) == 0
    read_csv(path)
    tracemalloc.start()
    try:
        kind, records = read_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kind == "surface_point" and len(records) == 8099
    assert peak <= 1.25 * held, (peak, held)


def test_non_ascii_text_in_json():
    rec = {"beta": 2.9, "branch": "βü日😀", "interval": 0}
    text = written(write_json, "slice_point", Table(
        {name: [rec.get(name)] for name in rec}))
    assert text == oracle_json("slice_point", [rec])
    assert text.isascii() and "\\u03b2\\u00fc\\u65e5\\ud83d\\ude00" in text


def test_missing_columns_are_empty():
    table = Table({"beta": np.array([2.5, 2.5])})
    records = [{"beta": 2.5}, {"beta": 2.5}]
    assert_same_text(written(write_csv, "potential_grid", table),
                     oracle_csv("potential_grid", records))
    assert_same_text(written(write_json, "potential_grid", table),
                     oracle_json("potential_grid", records))


def test_table_length_is_the_record_count():
    table = Table({"x": np.arange(12.0), "y": list(range(12))})
    assert len(table) == 12
    assert len(Table({})) == 0
    with pytest.raises(ValueError, match="unequal"):
        Table({"x": np.arange(3.0), "y": np.arange(4.0)})


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_read_csv_round_trips_bit_for_bit(tmp_path, kind):
    rng = np.random.default_rng(len(kind))
    table, records = random_table(rng, kind, 500, texts=ASCII_TEXT)
    path = tmp_path / f"{kind}.csv"
    path.write_text(written(write_csv, kind, table))
    got_kind, got = read_csv(str(path))
    assert got_kind == kind
    assert len(got) == len(records)
    for want, have in zip(records, got):
        for name, typ in SCHEMAS[kind]:
            w, h = want[name], have[name]
            if typ is float and w is not None:
                assert np.float64(w).view(np.int64) == (
                    np.float64(h).view(np.int64)), (name, w, h)
                assert math.copysign(1.0, w) == math.copysign(1.0, h)
            else:
                assert w == h and type(w) is type(h), (name, w, h)
    assert_same_text(path.read_text(), written(write_csv, kind, got))


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("writer", [write_csv, write_json])
@pytest.mark.parametrize("shape", ["table", "records"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_deep_in_a_column_writes_nothing(writer, shape, bad):
    rng = np.random.default_rng(3)
    table, records = random_table(rng, "slice_point", 20000)
    columns = {name: np.asarray(col).copy() for name, col
               in table.columns.items()}
    columns["q"][10000] = bad
    records[10000]["q"] = bad
    fh = io.StringIO()
    with pytest.raises(pl.NumericalError, match=rf"non-finite q = {bad!r}"):
        writer(fh, "slice_point",
               Table(columns) if shape == "table" else records)
    text = fh.getvalue().lower()
    assert "nan" not in text and "inf" not in text
    assert text == ""


def write_rows(tmp_path, kind, rows):
    path = tmp_path / "bad.csv"
    names = [name for name, _ in SCHEMAS[kind]]
    path.write_text(f"{MAGIC} {kind}\n" + ",".join(names) + "\n"
                    + "".join(row + "\n" for row in rows))
    return str(path)


GOOD = "2.5,3.0,1.0,0.1,0.2,0.7,4.5"


class TestReadCsvRefusals:
    def test_short_row(self, tmp_path):
        path = write_rows(tmp_path, "potential_grid", [GOOD, "2.5,3.0"])
        with pytest.raises(pl.DomainError, match="line 4: 2 cells, "
                                                 "expected 7"):
            read_csv(path)

    def test_long_row(self, tmp_path):
        path = write_rows(tmp_path, "potential_grid",
                          [GOOD, "# note", GOOD + ",1.0"])
        with pytest.raises(pl.DomainError, match="line 5: 8 cells"):
            read_csv(path)

    def test_unparsable_cell(self, tmp_path):
        path = write_rows(tmp_path, "potential_grid",
                          [GOOD, GOOD.replace("0.2", "0.2x")])
        with pytest.raises(pl.DomainError,
                           match="line 4: cannot parse nu2 = '0.2x'"):
            read_csv(path)

    def test_unparsable_int(self, tmp_path):
        path = write_rows(tmp_path, "slice_point",
                          ["2.9,123,1.5,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"])
        with pytest.raises(pl.DomainError, match="cannot parse interval"):
            read_csv(path)

    def test_well_formed_rows_read(self, tmp_path):
        path = write_rows(tmp_path, "potential_grid", [GOOD, "", GOOD])
        kind, records = read_csv(path)
        assert kind == "potential_grid" and len(records) == 2
        assert records[0]["f"] == 4.5


# ---------------------------------------------------------------------------
# read_csv against the row-by-row reader it replaced
# ---------------------------------------------------------------------------

def oracle_read_csv(path):
    """The row-by-row reader: each line split on ',', each cell parsed by
    its column's Python type, an empty cell read as None; lines that are
    empty or start with '#' are skipped."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(MAGIC):
            raise pl.DomainError(f"{path} is not a potts-landscape CSV file")
        kind = header[len(MAGIC):].strip()
        if kind not in SCHEMAS:
            raise pl.DomainError(f"unknown record kind {kind!r} in {path}")
        columns = SCHEMAS[kind]
        names = fh.readline().rstrip("\n").split(",")
        if names != [name for name, _ in columns]:
            raise pl.DomainError(f"column mismatch for kind {kind!r} in "
                                 f"{path}")
        records = []
        for lineno, line in enumerate(fh, start=3):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise pl.DomainError(f"{path} line {lineno}: {len(cells)} "
                                     f"cells, expected {len(columns)}")
            rec = {}
            for (name, typ), cell in zip(columns, cells):
                try:
                    rec[name] = typ(cell) if cell != "" else None
                except ValueError:
                    raise pl.DomainError(f"{path} line {lineno}: cannot "
                                         f"parse {name} = {cell!r}") from None
            records.append(rec)
    return kind, records


def reading(reader, path):
    """("read", kind, records) or ("refused", message); any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return ("read",) + reader(path)
        except pl.DomainError as exc:
            return ("refused", str(exc))


def cell_key(value):
    """A cell's type and value, a float by its bit pattern."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


def assert_read_as_oracle(path):
    """read_csv and the oracle read the file alike: the same records, key
    order, types and bits, or the same refusal.  Returns the outcome."""
    got, want = reading(read_csv, path), reading(oracle_read_csv, path)
    assert got[0] == want[0], (got[:1] + got[-1:], want[:1] + want[-1:])
    if got[0] == "refused":
        assert got == want
        return got
    assert got[1] == want[1] and len(got[2]) == len(want[2])
    for have, expect in zip(got[2], want[2]):
        assert list(have) == list(expect)
        assert ([cell_key(v) for v in have.values()]
                == [cell_key(v) for v in expect.values()]), (have, expect)
    return got


def csv_lines(rng, kind, n, texts=ASCII_TEXT):
    """The header and the rows of a random table written by write_csv."""
    table, _ = random_table(rng, kind, n, texts=texts)
    return written(write_csv, kind, table).split("\n")


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@pytest.mark.parametrize("texts", [ASCII_TEXT, TEXT], ids=["ascii", "text"])
@pytest.mark.parametrize("n", [0, 1, 9, 600])
def test_random_tables_read_as_oracle(tmp_path, kind, texts, n):
    rng = np.random.default_rng([n, len(texts), *map(ord, kind)])
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(csv_lines(rng, kind, n, texts)))
    assert assert_read_as_oracle(str(path))[0] == "read"


# Cell texts a mutated file may hold: the spellings of numbers that both
# parsers take or both refuse, the ones only Python's takes, and the
# characters on which numpy's number parser and Python's disagree.
ODD_CELLS = (
    "", " ", " 1.5 ", "\t2\t", "\x0b3\x0c", "nan", "-nan", "NaN", "+inf",
    "-Infinity", "inf", "1e999", "-0", "+5", "007", "1.0", "1_0", "1__0",
    "_1", "1e5", ".5", "5.", "0x10", "1,5", "99999999999999999999",
    "-9223372036854775808", "9223372036854775807", "9223372036854775808",
    "5\x1c", "\x1f5", "5\x00", "\u0663", "1\u0663", "\u30ec", "1\u30ec2",
    "\u00a05\u2003", "5\x85", "\uff15", "\U0001d7d8", "abc", "1.5x",
    "#1", "long " * 40, "# not a comment",
)


def mutate(rng, lines, kind):
    """One edit of a written CSV's lines (header and names kept)."""
    ncols = len(SCHEMAS[kind])
    body = lines[2:]
    rows = [k for k, line in enumerate(body) if line]
    edit = rng.integers(0, 9)
    if edit == 0 and rows:  # cells replaced by odd texts
        for _ in range(rng.integers(1, 4)):
            k = rows[rng.integers(len(rows))]
            cells = body[k].split(",")
            cells[rng.integers(len(cells))] = ODD_CELLS[
                rng.integers(len(ODD_CELLS))]
            body[k] = ",".join(cells)
    elif edit == 1 and rows:  # a column emptied in some rows
        col = rng.integers(ncols)
        for k in rows:
            if rng.random() < 0.5:
                cells = body[k].split(",")
                cells[col % len(cells)] = ""
                body[k] = ",".join(cells)
    elif edit == 2:  # comment, blank and whitespace lines
        for _ in range(rng.integers(1, 4)):
            body.insert(rng.integers(len(body) + 1),
                        ("# note", "", "#", " ", "\t", " # note",
                         ",")[rng.integers(7)])
    elif edit == 3 and rows:  # a short or a long row
        k = rows[rng.integers(len(rows))]
        cells = body[k].split(",")
        body[k] = ",".join(cells[:rng.integers(ncols)] if rng.random() < 0.5
                           else cells + cells[:rng.integers(1, 3)])
    elif edit == 4:  # no rows left, or only comments and blank lines
        body = [line for line in body if rng.random() < 0.5 and (
            not line or line.startswith("#"))] + ["# note", ""]
    elif edit == 5 and rows:  # whitespace around cells
        k = rows[rng.integers(len(rows))]
        body[k] = ",".join(f" {cell}\t" for cell in body[k].split(","))
    elif edit == 6 and rows:  # text columns long
        k = rows[rng.integers(len(rows))]
        cells = body[k].split(",")
        for c, (_, typ) in zip(range(len(cells)), SCHEMAS[kind]):
            if typ is str:
                cells[c] = "x" * int(rng.integers(20, 300)) + cells[c]
        body[k] = ",".join(cells)
    elif edit == 7 and rows:  # an int or a float spelled with '_' or '.0'
        k = rows[rng.integers(len(rows))]
        cells = body[k].split(",")
        c = rng.integers(len(cells))
        cells[c] = ("1_0", "1.0", "12_345", "-0.0")[rng.integers(4)]
        body[k] = ",".join(cells)
    elif edit == 8:  # no final line break, or CRLF line breaks
        return "\r\n".join(lines[:2] + body) if rng.random() < 0.5 else (
            "\n".join(lines[:2] + body).rstrip("\n"))
    return "\n".join(lines[:2] + body)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_mutated_files_read_as_oracle(tmp_path, kind):
    rng = np.random.default_rng([7, *map(ord, kind)])
    path = tmp_path / "mutated.csv"
    outcomes = set()
    for trial in range(300):
        lines = csv_lines(rng, kind, int(rng.integers(0, 12)),
                          TEXT if trial % 4 == 0 else ASCII_TEXT)
        text = lines
        for _ in range(rng.integers(1, 4)):
            text = mutate(rng, text if isinstance(text, list)
                          else text.split("\n"), kind)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        outcomes.add(assert_read_as_oracle(str(path))[0])
    assert outcomes == {"read", "refused"}


@pytest.mark.parametrize("cell", ODD_CELLS)
@pytest.mark.parametrize("column", ["beta", "branch", "interval"])
def test_odd_cells_read_as_oracle(tmp_path, cell, column):
    rec = {"beta": 2.9, "branch": "W0+", "interval": 1, "x_param": 0.5,
           "nu1": 0.2, "nu2": 0.3, "nu3": 0.5, "alpha1": 0.1, "alpha2": 0.2,
           "alpha3": 0.7, "p": -1.5, "q": 2.5}
    lines = written(write_csv, "slice_point", [rec] * 3).split("\n")
    cells = lines[3].split(",")
    cells[[name for name, _ in SCHEMAS["slice_point"]].index(column)] = cell
    lines[3] = ",".join(cells)
    path = tmp_path / "odd.csv"
    path.write_text("\n".join(lines))
    assert_read_as_oracle(str(path))


def test_files_numpy_parses_are_read_in_one_pass(tmp_path, monkeypatch):
    """Empty cells, long text cells, comment and blank lines, whitespace
    around numbers and a body without rows are all read by one call of
    numpy's C reader, with no line-by-line pass."""
    def refuse(*args):
        raise AssertionError("checked line by line")
    rng = np.random.default_rng(5)
    maxwell = csv_lines(rng, "maxwell_point", 40)
    census = csv_lines(rng, "census", 40)
    census[4] = census[4].replace(",minimum,", ",minimum" + "m" * 500 + ",")
    census[5] = census[5].replace(",0,", ", 0 ,", 1)
    census.insert(6, "# note")
    census.insert(7, "")
    first, last = list(census), list(census)
    first[3] = first[3][first[3].index(","):]
    last[3] = last[3][:last[3].rindex(",") + 1]
    files = {"maxwell": maxwell, "census": census, "empty first cell": first,
             "empty last cell": last,
             "no rows": census[:2] + ["# note: nothing", ""],
             "empty body": census[:2]}
    want = {}
    for name, lines in files.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines))
        want[name] = assert_read_as_oracle(str(path))
    assert any(rec["m4_nu1"] is None for rec in want["maxwell"][2])
    assert want["empty first cell"][2][1]["beta"] is None
    assert want["empty last cell"][2][1]["degenerate_warning"] is None
    assert len(want["no rows"][2]) == len(want["empty body"][2]) == 0
    calls = []
    records = export._records
    monkeypatch.setattr(export, "_refuse", refuse)
    monkeypatch.setattr(export, "_records",
                        lambda *args: calls.append(args) or records(*args))
    for name in files:
        calls.clear()
        assert reading(read_csv, str(tmp_path / f"{name}.csv")) == want[name]
        assert len(calls) == (0 if "no rows" in name or "body" in name
                              else 1), name


def test_only_python_spellings_read_again(tmp_path, monkeypatch):
    """A file numpy refuses but Python parses (digits grouped by '_', an
    integer beyond 64 bits) is checked line by line, then read as text."""
    calls = []
    records = export._records
    monkeypatch.setattr(export, "_records",
                        lambda *args: calls.append(args[2]) or records(*args))
    for cell, value in (("1_0", 10), ("99999999999999999999", 10 ** 20 - 1)):
        path = write_rows(tmp_path, "slice_point", [
            f"2.9,W0,{cell},0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"])
        calls.clear()
        assert read_csv(path)[1][0]["interval"] == value
        assert calls == [False, True]


class TestReadJsonRefusals:
    def test_top_level_object(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps({"kind": "critical_temps"}))
        with pytest.raises(pl.DomainError, match="expected an array"):
            read_json(str(path))

    def test_entry_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"kind": "critical_temps"}, [1, 2]]))
        with pytest.raises(pl.DomainError, match="entry 1"):
            read_json(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "text.json"
        path.write_text("[{\"kind\": ")
        with pytest.raises(pl.DomainError, match="not JSON"):
            read_json(str(path))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        table, records = random_table(rng, "maxwell_point", 40)
        path = tmp_path / "max.json"
        path.write_text(written(write_json, "maxwell_point", table))
        assert read_json(str(path)) == ("maxwell_point", records)

    def test_census_round_trip_byte_for_byte(self, tmp_path):
        """The census point-kind column fills each object's ``kind`` slot;
        the reader tells the schema by the object's key set."""
        path = tmp_path / "census.json"
        assert cli.main(["census", "--records", "--beta",
                         repr(pl.BETA_ELLIS_WANG), "--uv", "0,0", "--format",
                         "json", "--out", str(path)]) == 0
        kind, records = read_json(str(path))
        assert kind == "census" and len(records) == 7
        assert written(write_json, kind, records) == path.read_text()
        table, records = random_table(np.random.default_rng(12), "census",
                                      300, texts=ASCII_TEXT)
        text = written(write_json, "census", table)
        path.write_text(text)
        assert read_json(str(path)) == ("census", records)
        assert_same_text(written(write_json, "census",
                                 read_json(str(path))[1]), text)


# ---------------------------------------------------------------------------
# CLI output against the per-row record builders
# ---------------------------------------------------------------------------

def slice_records_rows(curves):
    records = []
    for c in curves:
        pq = batch_pq(c.alpha)
        for k in range(len(c.x_param)):
            records.append({
                "beta": c.beta, "branch": c.branch.label,
                "interval": c.interval_index, "x_param": float(c.x_param[k]),
                "nu1": float(c.nu[k, 0]), "nu2": float(c.nu[k, 1]),
                "nu3": float(c.nu[k, 2]),
                "alpha1": float(c.alpha[k, 0]), "alpha2": float(c.alpha[k, 1]),
                "alpha3": float(c.alpha[k, 2]),
                "p": float(pq[k, 0]), "q": float(pq[k, 1]),
            })
    return records


def surface_records_rows(patches, beta_max):
    records = []
    for patch in patches:
        keep = patch.beta <= beta_max
        pq = batch_pq(patch.alpha)
        for k in np.flatnonzero(keep):
            records.append({
                "sign": patch.sign,
                "nu1": float(patch.nu[k, 0]), "nu2": float(patch.nu[k, 1]),
                "nu3": float(patch.nu[k, 2]), "beta": float(patch.beta[k]),
                "alpha1": float(patch.alpha[k, 0]),
                "alpha2": float(patch.alpha[k, 1]),
                "alpha3": float(patch.alpha[k, 2]),
                "p": float(pq[k, 0]), "q": float(pq[k, 1]),
            })
    return records


def potential_records_rows(beta, alpha, grid):
    xs, ys, nu, values = cli._potential_grid(beta, alpha, grid)
    records = []
    for i in range(len(xs)):
        for j in range(len(ys)):
            if np.isfinite(values[i, j]):
                records.append({
                    "beta": beta, "x": float(xs[i]), "y": float(ys[j]),
                    "nu1": float(nu[i, j, 0]), "nu2": float(nu[i, j, 1]),
                    "nu3": float(nu[i, j, 2]), "f": float(values[i, j]),
                })
    return records


def census_records_rows(beta, alpha):
    return cli._census_records(pl.census(pl.ModelParams(beta, alpha)))


BETA_EW = 4.0 * math.log(2.0)
TILTED = pl.AprioriMeasure(0.345, 0.345, 0.31)

# The record outputs of the render-export benchmark (its OBJ mesh and SVG
# contour plot do not go through the writers) and a few neighbours.
CLI_CASES = [
    (["surface", "--grid", "128", "--beta-max", "4"], "surface_point",
     lambda: surface_records_rows(surface_patches(128), 4.0), None),
    (["surface", "--grid", "33", "--beta-max", "2.5"], "surface_point",
     lambda: surface_records_rows(surface_patches(33), 2.5), None),
    (["slice", "--beta", "2.9"], "slice_point",
     lambda: slice_records_rows(slice_curves(2.9, 400)), None),
    (["slice", "--beta", "2.3", "--samples", "50"], "slice_point",
     lambda: slice_records_rows(slice_curves(2.3, 50)), None),
    (["slice", "--beta", "1.5"], "slice_point", lambda: [],
     "no degenerate stationary points for beta <= 2"),
    (["potential", "--beta", "2.6", "--alpha", "0.345,0.345,0.31"],
     "potential_grid", lambda: potential_records_rows(2.6, TILTED, 128),
     None),
    (["critical", "--records"], "critical_temps",
     lambda: [dataclasses.asdict(pl.all_critical_temps())], None),
    (["census", "--records", "--beta", repr(BETA_EW), "--uv", "0,0"],
     "census", lambda: census_records_rows(BETA_EW,
                                           pl.AprioriMeasure.uniform()),
     None),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, kind, rows, note", CLI_CASES)
def test_cli_records_match_row_builders(tmp_path, argv, kind, rows, note,
                                        fmt):
    out = tmp_path / f"out.{fmt}"
    assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
    records = rows()
    expected = (oracle_csv(kind, records, note) if fmt == "csv"
                else oracle_json(kind, records))
    assert_same_text(out.read_text(), expected)


def maxwell_record(beta, section, index, alpha, depth, minimizers):
    u, v = batch_uv(alpha)
    x, y = batch_xy(alpha)
    rec = {
        "beta": beta, "section": section, "index": index,
        "alpha1": float(alpha[0]), "alpha2": float(alpha[1]),
        "alpha3": float(alpha[2]),
        "u": float(u), "v": float(v), "x": float(x), "y": float(y),
        "depth": depth, "n_minimizers": len(minimizers),
    }
    for k in range(4):
        for c in range(3):
            rec[f"m{k + 1}_nu{c + 1}"] = (float(minimizers[k][c])
                                          if k < len(minimizers) else None)
    return rec


def maxwell_records_rows(beta, step=0.005, segment_samples=40,
                         tol=pl.DEFAULT_TOL):
    """The maxwell records built one dict at a time from the constructs."""
    def point_rows(section, points, swap=(0, 1, 2)):
        return [maxwell_record(beta, section, k, p.alpha.array[list(swap)],
                               p.depth,
                               [m.array[list(swap)] for m in p.minimizers])
                for k, p in enumerate(points)]

    tp = None
    if mw.BETA_BUTTERFLY < beta < mw.BETA_ELLIS_WANG:
        tp = mw.triple_point(beta, tol=tol)
        segment = mw._segment_to_triple(tp)
    else:
        segment = mw.symmetric_segment(beta, tol=tol)
    pair = mw.track_segment_pair(segment, n=segment_samples, tol=tol)
    records = [maxwell_record(beta, "segment", k, alpha, float(depth), list(p))
               for k, (alpha, depth, p) in enumerate(zip(
                   pair.fields, pair.depths, pair.pairs))]
    if tp is not None:
        records += point_rows("triple", [tp])
        curve = mw.coexistence_curve(beta, step=step, tol=tol, origin=tp)
        records += point_rows("curve", curve.points)
        records += point_rows("curve_mirror", curve.points, (1, 0, 2))
    if beta >= mw.BETA_ELLIS_WANG:
        glob = mw.beyond_ellis_wang_segment(
            beta, tol=tol).uniform_census.global_minimizers
        records.append(maxwell_record(
            beta, "uniform", 0, pl.AprioriMeasure.uniform().array,
            glob[0].value if glob else 0.0, [p.nu.array for p in glob]))
    return records


@pytest.mark.parametrize("beta", [2.4, 2.6, 2.7, 3.0])
def test_cli_maxwell_matches_oracle_writers(tmp_path, beta):
    records = maxwell_records_rows(beta)
    assert records
    for fmt, expected in (("csv", oracle_csv("maxwell_point", records)),
                          ("json", oracle_json("maxwell_point", records))):
        out = tmp_path / f"maxwell.{fmt}"
        assert cli.main(["maxwell", "--beta", repr(beta), "--format", fmt,
                         "--out", str(out)]) == 0
        assert_same_text(out.read_text(), expected)
