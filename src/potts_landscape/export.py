"""Versioned CSV/JSON record export and reload.

Every file carries a record kind with a fixed, versioned column set.  CSV
files start with the line ``# potts-landscape v1 <kind>`` followed by a
header row; floats are serialized as shortest round-trip decimals, so a
reload reproduces the in-memory values bit for bit.  JSON files hold an
array of flat objects with the same field names plus ``kind`` and
``schema_version``.  Both writers stop with a ``NumericalError`` at the
first non-finite float; ``None`` marks an unused column (the spare Maxwell
minimizer slots).
"""

from __future__ import annotations

import json
import math

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


def _format_value(value, name: str) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericalError(f"refusing to write non-finite {name} = "
                                 f"{value!r}")
        return repr(value)
    return str(value)


def write_csv(fh, kind: str, records: list) -> None:
    columns = SCHEMAS[kind]
    fh.write(f"{MAGIC} {kind}\n")
    fh.write(",".join(name for name, _ in columns) + "\n")
    for rec in records:
        fh.write(",".join(_format_value(rec.get(name), name)
                          for name, _ in columns) + "\n")


def write_json(fh, kind: str, records: list) -> None:
    columns = SCHEMAS[kind]
    out = []
    for rec in records:
        obj = {"kind": kind, "schema_version": SCHEMA_VERSION}
        for name, _ in columns:
            obj[name] = rec.get(name)
        out.append(obj)
    try:
        json.dump(out, fh, indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write {kind} records: "
                             f"{exc}") from None
    fh.write("\n")


def read_csv(path: str):
    """Returns (kind, records); numbers are parsed back to full precision."""
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
        records = []
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            rec = {}
            for (name, typ), cell in zip(columns, cells):
                rec[name] = typ(cell) if cell != "" else None
            records.append(rec)
    return kind, records


def read_json(path: str):
    with open(path) as fh:
        data = json.load(fh)
    if not data:
        return None, []
    kind = data[0].get("kind")
    if kind not in SCHEMAS:
        raise DomainError(f"unknown record kind {kind!r} in {path}")
    records = []
    for obj in data:
        records.append({name: obj.get(name) for name, _ in SCHEMAS[kind]})
    return kind, records
