"""The exit-code contract of the command line as a seeded property test.

Every argv ends in one of two ways: exit 0 with finite output (CSV records
or a ``# note:`` line, a non-empty SVG) and nothing on stderr, or exit 2
(domain error) or 3 (numerical failure) with exactly one line on stderr.  No argv emits a
warning.  The argv are drawn from a fixed seed across all six subcommands:
inverse temperatures from 1e-3 to 1e4 and special values, edge and tie
fields, window extents from 1e-300 to 1e308, residual tolerances from
1e-18 to 1e-1, and small grids, sample counts and resolutions.
"""

import math
import warnings

import numpy as np
import pytest

from potts_landscape import export
from potts_landscape.cli import main

SEED = 20261020
SPECIAL = ("0", "-1", "inf", "nan", "1e308")


def _num(x):
    return f"{x:.6g}"


def _beta(rng):
    u = rng.random()
    if u < 0.15:
        return str(rng.choice(SPECIAL))
    if u < 0.5:  # the phase diagrams' own range
        return _num(rng.uniform(2.0, 4.0))
    return _num(10.0 ** rng.uniform(-3.0, 4.0))


def _positive(rng, lo, hi):
    """A flag that must be finite and positive: log-uniform in [lo, hi],
    now and then a special value."""
    if rng.random() < 0.1:
        return str(rng.choice(SPECIAL))
    return _num(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _tol(rng):
    """No --tol, or a residual tolerance log-uniform in [1e-18, 1e-1], now
    and then a special value."""
    return ["--tol", _positive(rng, 1e-18, 1e-1)] if rng.random() < 0.5 else []


def _field(rng):
    """No field, or an --alpha or --uv flag: random, tied, next to an edge,
    far out in log-ratio coordinates, or malformed."""
    kind = rng.integers(7)
    if kind == 0:
        return []
    if kind == 1:
        a = rng.dirichlet((1.0, 1.0, 1.0))
    elif kind == 2:  # two components tied
        t = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        a = rng.permutation([t, t, 1.0 - 2.0 * t])
    elif kind == 3:  # one component at the edge
        e = 10.0 ** rng.uniform(-15.0, -3.0)
        a = rng.permutation([e, 0.5 - 0.5 * e, 0.5 - 0.5 * e])
    elif kind == 4:
        u, v = (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 4.0)
                for _ in range(2))
        return [f"--uv={_num(u)},{_num(v)}"]
    elif kind == 5:
        return [f"--uv={_num(rng.normal(0.0, 3.0))},0"]
    else:
        return ["--alpha=" + str(rng.choice(["1,2", "a,b,c", "0,0.5,0.5",
                                             "-1,1,1", "nan,0.5,0.5"]))]
    return ["--alpha=" + ",".join(repr(float(x)) for x in a)]


def _slice(rng):
    fmt = str(rng.choice(["csv", "svg"]))
    argv = ["slice", "--beta", _beta(rng), "--format", fmt,
            "--samples", str(rng.integers(2, 65)),
            "--extent", _positive(rng, 1e-300, 1e308)]
    if rng.random() < (0.7 if fmt == "svg" else 0.1):
        argv += ["--label-cells", "--resolution", str(rng.integers(16, 65))]
        argv += _tol(rng)
    return argv


def _surface(rng):
    return ["surface", "--beta-max", _positive(rng, 1e-3, 1e4),
            "--grid", str(rng.integers(16, 41)),
            "--format", str(rng.choice(["csv", "obj"]))]


def _census(rng):
    return ["census", "--beta", _beta(rng)] + _field(rng) + _tol(rng)


def _critical(rng):
    return ["critical"]


def _maxwell(rng):
    return ["maxwell", "--beta", _beta(rng),
            "--step", _positive(rng, 2e-3, 1.0),
            "--segment-samples", str(rng.integers(1, 21)),
            "--extent", _positive(rng, 1e-300, 1e308),
            "--format", str(rng.choice(["csv", "svg"]))] + _tol(rng)


def _potential(rng):
    return (["potential", "--beta", _beta(rng), "--grid",
             str(rng.integers(16, 41)),
             "--format", str(rng.choice(["csv", "svg"]))] + _field(rng)
            + _tol(rng))


# argv per subcommand; critical takes no values
DRAWS = {_slice: 100, _surface: 40, _census: 150, _critical: 2,
         _maxwell: 100, _potential: 100}

# breaches found by an earlier, longer run of the same kind of generator
FIXED = [
    ["maxwell", "--beta", "1e308"],
    ["census", "--beta", "1e308", "--alpha", "0.2373,0.5254,0.2373"],
    ["slice", "--beta", "8.12", "--extent", "1e308", "--format", "svg",
     "--label-cells"],
    ["slice", "--beta", "4.26", "--samples", "2", "--extent", "1e-300",
     "--format", "svg", "--label-cells"],
]


def _draws(draw, n):
    rng = np.random.default_rng([SEED, list(DRAWS).index(draw)])
    return [draw(rng) for _ in range(n)]


def _breach(argv, path, capsys):
    """What the run of ``argv`` with output to ``path`` breaks of the
    contract, or None; and its exit code and stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(path)])
    err = capsys.readouterr().err
    if caught:
        return f"warning {caught[0].message!s}", code, err
    if code in (2, 3):
        lines = err.splitlines()
        return (None if len(lines) == 1 else f"{len(lines)} stderr lines",
                code, err)
    if code != 0 or err:
        return f"exit {code} with stderr {err!r}", code, err
    text = path.read_text()
    if "--format" in argv and argv[argv.index("--format") + 1] != "csv":
        return (None if text else "empty output"), code, err
    _, records = export.read_csv(str(path))
    if not records and "# note:" not in text:
        return "no records and no note", code, err
    for rec in records:
        for value in rec.values():
            if isinstance(value, float) and not math.isfinite(value):
                return f"non-finite value {value!r}", code, err
    return None, code, err


@pytest.mark.parametrize("draw", list(DRAWS), ids=lambda d: d.__name__[1:])
def test_drawn_argv_keep_the_contract(draw, tmp_path, capsys):
    breaches = []
    for k, argv in enumerate(_draws(draw, DRAWS[draw])):
        what = _breach(argv, tmp_path / f"out{k}", capsys)[0]
        if what:
            breaches.append(f"{' '.join(argv)}: {what}")
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("argv, expected", zip(FIXED, (3, 3, 2, 0)),
                         ids=("maxwell-1e308", "census-1e308",
                              "extent-1e308", "extent-1e-300"))
def test_found_breaches_are_mended(argv, expected, tmp_path, capsys):
    what, code, err = _breach(argv, tmp_path / "out", capsys)
    assert what is None and code == expected, (what, code, err)
