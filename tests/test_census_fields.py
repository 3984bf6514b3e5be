"""Census outcomes pinned field by field.

``census_fields.txt`` holds one field per line, ``beta a1 a2 a3`` as
``repr`` floats, then what its census found: the kinds of its points in
order, the number of local minima and the number of global minimizers, or
the name of the error it fails with.  The fields are the four named pins of
the benchmark's census sweep and 1,000 draws with beta uniform in [2, 4]
and alpha from Dirichlet(2, 2, 2) (seed 2022).  A change to the solver that
moves a root in its last bits keeps every line; one that loses, gains or
reclassifies a point, or changes a global set, does not.

Regenerate the file (only when such a change is intended) with

    PYTHONPATH=src python tests/test_census_fields.py
"""

import math
import pathlib

import numpy as np

import potts_landscape as pl

PINNED = pathlib.Path(__file__).with_name("census_fields.txt")


def _fields():
    third = 1.0 / 3.0
    yield from [(1.5, (third,) * 3), (4.0 * math.log(2.0), (third,) * 3),
                (3.0, (third,) * 3), (3.2595, (0.199, 0.667, 0.134))]
    rng = np.random.default_rng(2022)
    betas = rng.uniform(2.0, 4.0, 1000)
    alphas = rng.dirichlet((2.0, 2.0, 2.0), 1000)
    for beta, alpha in zip(betas.tolist(), alphas.tolist()):
        yield beta, tuple(alpha)


def _outcome(beta, alpha):
    try:
        census = pl.census(pl.ModelParams(beta, pl.AprioriMeasure(*alpha)))
    except pl.NumericalError as exc:
        return type(exc).__name__
    kinds = ",".join(p.kind.value[:3] for p in census.points)
    return f"{kinds} {census.n_local_minima} {len(census.global_minimizers)}"


def test_census_outcomes_are_pinned():
    lines = PINNED.read_text().splitlines()
    assert len(lines) == 1004
    changed = []
    for line in lines:
        *numbers, want = line.split(" ", 4)
        beta, *alpha = map(float, numbers)
        got = _outcome(beta, alpha)
        if got != want:
            changed.append((line, got))
    assert not changed, changed[:10]


if __name__ == "__main__":
    PINNED.write_text("".join(
        f"{beta!r} {' '.join(map(repr, alpha))} {_outcome(beta, alpha)}\n"
        for beta, alpha in _fields()))
