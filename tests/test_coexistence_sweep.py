"""The coexistence curve's invariants over the sweep of ``coexistence_sweep``
(statuses, fold ends on the cusp, triple ends on the mirrored triple point,
the tracked pair global at every point the census can classify): every
second step of 18/7 + k 5e-4 and the three temperatures next to 4 log 2,
about 4 s; all 405 temperatures with ``POTTS_FULL_SWEEP=1`` set."""

import os

import coexistence_sweep as sweep


def test_sweep_keeps_its_invariants():
    every = 1 if os.environ.get("POTTS_FULL_SWEEP") == "1" else 2
    traced = sweep.sweep(sweep.betas(every))
    found = [(t.beta, p) for t in traced for p in sweep.problems(t)]
    assert not found, (sweep.summary(traced), len(found), found[:10])
