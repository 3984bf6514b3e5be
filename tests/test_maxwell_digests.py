"""The bytes of the ``maxwell`` CSVs pinned by their SHA-256.

``maxwell_digests.txt`` holds one command per line: the SHA-256 of the CSV
that ``maxwell`` writes, then the command's arguments.  The commands are
the benchmark's phase-diagram argv, default flags at beta 2.4, 2.6, 2.7 and
3.0, and beta 2.4 with 5000 segment samples.  Every row of these files
comes from a solver (the segment, the triple point, the curve, the
zero-field census), so a change that moves any of their bits fails here.

Regenerate the file (only when such a change is intended, and with a line
in CHANGES.md that explains which bits moved and why) with

    PYTHONPATH=src python tests/test_maxwell_digests.py
"""

import hashlib
import pathlib
import tempfile

import pytest

from potts_landscape import cli

PINNED = pathlib.Path(__file__).with_name("maxwell_digests.txt")
COMMANDS = [["maxwell", "--beta", beta] for beta in ("2.4", "2.6", "2.7",
                                                     "3.0")]
COMMANDS.append(["maxwell", "--beta", "2.4", "--segment-samples", "5000"])


def _digest(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "maxwell.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_maxwell_csv_bytes_are_pinned(argv):
    pinned = dict(line.split(" ", 1)[::-1]
                  for line in PINNED.read_text().splitlines())
    assert _digest(argv) == pinned[" ".join(argv)]


if __name__ == "__main__":
    PINNED.write_text("".join(f"{_digest(argv)} {' '.join(argv)}\n"
                              for argv in COMMANDS))
