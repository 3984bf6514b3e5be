"""The bytes of the benchmark's render-export outputs pinned by their SHA-256.

``render_digests.txt`` holds one command per line: the SHA-256 of the file
that the command writes, then the command's arguments (the output's format
last, as ``--out <format>``).  The commands are the benchmark's
render-export argv: the surface as OBJ and CSV, the 2.9 slice as CSV and
JSON, the tilted potential as CSV and SVG, the critical temperatures and
the census at 4 log 2.  They cover every writer the CLI has, so a change
to a writer or to the rows it is given that moves any byte fails here.

Regenerate the file (only when such a change is intended, and with a line
in CHANGES.md that explains which bytes moved and why) with

    PYTHONPATH=src python tests/test_render_digests.py
"""

import hashlib
import math
import pathlib
import tempfile

import pytest

from potts_landscape import cli

PINNED = pathlib.Path(__file__).with_name("render_digests.txt")
TILTED = ["--beta", "2.6", "--alpha", "0.345,0.345,0.31"]
COMMANDS = [
    (["surface", "--format", "obj", "--grid", "64", "--beta-max", "4"],
     "obj"),
    (["surface", "--grid", "128", "--beta-max", "4"], "csv"),
    (["slice", "--beta", "2.9"], "csv"),
    (["slice", "--beta", "2.9", "--format", "json"], "json"),
    (["potential", *TILTED], "csv"),
    (["potential", *TILTED, "--format", "svg"], "svg"),
    (["critical", "--records"], "csv"),
    (["census", "--records", "--beta", repr(4.0 * math.log(2.0)), "--uv",
      "0,0"], "csv"),
]


def _key(argv, ext):
    return " ".join([*argv, "--out", ext])


def _digest(argv, ext):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / f"out.{ext}"
        assert cli.main([*argv, "--out", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv,ext", COMMANDS,
                         ids=[_key(*command) for command in COMMANDS])
def test_render_output_bytes_are_pinned(argv, ext):
    pinned = dict(line.split(" ", 1)[::-1]
                  for line in PINNED.read_text().splitlines())
    assert _digest(argv, ext) == pinned[_key(argv, ext)]


if __name__ == "__main__":
    PINNED.write_text("".join(f"{_digest(*command)} {_key(*command)}\n"
                              for command in COMMANDS))
