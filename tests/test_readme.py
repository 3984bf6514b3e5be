"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The fenced Python block under "## Library example"."""
    text = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_library_example_prints_its_comments():
    code = library_example()
    want = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert want and out.getvalue().splitlines() == want
