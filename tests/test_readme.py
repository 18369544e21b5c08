"""The README's code runs as written, so the docs follow the library."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first python code block after a ``## heading`` line."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("Quick start (library)"), "README.md", "exec"), {})
    acc, bound = out.getvalue().splitlines()
    assert 0.93 < float(acc) <= 1.0  # above the best single model's 0.93
    assert bound.startswith("BoundReport(W=")
