"""README's library example runs as printed."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, flags=re.DOTALL).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[0].startswith("72.008"), printed
    # One Siciak batch, two points: value and facet slack per line.
    value, slack = map(float, printed[3].split())
    assert abs(value - float(printed[2])) <= 0.02 and slack == 0.0
    assert len(printed[4].split()) == 2
