"""README's "Library sketch" block runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_prints_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library sketch\s+```python\n(.*?)```", text, re.S).group(1)
    # each print's expected output is its trailing comment
    expected = [line.rsplit("# ", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert expected == ["-6*c^3", "False"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
