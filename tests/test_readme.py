"""The Python example in README.md runs as printed."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), scope)
    assert out.getvalue()
    assert len(scope["small"]) <= len(scope["cycle"])
    assert scope["rep"].value >= 0
