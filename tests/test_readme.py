"""The Python example and the CLI block in README.md run as printed."""

import contextlib
import io
import pathlib
import re
import shlex

from phom import cli

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


def test_cli_block_runs_top_to_bottom(tmp_path, monkeypatch):
    """Every `phom` line of the CLI block, in order, in one empty
    directory, exits 0."""
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(),
                                    re.S) if "\nphom " in b]
    assert len(blocks) == 1
    lines = [ln for ln in blocks[0].replace("\\\n", " ").splitlines()
             if ln.startswith("phom ")]
    assert len(lines) >= 13
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
