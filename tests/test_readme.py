"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    # each `print(...)  # -> 0.7833...` promises a printed line starting 0.7833
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*->\s*(\S+?)(?:\.\.\.)?$",
                                                block, re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(expected) == len(printed) == 4
    for want, got in zip(expected, printed):
        assert got.startswith(want), (got, want)
