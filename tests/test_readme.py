"""The README's Python example runs against the library as it stands."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_examples() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_the_mixer_example_runs_and_finds_the_grid_minimum(mixer_grid_min):
    (code,) = python_examples()
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    trace = namespace["trace"]
    assert trace.best_value == mixer_grid_min["value"]
    assert list(trace.best_point) == mixer_grid_min["point"]
    assert out.getvalue().split(maxsplit=1)[0] == repr(trace.best_value)
