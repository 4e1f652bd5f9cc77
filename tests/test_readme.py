"""The README's library example runs against the current API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README}:library-example", "exec"), namespace)
    trace = namespace["trace"]
    assert len(trace.q_h) == 20_000
    assert math.isfinite(trace.tau_h) and math.isfinite(trace.tau_l)
    assert len(capsys.readouterr().out.splitlines()) == 2
