"""README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})
    gfl, pfl, fairness = map(float, capsys.readouterr().out.split())
    assert 0.0 <= gfl <= 1.0 and 0.0 <= pfl <= 1.0 and fairness >= 0.0
