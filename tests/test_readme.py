"""The README's Python quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, f"{README}:python", "exec"), {})
