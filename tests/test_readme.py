"""The Python blocks of README.md run as written, so an API change cannot leave
the quickstart stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # in order, in one namespace, as a reader would paste them
        exec(compile(block, str(README), "exec"), namespace)
