"""The README's Python API example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    G = names["G"]
    # the example's comment: the Gram matrix of one degree is diagonal
    assert G[0][0] > 0 and G[0][1] == G[1][0] == 0
