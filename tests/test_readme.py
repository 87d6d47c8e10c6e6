"""The README's Library section: its code runs, and it uses exactly the exports."""

import re
from pathlib import Path

import swarmfit

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_python_blocks_run_in_order():
    assert BLOCKS
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)


def test_exports_are_the_names_the_readme_uses():
    used = set(re.findall(r"\bsf\.(\w+)", "".join(BLOCKS)))
    assert used == set(swarmfit.__all__)
