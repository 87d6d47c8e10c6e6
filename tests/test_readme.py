"""The README's Library section: its code runs, it uses exactly the exports,
and every submodule name it lists exists."""

import importlib
import re
from pathlib import Path

import swarmfit

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
# "- `swarmfit.<module>`: `Name`, ... ;" items of the "Everything else" list
SUBMODULE_ITEMS = re.findall(
    r"^- `(swarmfit\.\w+)`: (.*?)[;.]$",
    README.read_text().split("Everything else is imported from its submodule:")[1],
    re.M | re.S,
)


def test_python_blocks_run_in_order():
    assert BLOCKS
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)


def test_exports_are_the_names_the_readme_uses():
    used = set(re.findall(r"\bsf\.(\w+)", "".join(BLOCKS)))
    assert used == set(swarmfit.__all__)


def test_listed_submodule_names_exist():
    assert {module for module, _ in SUBMODULE_ITEMS} == {
        "swarmfit.pso", "swarmfit.model", "swarmfit.simulate", "swarmfit.bench"
    }
    for module_name, names in SUBMODULE_ITEMS:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`(\w+\*?)`", names):
            if name.endswith("*"):
                assert any(n.startswith(name[:-1]) for n in vars(module)), name
            else:
                assert hasattr(module, name), f"{module_name}.{name}"
