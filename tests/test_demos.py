"""The demo scripts and the README examples import only names the package provides.

Each script under ``demos/`` and each fenced ``python`` block of
``README.md`` is parsed, not run: running the demos takes minutes and
writes files. Every ``from pilotopt... import name`` must resolve, so a
removed or renamed public name breaks this test instead of the demo or
the documented example.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
    flags=re.MULTILINE | re.DOTALL,
)


def _package_imports(source, filename):
    tree = ast.parse(source, filename=filename)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "pilotopt":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pilotopt":
                    yield alias.name, None


def _assert_imports_resolve(source, label):
    imports = list(_package_imports(source, label))
    assert imports, f"{label} imports nothing from pilotopt"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{label}: {module_name} has no {name}"


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    _assert_imports_resolve(path.read_text(encoding="utf-8"), path.name)


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_imports_resolve(index):
    _assert_imports_resolve(README_BLOCKS[index], f"README.md python block {index}")
