"""The demo scripts import only names the package still provides.

Each script under ``demos/`` is parsed, not run: running them takes
minutes and writes files. Every ``from pilotopt... import name`` must
resolve, so a removed or renamed public name breaks this test instead of
the demo.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "pilotopt":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pilotopt":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(_package_imports(path))
    assert imports, f"{path.name} imports nothing from pilotopt"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name} has no {name}"
