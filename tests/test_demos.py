"""The demos and the README examples use only names and flags the package provides.

Each script under ``demos/`` and each fenced ``python`` block of
``README.md`` is parsed, not run: running the demos takes minutes and
writes files. Every ``from pilotopt... import name`` must resolve, so a
removed or renamed public name breaks this test instead of the demo or
the documented example. Likewise every ``pilotopt`` command line of the
README's ``sh`` blocks must parse.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from pilotopt.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
README_COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("pilotopt ")
]


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


def test_readme_commands_found():
    assert len(README_COMMANDS) >= 5


@pytest.mark.parametrize("line", README_COMMANDS, ids=lambda line: line.split()[1])
def test_readme_commands_parse(line):
    build_parser().parse_args(shlex.split(line)[1:])
