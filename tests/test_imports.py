import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "harflow"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


ROOT = SRC.parent.parent


def _click_command(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _referenced_names(tree):
    """Identifiers a module refers to: names, attributes, imports and identifier strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():  # names patched by string, as perfbench does
                yield node.value


def test_every_definition_is_used():
    referenced = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            referenced.update(_referenced_names(ast.parse(path.read_text())))
    dead = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in referenced and not _click_command(node)
    )
    assert not dead, f"top-level definitions named nowhere else: {dead}"


def test_cli_import_leaves_numpy_unloaded():
    # numpy serves only the test oracles; every command runs without it
    code = "import sys, harflow.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert done.stdout.strip() == "False"
