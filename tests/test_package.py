"""The package stays NumPy-only: every import in ``src/dualmargin`` is from
the standard library, NumPy or the package itself."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "dualmargin"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    foreign = sorted(set(_imported_roots(path)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def test_modules_found():
    assert (PACKAGE / "cli.py").is_file()
