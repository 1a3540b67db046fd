"""The runtime stays the standard library plus ``requests`` and ``click``."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tablediff"
RUNTIME_DEPENDENCIES = {"requests", "click"}


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module; relative ones are skipped."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_the_declared_runtime(path):
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES | {"tablediff"}
    assert imported_top_level_modules(path) - allowed == set()


def test_guard_sees_each_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path, numpy as np\nfrom orjson import dumps\n"
                      "from . import sibling\nfrom .sibling import x\n"
                      "def f():\n    import regex\n", encoding="utf-8")
    assert imported_top_level_modules(module) == {"os", "numpy", "orjson", "regex"}
