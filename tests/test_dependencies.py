"""The runtime stays the standard library plus ``requests``.

Offline commands do not even load ``requests``: only a live request does, so they
run on the standard library alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CLIMBERS_MANIFEST, FIXTURE_CACHE, GEOGRAPHY_MANIFEST, REPO

PACKAGE = REPO / "src" / "tablediff"
RUNTIME_DEPENDENCIES = {"requests"}


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


# Runs each command line of argv[1] (a JSON list) in this interpreter, then
# prints the HTTP-stack modules it loaded.
OFFLINE_COMMANDS = """
import json, sys
from tablediff import cli
for args in json.loads(sys.argv[1]):
    cli.main(args)
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] in ("requests", "urllib3"))))
"""


def test_offline_commands_never_load_the_http_stack(tmp_path):
    # A fresh interpreter, because this test process has imported requests already.
    commands = [
        ["analyze", "--manifest", str(CLIMBERS_MANIFEST), "--cache-dir", str(FIXTURE_CACHE),
         "--offline", "--out", str(tmp_path / "out")],
        ["langs", "--manifest", str(GEOGRAPHY_MANIFEST), "--cache-dir", str(FIXTURE_CACHE),
         "--offline"],
        ["report", "--in", str(tmp_path / "out" / "report.json"), "--format", "csv",
         "--out", str(tmp_path / "csv")],
    ]
    done = subprocess.run([sys.executable, "-c", OFFLINE_COMMANDS, json.dumps(commands)],
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "csv").is_dir()
    assert json.loads(done.stdout.splitlines()[-1]) == []
