"""`src/repro` runs on the standard library alone.

Two guards: every import statement under ``src/repro`` names ``repro``
or a standard-library module, and importing the package's entry points
loads no other top-level module, third-party ones imported indirectly
included.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = set(sys.stdlib_module_names) | {"repro"}


def imported_top_levels(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path",
    sorted((SRC / "repro").rglob("*.py")),
    ids=lambda path: str(path.relative_to(SRC)),
)
def test_every_import_is_repro_or_stdlib(path):
    assert imported_top_levels(path) - ALLOWED == set()


def test_importing_the_package_loads_only_stdlib_modules():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.network, repro.engine, repro.workloads, repro.report\n"
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro" in loaded
    assert set(loaded) - ALLOWED == set()
