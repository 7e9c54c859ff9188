"""The runtime needs the standard library and numpy, nothing else."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = sys.stdlib_module_names | {"numpy", "ta_lift"}


def _absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted((ROOT / "src" / "ta_lift").glob("*.py"))
    assert sources
    outside = {path.name: sorted(_absolute_imports(path) - ALLOWED) for path in sources}
    assert {name: found for name, found in outside.items() if found} == {}


def test_project_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]] == ["numpy"]
