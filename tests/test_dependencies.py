"""The third-party modules the package imports are exactly the
dependencies that pyproject.toml declares."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def imported_top_levels():
    names = set()
    for path in (ROOT / "src" / "mfe").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_match_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower()
                for d in declared}
    third_party = imported_top_levels() - set(sys.stdlib_module_names)
    assert third_party == declared
