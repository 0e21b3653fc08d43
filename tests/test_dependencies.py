"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "gridcoord"


def imported_top_level(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = set().union(*(imported_top_level(p) for p in PACKAGE.rglob("*.py")))
    third_party = {name for name in imported
                   if name not in sys.stdlib_module_names and name != "gridcoord"}
    assert third_party, "no third-party import found; the scan is broken"
    assert third_party <= declared, sorted(third_party - declared)
