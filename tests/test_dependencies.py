"""Every third-party module the package imports is a declared dependency,
and importing the package leaves out the test-only ``scipy.optimize`` and
the ``scipy.linalg`` package."""

import ast
import os
import re
import subprocess
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


def test_library_import_leaves_out_scipy_optimize():
    """Importing the package, its command and the dispatch stages and
    running one round loads neither ``scipy.optimize`` nor the
    ``scipy.linalg`` package: only the HiGHS reference test uses the
    former, ``numkit`` loads just the two compiled modules of the latter,
    and either would add to every run's set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, gridcoord, gridcoord.cli, gridcoord.dso_dispatch, gridcoord.milp, "
            "gridcoord.tso; "
            "assert gridcoord.cli.main(['run', 'tiny-2bus']) == 0; "
            "loaded = {'scipy.optimize', 'scipy.linalg'} & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
