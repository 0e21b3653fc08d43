"""Every exception class in ``errors.py`` is raised somewhere in the package
or is the base of another class there: an error nothing raises is dead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gridcoord"


def raised_names(tree):
    """Names of the classes ``raise`` statements in ``tree`` construct or name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised_or_a_base():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node for node in errors.body if isinstance(node, ast.ClassDef)]
    assert len(classes) > 10, "no error classes found; the scan is broken"
    bases = {base.id for cls in classes for base in cls.bases if isinstance(base, ast.Name)}
    raised = set().union(*(raised_names(ast.parse(path.read_text(encoding="utf-8")))
                           for path in PACKAGE.rglob("*.py")))
    dead = [cls.name for cls in classes if cls.name not in raised | bases]
    assert not dead, dead
