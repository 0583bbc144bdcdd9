"""Every name a module imports is used in that module.

Scans the package modules and the test files; ``__init__.py`` is left
out, since its imports are the package's re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "treeprov").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_imports():
    source = ("import os.path\nimport sys as system\n"
              "from a import b, c as d\n"
              "def f():\n    from e import g\n    return os.path, d\n")
    assert unused_imports(source) == [(2, "system"), (3, "b"), (5, "g")]


def test_no_unused_imports():
    found = {}
    for path in MODULES:
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert not found, "imported but never used: %s" % found
