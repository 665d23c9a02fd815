"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sessionsearch"


def absolute_imports(path):
    """(line, top-level module) of each absolute import in the file at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_absolute_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name not in sys.stdlib_module_names and name != PACKAGE.name
    ]
    assert outside == []
