"""No package module imports a name it never uses, and no private
module-level function, class or assigned name goes unreferenced in the
package.

A private definition counts as referenced when any statement of any package
module other than its own definition names it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sessionsearch"


def read_names(node):
    """Every name node reads."""
    return {child.id for child in ast.walk(node)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)}


def references(node):
    """Every name node reads, as a name, an attribute or an imported name."""
    yield from read_names(node)
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def unused_imports(tree):
    """(line, name) of each name an import binds that the module never reads."""
    read = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    yield node.lineno, bound


def defined_names(stmt):
    """The names a module-level statement defines: a function's or class's
    name, or each name an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def dead_code(sources):
    """One finding per unused import and per unreferenced private
    module-level function, class or assigned name, for sources mapping a
    module's file name to its text."""
    trees = {name: ast.parse(text, filename=name) for name, text in sorted(sources.items())}
    findings = [f"{name}:{line}: unused import {bound}"
                for name, tree in trees.items()
                for line, bound in unused_imports(tree)]
    statements = [(name, stmt) for name, tree in trees.items() for stmt in tree.body]
    for name, stmt in statements:
        for defined in defined_names(stmt):
            if (defined.startswith("_") and not defined.startswith("__")
                    and not any(defined in references(other)
                                for _, other in statements if other is not stmt)):
                findings.append(f"{name}:{stmt.lineno}: {defined} is never referenced")
    return findings


def package_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_package_has_no_unused_import_or_unreferenced_private_definition():
    sources = package_sources()
    assert "srm.py" in sources
    assert dead_code(sources) == []


def test_planted_unused_import_and_unreferenced_private_function_are_found():
    sources = package_sources()
    sources["leftover.py"] = ("from typing import Iterator\n\n\n"
                              "def _staged_leftover():\n    return _staged_leftover\n")
    assert dead_code(sources) == [
        "leftover.py:1: unused import Iterator",
        "leftover.py:4: _staged_leftover is never referenced",
    ]


def test_planted_unreferenced_private_assignments_are_found():
    sources = package_sources()
    sources["leftover.py"] = ("_X = 1\n_FIELDS: frozenset = frozenset()\n"
                              "_a, (_b, PUBLIC) = 1, (2, 3)\n_USED = 4\nVALUE = _USED + _a\n")
    assert dead_code(sources) == [
        "leftover.py:1: _X is never referenced",
        "leftover.py:2: _FIELDS is never referenced",
        "leftover.py:3: _b is never referenced",
    ]


def test_init_import_is_checked_and_reference_from_another_module_counts_as_use():
    sources = {
        "__init__.py": "from .a import unused_here\n",
        "a.py": "import os\n\n\ndef _helper():\n    return os.sep\n",
        "b.py": "from .a import _helper\n\n\ndef f():\n    return _helper()\n",
    }
    assert dead_code(sources) == ["__init__.py:1: unused import unused_here"]
