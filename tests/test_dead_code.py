"""No package module imports a name it never uses, no private
module-level function, class or assigned name goes unreferenced in the
package, and no public module-level function or class goes unreferenced
by the package, the bench scripts and the acceptance tests.

A definition counts as referenced when any statement of any package module
other than its own definition names it. A public function or class also
counts as referenced when a bench script or tests/test_acceptance.py names
it: those call the package from outside and must not change.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sessionsearch"


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


def dead_code(sources, outside=None):
    """One finding per unused import and per unreferenced private
    module-level function, class or assigned name, for sources mapping a
    module's file name to its text. When outside, the texts of the files
    outside the package whose references count, is given, also one per
    unreferenced public module-level function or class."""
    trees = {name: ast.parse(text, filename=name) for name, text in sorted(sources.items())}
    findings = [f"{name}:{line}: unused import {bound}"
                for name, tree in trees.items()
                for line, bound in unused_imports(tree)]
    outside_references = {name for text in outside or ()
                          for name in references(ast.parse(text))}
    statements = [(name, stmt, set(references(stmt)))
                  for name, tree in trees.items() for stmt in tree.body]
    for name, stmt, _ in statements:
        public = (outside is not None
                  and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not stmt.name.startswith("_"))
        for defined in defined_names(stmt):
            private = defined.startswith("_") and not defined.startswith("__")
            if public and defined in outside_references or not (public or private):
                continue
            if not any(defined in named for _, other, named in statements if other is not stmt):
                findings.append(f"{name}:{stmt.lineno}: {defined} is never referenced")
    return findings


def package_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def outside_sources():
    """The texts of the bench scripts and of the acceptance tests."""
    paths = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    return [path.read_text(encoding="utf-8") for path in paths]


def test_package_has_no_unused_import_or_unreferenced_private_definition():
    sources = package_sources()
    assert "srm.py" in sources
    assert dead_code(sources, outside_sources()) == []


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


def test_planted_public_leftover_is_found_unless_the_bench_or_acceptance_names_it():
    sources = package_sources()
    sources["leftover.py"] = ("def public_leftover():\n    return 1\n\n\n"
                              "class PublicLeftover:\n    pass\n\n\nVALUE = 1\n")
    assert dead_code(sources, outside_sources()) == [
        "leftover.py:1: public_leftover is never referenced",
        "leftover.py:5: PublicLeftover is never referenced",
    ]
    outside = ["from sessionsearch import leftover\n\nleftover.public_leftover()\n",
               "from sessionsearch.leftover import PublicLeftover\n"]
    assert dead_code(sources, outside_sources() + outside) == []
