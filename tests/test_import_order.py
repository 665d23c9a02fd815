"""Package modules import downward only: each imports package names only
from the modules before it in LAYERS, so the input helpers and the stage
memo sit below every layer that uses them and no import cycle can form."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sessionsearch"

LAYERS = ("analysis", "inputs", "index", "lm", "session", "stages", "baselines", "srm",
          "pipeline", "evalkit", "cli")


def package_imports(tree):
    """(line, module) of each package module the tree imports, relatively
    (`from .x import`, `from . import x`) or by the package's name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == PACKAGE.name and module:
                    yield node.lineno, module.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").partition(".")
            if node.level == 0 and package != PACKAGE.name:
                continue
            if node.level:
                module = node.module or ""
            if module:
                yield node.lineno, module.partition(".")[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)


def upward_imports(sources):
    """One finding per module outside LAYERS and per import of a module
    not before the importer in LAYERS, for sources mapping a module's file
    name to its text. __init__ imports nothing and is not a layer."""
    findings = []
    for name, text in sorted(sources.items()):
        module = name.removesuffix(".py")
        if module == "__init__":
            rank = 0
        elif module in LAYERS:
            rank = LAYERS.index(module)
        else:
            findings.append(f"{name}: not in LAYERS")
            continue
        for line, imported in package_imports(ast.parse(text, filename=name)):
            if imported not in LAYERS[:rank]:
                findings.append(f"{name}:{line}: imports {imported}")
    return findings


def package_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_every_module_imports_only_from_earlier_layers():
    sources = package_sources()
    assert sorted(name.removesuffix(".py") for name in sources) == sorted(LAYERS + ("__init__",))
    assert upward_imports(sources) == []


def test_planted_upward_imports_are_found():
    sources = package_sources()
    sources["inputs.py"] += "\nfrom .index import InvertedIndex\n"
    sources["stages.py"] += "\nfrom . import srm, session\n"
    sources["lm.py"] += "\nimport sessionsearch.cli\nfrom sessionsearch.pipeline import RunConfig\n"
    sources["leftover.py"] = "from .analysis import analyze\n"
    lines = {name: text.count("\n") for name, text in sources.items()}
    assert upward_imports(sources) == [
        f"inputs.py:{lines['inputs.py']}: imports index",
        "leftover.py: not in LAYERS",
        f"lm.py:{lines['lm.py'] - 1}: imports cli",
        f"lm.py:{lines['lm.py']}: imports pipeline",
        f"stages.py:{lines['stages.py']}: imports srm",
    ]
