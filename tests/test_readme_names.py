"""Every name README gives a reader exists.

README points at test files, tests, flags and modules. A change that
renames or removes one of them must mend README too, so each of these
must resolve:

- each `tests/…`, `src/sessionsearch/…` or `bench/…` path, and each bare
  `name.py`, a file of the repository, of tests/, of the package or of
  bench/;
- each `file.py::name` (or `::Class::name`) after such a path, a function
  or class that the file defines;
- each `--flag`, an option of the command line (pip's
  `--no-build-isolation` aside);
- each `module.name` of the package, an attribute of that module.

Planted names show that a missing one is found.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

from sessionsearch import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sessionsearch"
DIRECTORIES = [ROOT, ROOT / "tests", PACKAGE, ROOT / "bench"]
MODULES = sorted(path.stem for path in PACKAGE.glob("[a-z]*.py"))
# Options of other programs that README names.
FOREIGN_FLAGS = {"--no-build-isolation"}

PATH = re.compile(r"\b((?:tests|src/sessionsearch|bench)/[\w/.-]*\w)((?:::\w+)*)")
FILE = re.compile(r"`(\w+\.py)`")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
ATTRIBUTE = re.compile(rf"`({'|'.join(MODULES)})\.(?!py`)(\w+)")


def cli_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of parser and of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                flags |= cli_flags(subparser)
    return flags


def defines(path: Path, names: list[str]) -> bool:
    """Whether the Python file at path defines names[0], names[1] within it,
    and so on."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def missing_names(text: str) -> list[str]:
    """Each name in text that does not resolve."""
    missing = []
    for path, tests in PATH.findall(text):
        if not (ROOT / path).exists():
            missing.append(path)
        elif tests and not defines(ROOT / path, tests.split("::")[1:]):
            missing.append(path + tests)
    missing += [name for name in FILE.findall(text)
                if not any((directory / name).is_file() for directory in DIRECTORIES)]
    flags = cli_flags(cli._build_parser()) | FOREIGN_FLAGS
    missing += [flag for flag in FLAG.findall(text) if flag not in flags]
    missing += [f"{module}.{name}" for module, name in ATTRIBUTE.findall(text)
                if not hasattr(importlib.import_module(f"sessionsearch.{module}"), name)]
    return missing


def test_every_name_in_readme_exists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert PATH.search(text) and FILE.search(text) and FLAG.search(text)
    assert ATTRIBUTE.search(text)
    assert missing_names(text) == []


def test_planted_names_are_found():
    good = ("`tests/test_cli.py::TestBadInputFiles::test_version_1_snapshot_asks_for_a_rebuild`, "
            "`src/sessionsearch/inputs.py`, `bench/run.py`, `test_index.py`, `lm.py`, --help, "
            "--mu, --no-build-isolation, `inputs.shown`")
    assert missing_names(good) == []
    planted = ("`tests/test_gone.py`, `tests/test_cli.py::test_gone`, "
               "`tests/test_cli.py::TestBadInputFiles::test_gone`, `src/sessionsearch/gone.py`, "
               "`gone.py`, --gone, `inputs.gone`")
    assert missing_names(planted) == [
        "tests/test_gone.py", "tests/test_cli.py::test_gone",
        "tests/test_cli.py::TestBadInputFiles::test_gone", "src/sessionsearch/gone.py",
        "gone.py", "--gone", "inputs.gone"]
