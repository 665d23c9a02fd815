"""Every error line that names a value or a path is built by InputError.

An `ast` pass over the package finds each raise. A raised f-string may
interpolate only InputError's output, an int line number (`lineno`) or a
module constant (an UPPER_CASE name); InputError's text, and the record
of InputError.within, must be a string constant or a module constant, so
that every value reaches the line through its named fields, and through
shown. Any other exception is raised with constant text. Planted sources
show that a raw value is found.

The rest checks what InputError decides: two ids on one line are cut to
PAIRED, and a line that would pass 120 characters cuts its path from the
left but keeps the file name, in the lines `cli.main` prints.
"""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from sessionsearch import cli
from sessionsearch.inputs import LINE_WIDTH, PAIRED, InputError, shown

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sessionsearch"
HELPER = "InputError"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def allowed(expr) -> bool:
    """Whether a raised f-string may interpolate expr."""
    if isinstance(expr, ast.Call):
        func = expr.func
        return (isinstance(func, ast.Name) and func.id == HELPER
                or isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == HELPER)
    return isinstance(expr, ast.Name) and (expr.id == "lineno" or CONSTANT.fullmatch(expr.id))


def constant_text(expr) -> bool:
    return (isinstance(expr, ast.Constant) and isinstance(expr.value, str)
            or isinstance(expr, ast.Name) and bool(CONSTANT.fullmatch(expr.id)))


def raw_interpolations(source: str, name: str) -> list[str]:
    """One finding per raise of the module source that shows a value
    other than through InputError."""
    findings = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        where = f"{name}:{node.lineno}"
        for part in ast.walk(node.exc):
            if isinstance(part, ast.FormattedValue) and not allowed(part.value):
                findings.append(f"{where}: f-string interpolates {ast.unparse(part.value)}")
        call = node.exc
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id == HELPER:
            texts = call.args[:1]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id == HELPER):
            texts = call.args[1:2]
        else:
            texts = [*call.args, *(keyword.value for keyword in call.keywords)]
        findings.extend(f"{where}: text {ast.unparse(text)} is not a constant"
                        for text in texts
                        if not constant_text(text) and not isinstance(text, ast.JoinedStr))
    return findings


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_every_raised_value_goes_through_input_error():
    sources = package_sources()
    assert "index.py" in sources
    assert [finding for name, source in sorted(sources.items())
            for finding in raw_interpolations(source, name)] == []


def test_a_raw_doc_id_put_back_is_found():
    source = package_sources()["index.py"]
    good = 'raise InputError("duplicate doc_id: {doc}", doc=doc_id)'
    assert good in source
    planted = {
        'raise ValueError(f"duplicate doc_id: {doc_id}")': "f-string interpolates doc_id",
        'raise InputError(f"duplicate doc_id: {doc_id}")': "f-string interpolates doc_id",
        'raise ValueError("duplicate doc_id: " + doc_id)': "is not a constant",
        'raise InputError("duplicate doc_id: " + doc_id)': "is not a constant",
    }
    for line, finding in planted.items():
        findings = raw_interpolations(source.replace(good, line), "index.py")
        assert len(findings) == 1 and finding in findings[0], (line, findings)


def test_constants_line_numbers_and_helper_output_may_be_interpolated():
    source = ("LIMIT = 3\n"
              "def f(lineno, error):\n"
              "    raise ValueError(f'{LIMIT} at {lineno}: {InputError(\"x\")}')\n")
    assert raw_interpolations(source, "m.py") == []


def test_two_ids_on_one_line_are_cut_to_paired():
    x, y = "x" * 50, "y" * 50
    assert str(InputError("doc {doc}", doc=x)) == f"doc {shown(x)}"
    assert str(InputError("doc {doc} under key {key}", doc=x, key=y)) == (
        f"doc {shown(x, PAIRED)} under key {shown(y, PAIRED)}")
    # A number is no id: it keeps 40 characters, and the one string too.
    assert str(InputError("rank {rank} under key {key}", rank=10**50, key=y)) == (
        f"rank {shown(10**50)} under key {shown(y)}")
    # A field with a conversion is the program's own text, shown whole.
    assert str(InputError("{flag!s} must be a number, got {value}", flag="--mu", value=x)) == (
        f"--mu must be a number, got {shown(x)}")


def test_location_leads_and_a_record_joins_the_values():
    error = InputError("duplicate doc id {doc} (first on line {first})", "c.jsonl", 3,
                       doc="d1", first=1)
    assert str(error) == "c.jsonl: line 3: duplicate doc id 'd1' (first on line 1)"
    inner = InputError("clicked doc {doc} does not appear in the impressions", doc="y" * 50)
    outer = InputError.within(inner, "session {session}", "s.json", session="x" * 50)
    assert str(outer) == (f"s.json: session {shown('x' * 50, PAIRED)}: clicked doc "
                          f"{shown('y' * 50, PAIRED)} does not appear in the impressions")
    foreign = InputError.within(ValueError("a {brace}"), "session #{pos}", "s.json", pos=0)
    assert str(foreign) == "s.json: session #0: a {brace}"


def test_a_long_path_is_cut_from_the_left_and_keeps_its_file_name():
    directory = "/" + "a" * 60 + "/" + "b" * 60
    error = InputError("invalid JSON: {reason!s}", f"{directory}/sessions.json",
                       reason="Expecting value: line 2 column 1 (char 15)")
    assert str(error).startswith(f"{directory}/sessions.json: ")
    line = error.line()
    assert len(line) == LINE_WIDTH
    assert line.startswith("error: …") and line.endswith(
        "b/sessions.json: invalid JSON: Expecting value: line 2 column 1 (char 15)")
    # A short line keeps its path whole; a file name is never cut.
    assert InputError("x", "a/b.json").line() == "error: a/b.json: x"
    name = "n" * 130
    assert InputError("x", f"{directory}/{name}").line() == f"error: …/{name}: x"


@pytest.fixture
def long_directory(tmp_path):
    """A directory under two 60-character directories."""
    directory = tmp_path / ("a" * 60) / ("b" * 60)
    directory.mkdir(parents=True)
    return directory


def error_line(argv) -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 2
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("WARNING ")]
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert len(lines[0]) <= LINE_WIDTH, lines[0]
    return lines[0]


def test_long_paths_get_one_short_line_that_names_the_file(long_directory):
    d = long_directory
    (d / "corpus.jsonl").write_text('{"id": "d1", "text": "jazz"}\n', encoding="utf-8")
    assert cli.main(["index", "--corpus", str(d / "corpus.jsonl"), "--out", str(d / "i.idx")]) == 0
    (d / "sessions.json").write_text(json.dumps({"sessions": [{
        "session_id": "s1", "topic_id": "t1", "current_query": "jazz"}]}), encoding="utf-8")
    (d / "bad.json").write_text('{"sessions": [', encoding="utf-8")
    run = ["run", "--index", str(d / "i.idx"), "--sessions", str(d / "sessions.json")]
    cases = [  # (what the line says around the path it cuts, argv)
        ("b/bad.json: invalid JSON: ",
         ["run", "--index", str(d / "i.idx"), "--sessions", str(d / "bad.json"), "--out", "o"]),
        ("index file not found: …", ["run", "--index", str(d / "missing.idx"),
                                     "--sessions", str(d / "sessions.json"), "--out", "o"]),
        ("No such file or directory: '…", [*run, "--out", str(d / "nodir" / "run.txt")]),
    ]
    lines = [error_line(argv) for _, argv in cases]
    for (named, _), line in zip(cases, lines):
        assert named in line and "…" in line and "a" * 60 not in line, line
    assert lines[1].endswith("b/missing.idx")
    assert lines[2].endswith("b/nodir/run.txt'")
