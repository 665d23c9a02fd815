"""Every error line that names a value or a path is built by InputError.

An `ast` pass over the package finds each raise. A raised f-string may
interpolate only InputError's output, an int line number (`lineno`) or a
module constant (an UPPER_CASE name); InputError's text, and the record
of InputError.within, must be a string constant or a module constant, so
that every value reaches the line through its named fields, and through
shown. Any other exception is raised with constant text. Planted sources
show that a raw value is found.

The rest checks what InputError decides. Short values print whole. A
line that would pass 120 characters is cut only as far as it needs: its
path from the left to the file name, then every shown value to one width,
then the file name, in the lines `cli.main` prints too. error_texts
collects every InputError text and record for the property test in
test_error_line_property.py.
"""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from sessionsearch import cli
from sessionsearch.inputs import LINE_WIDTH, InputError, shown

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


def error_texts() -> tuple[list[str], list[str]]:
    """Every InputError text and every InputError.within record of the
    package, in source order, a module constant resolved to its string."""
    texts, records = [], []
    for name, source in sorted(package_sources().items()):
        tree = ast.parse(source, filename=name)
        constants = {node.targets[0].id: node.value.value for node in tree.body
                     if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                     and isinstance(node.value, ast.Constant)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name) and func.id == HELPER:
                found, text = texts, node.args[0]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == HELPER):
                found, text = records, node.args[1]
            else:
                continue
            found.append(text.value if isinstance(text, ast.Constant) else constants[text.id])
    return texts, records


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


def test_long_values_are_cut_only_when_the_line_needs_it():
    # Short values print byte for byte, in str() and in the line.
    short = InputError("repeated rank {rank} under key {key} (first on line {first})",
                       "r.run", 2, rank=1, key="s1", first=1)
    assert str(short) == "r.run: line 2: repeated rank 1 under key 's1' (first on line 1)"
    assert short.line() == f"error: {short}"
    # Values that fit are shown at 40, two ids and ints alike.
    x, y = "x" * 50, "y" * 50
    for error in (InputError("doc {doc} under key {key}", doc=x, key=y),
                  InputError("rank {rank} under key {key}", rank=10**50, key=y)):
        assert error.line() == f"error: {error}"
    assert str(InputError("doc {doc} under key {key}", doc=x, key=y)) == (
        f"doc {shown(x)} under key {shown(y)}")
    # A field with a conversion is the program's own text, shown whole.
    assert str(InputError("{flag!s} must be a number, got {value}", flag="--mu", value=x)) == (
        f"--mu must be a number, got {shown(x)}")
    # Two 30-character ids and two 45-digit grades: every value is cut to
    # the widest width that fits, the grades too.
    values = {"topic": "t" * 30, "doc": "d" * 30, "grade": -10**44, "first_grade": -2 * 10**44}
    conflict = InputError("topic {topic} doc {doc} has grade {grade}, but line {first} gave it "
                          "grade {first_grade}", "qrels.txt", 2, first=1, **values)
    assert len(str(conflict)) == 214
    at = [f"error: qrels.txt: line 2: topic {shown(values['topic'], width)} doc "
          f"{shown(values['doc'], width)} has grade {shown(values['grade'], width)}, but line 1 "
          f"gave it grade {shown(values['first_grade'], width)}" for width in (10, 11)]
    assert conflict.line() == at[0] and len(at[0]) <= LINE_WIDTH < len(at[1])


def test_a_conflicting_grade_of_long_values_gets_one_short_line(tmp_path):
    (tmp_path / "run.txt").write_text("s1 Q0 d1 1 -1.0 t\n", encoding="utf-8")
    (tmp_path / "s.json").write_text(json.dumps({"sessions": [{
        "session_id": "s1", "topic_id": "t1", "current_query": "jazz"}]}), encoding="utf-8")
    # Two 30-character ids and two 45-digit grades.
    key = f"{'t' * 30} 0 {'d' * 30}"
    (tmp_path / "qrels.txt").write_text(f"{key} {-10**44}\n{key} {-2 * 10**44}\n",
                                        encoding="utf-8")
    line = error_line(["eval", "--run", str(tmp_path / "run.txt"), "--qrels",
                       str(tmp_path / "qrels.txt"), "--sessions", str(tmp_path / "s.json")])
    assert "qrels.txt: line 2: topic 'ttt" in line and ", but line 1 gave it grade -1000" in line


def test_location_leads_and_a_record_joins_the_values():
    error = InputError("duplicate doc id {doc} (first on line {first})", "c.jsonl", 3,
                       doc="d1", first=1)
    assert str(error) == "c.jsonl: line 3: duplicate doc id 'd1' (first on line 1)"
    inner = InputError("clicked doc {doc} does not appear in the impressions", doc="y" * 50)
    outer = InputError.within(inner, "session {session}", "s.json", session="x" * 50)
    assert str(outer) == (f"s.json: session {shown('x' * 50)}: clicked doc "
                          f"{shown('y' * 50)} does not appear in the impressions")
    # Its line cuts both ids to the one width that fits.
    assert outer.line() == (f"error: s.json: session {shown('x' * 50, 23)}: clicked doc "
                            f"{shown('y' * 50, 23)} does not appear in the impressions")
    assert len(outer.line()) == LINE_WIDTH
    foreign = InputError.within(ValueError("a {brace}"), "session #{pos}", "s.json", pos=0)
    assert str(foreign) == "s.json: session #0: a {brace}"


def test_a_long_path_is_cut_from_the_left_and_then_its_file_name():
    directory = "/" + "a" * 60 + "/" + "b" * 60
    error = InputError("invalid JSON: {reason!s}", f"{directory}/sessions.json",
                       reason="Expecting value: line 2 column 1 (char 15)")
    assert str(error).startswith(f"{directory}/sessions.json: ")
    line = error.line()
    assert len(line) == LINE_WIDTH
    assert line.startswith("error: …") and line.endswith(
        "b/sessions.json: invalid JSON: Expecting value: line 2 column 1 (char 15)")
    # A short line keeps its path whole; a file name too long for the line
    # is cut from the left.
    assert InputError("x", "a/b.json").line() == "error: a/b.json: x"
    name = "n" * 130
    assert InputError("x", f"{directory}/{name}").line() == f"error: …{name[-109:]}: x"
    assert len(f"error: …{name[-109:]}: x") == LINE_WIDTH


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
