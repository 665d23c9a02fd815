"""A bad parameter value never ends in a traceback or a usage dump.

Hypothesis draws parameter values, as flag text (scalar flags and grid
lists) and as config file JSON, and passes them to cli.main for run, tune
and eval with input files that do not exist. Whatever the value, the
command exits 2 with exactly one `error:` line of at most 120 characters
(logger WARNING lines aside), and that line holds none of Python's or
argparse's own texts. Inputs are named by short relative paths, because an
error line quotes the path of a bad config file.

Input files whose ids are 5,000 characters long, or lists of 300 ids, get
the same one short line: each id is cut, and a list shows its length and
its first three ids, cut shorter, so that 51-character ids fit too. So
does a line that names two 50-character ids: it cuts each of them
shorter.

A snapshot that hypothesis mutates (wrong types, dropped, renamed,
reordered or added keys, NaN and infinite counts, huge integers, a cut or
a byte that is not UTF-8) makes `run` either stop with that one line or
succeed with finite report numbers and no NaN score.
"""

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from sessionsearch import cli, pipeline  # noqa: E402

FOREIGN = ("usage:", "invalid literal", "could not convert", "Exceeds the limit")

INPUTS = {
    "run": ["--index", "absent.idx", "--sessions", "absent.json", "--out", "run.txt"],
    "tune": ["--index", "absent.idx", "--sessions", "absent.json", "--qrels", "absent.txt"],
    "eval": ["--run", "absent.run", "--sessions", "absent.json", "--qrels", "absent.txt"],
}
SCALAR_FLAGS = {
    "run": ["--method", *(p.flag for p in pipeline.PARAMS)],
    "tune": ["--method", *(p.flag for p in pipeline.PARAMS if not p.methods)],
    "eval": ["--k", "--depth"],
}
GRID_FLAGS = [p.flag for p in pipeline.PARAMS if p.methods]
CONFIG_KEYS = sorted(cli._CONFIG_KEYS)

# The longest int within int()'s digit limit (4,300 digits), and past it.
huge_digits = st.one_of(st.just("9" * 4300), st.integers(4301, 5001).map(lambda n: "9" * n))
items = st.one_of(
    st.sampled_from(["", " ", "1.5", "2.0", "x", "nan", "-nan", "inf", "-inf", "1e400",
                     "-1e400", "1e-400", "0", "-1", "1_0", "0x10", "٣", "５", "1e", "none"]),
    huge_digits,
    st.decimals(allow_nan=True, allow_infinity=True).map(str),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=12),
)
flag_texts = st.one_of(items, st.lists(items, max_size=4).map(",".join),
                       items.map(lambda item: f"{item},{item}"), st.text())

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)
# JSON text of a value; json.dumps cannot write an int past the digit limit.
json_texts = st.one_of(json_values.map(json.dumps), huge_digits, huge_digits.map("-".__add__),
                       huge_digits.map(lambda digits: f"[{digits}, {digits}]"))


@st.composite
def flag_cases(draw):
    command = draw(st.sampled_from(sorted(INPUTS)))
    flags = SCALAR_FLAGS[command] + (GRID_FLAGS if command == "tune" else [])
    flag = draw(st.sampled_from(flags))
    argv = [command, *INPUTS[command], f"{flag}={draw(flag_texts)}"]
    if command == "tune" and flag not in GRID_FLAGS:
        argv.append("--m=5")  # a grid, so that the scalar flags are read
    return argv, None


@st.composite
def config_cases(draw):
    command = draw(st.sampled_from(["run", "tune"]))
    keys = st.one_of(st.sampled_from(CONFIG_KEYS), st.text(), st.just("x" * 5000))
    fields = draw(st.lists(st.tuples(keys, json_texts), min_size=1, max_size=3,
                           unique_by=lambda kv: kv[0]))
    config = "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in fields) + "}"
    return [command, *INPUTS[command], "--config", "params.json"], config


def one_error_line(argv, config, directory, may_succeed=False):
    """Run cli.main(argv) in directory (config, when given, in params.json)
    and check it exits 2 with one short `error:` line; with may_succeed, an
    exit 0 passes unchecked. Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if config is not None:
            with open("params.json", "w", encoding="utf-8") as handle:
                handle.write(config)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's exit
            code = exc.code
    if may_succeed and code == 0:
        return code
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("WARNING ")]
    assert code == 2, (argv, config, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, config, lines)
    assert len(lines[0]) <= 120, lines[0]
    assert not any(text in lines[0] for text in FOREIGN), lines[0]
    return code


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("no_traceback")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.one_of(flag_cases(), config_cases()))
def test_bad_parameter_value_gets_one_short_error_line(case, directory):
    one_error_line(*case, directory)


LONG = "x" * 5000
MANY = [f"x{i:04}" for i in range(300)]
X50, Y50 = "x" * 50, "y" * 50
# Long ids that sort before MANY's, so a list of both shows them.
W51 = [f"{'w' * 50}{i}" for i in range(4)]
INDEX = ["index", "--corpus", "c.jsonl", "--out", "i.idx"]
RUN = ["run", "--index", "i.idx", "--sessions", "s.json", "--out", "run.txt"]
EVAL = ["eval", "--run", "r.run", "--sessions", "s.json", "--qrels", "q.txt"]


def sessions(*entries):
    return json.dumps({"sessions": list(entries)})


def session(session_id="s1", topic_id="t1", impressions=("d1",), clicks=()):
    step = {"query": "jazz", "impressions": list(impressions),
            "clicks": [{"doc": doc_id} for doc_id in clicks]}
    return {"session_id": session_id, "topic_id": topic_id, "steps": [step],
            "current_query": "jazz"}


def snapshot(docs):
    return json.dumps({"magic": "sessionsearch-index", "version": 2, "docs": docs})


def corpus(*doc_ids):
    return "".join(json.dumps({"id": doc_id, "text": "jazz"}) + "\n" for doc_id in doc_ids)


# (argv, the input files by name); each case names one long id, a long id list,
# or (the two-ids cases) two 50-character ids in one line.
ID_CASES = {
    "session-id-a-list": (RUN, {"s.json": sessions({**session(), "session_id": ["s1"] * 3000})}),
    "session-id-a-long-int": (RUN, {"s.json": f'{{"sessions": [{{"session_id": {"9" * 4000}}}]}}'}),
    "session-id-with-whitespace": (RUN, {"s.json": sessions(session(LONG + " y"))}),
    "duplicate-session-ids": (RUN, {"s.json": sessions(*map(session, 2 * (W51 + MANY)))}),
    "duplicate-impression": (RUN, {"s.json": sessions(session(impressions=[LONG, LONG]))}),
    "click-not-among-impressions": (RUN, {"s.json": sessions(session(clicks=[LONG]))}),
    "corpus-doc-id-with-whitespace": (INDEX, {"c.jsonl": corpus(LONG + " y")}),
    "duplicate-corpus-doc-id": (INDEX, {"c.jsonl": corpus(LONG, LONG)}),
    "snapshot-doc-id-with-whitespace": (RUN, {"s.json": sessions(session()),
                                              "i.idx": snapshot({LONG + " y": {"jazz": 1}})}),
    "snapshot-doc-out-of-order": (RUN, {"s.json": sessions(session()),
                                        "i.idx": snapshot({LONG: {}, "d1": {}})}),
    "snapshot-doc-not-an-object": (RUN, {"s.json": sessions(session()),
                                         "i.idx": snapshot({LONG: [1]})}),
    "unknown-qrels-topic": (EVAL, {"r.run": "s1 Q0 d1 1 -1.0 t\n", "q.txt": "t1 0 d1 1\n",
                                   "s.json": sessions(session(topic_id=LONG))}),
    "conflicting-qrels-grades": (EVAL, {"r.run": "s1 Q0 d1 1 -1.0 t\n",
                                        "q.txt": f"{LONG} 0 d1 1\n{LONG} 0 d1 2\n",
                                        "s.json": sessions(session())}),
    "unknown-run-ids": (EVAL, {"r.run": "".join(f"{key} Q0 d1 1 -1.0 t\n"
                                                for key in W51 + MANY),
                               "s.json": sessions(session()), "q.txt": "t1 0 d1 1\n"}),
    "run-file-duplicate-doc": (EVAL, {"r.run": f"s1 Q0 {LONG} 1 -1.0 t\ns1 Q0 {LONG} 2 -2.0 t\n",
                                      "s.json": sessions(session()), "q.txt": "t1 0 d1 1\n"}),
    "run-file-repeated-rank": (EVAL, {"r.run": f"{LONG} Q0 d1 1 -1.0 t\n{LONG} Q0 d2 1 -2.0 t\n",
                                      "s.json": sessions(session()), "q.txt": "t1 0 d1 1\n"}),
    "two-ids-snapshot-doc-out-of-order": (RUN, {"s.json": sessions(session()),
                                                "i.idx": snapshot({Y50: {}, X50: {}})}),
    "two-ids-run-file-duplicate-doc": (EVAL, {
        "r.run": f"{Y50} Q0 {X50} 1 -1.0 t\n{Y50} Q0 {X50} 2 -2.0 t\n",
        "s.json": sessions(session()), "q.txt": "t1 0 d1 1\n"}),
    "two-ids-conflicting-qrels-grades": (EVAL, {"r.run": "s1 Q0 d1 1 -1.0 t\n",
                                                "q.txt": f"{Y50} 0 {X50} 1\n{Y50} 0 {X50} 2\n",
                                                "s.json": sessions(session())}),
    "two-ids-unknown-qrels-topic": (EVAL, {"r.run": f"{X50} Q0 d1 1 -1.0 t\n",
                                           "q.txt": "t1 0 d1 1\n",
                                           "s.json": sessions(session(X50, topic_id=Y50))}),
    "two-ids-click-not-among-impressions": (RUN, {"s.json": sessions(session(X50, clicks=[Y50]))}),
    "two-ids-duplicate-impression": (RUN, {
        "s.json": sessions(session(X50, impressions=[Y50, Y50]))}),
}


@pytest.mark.parametrize("case", sorted(ID_CASES))
def test_long_ids_in_input_files_get_one_short_error_line(case, tmp_path):
    argv, files = ID_CASES[case]
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    one_error_line(argv, None, tmp_path)


# A snapshot of three documents, which the session below searches.
SNAPSHOT = {"magic": "sessionsearch-index", "version": 2, "docs": {
    "d1": {"club": 1, "jazz": 2}, "d2": {"club": 1, "rock": 3}, "d3": {"jazz": 1, "record": 1}}}
SNAPSHOT_RUN = ["run", "--index", "i.idx", "--sessions", "s.json", "--qrels", "q.txt",
                "--out", "run.txt", "--report", "report.json"]
# Stands for a JSON integer of 4,290-4,310 digits, around int()'s limit of
# 4,300, which json.dumps cannot write.
HUGE = "<huge int>"
values = st.one_of(
    st.sampled_from([None, True, 0, -1, 1.5, 2.0, "1", [1], {"a": 1}, math.nan, math.inf,
                     -math.inf, 2**53, 10**20, HUGE]),
    st.integers(1, 5),
    json_values,
)
keys = st.one_of(st.sampled_from(["", " ", "d 1", "d1\n", "\u2003", "a", "zz", "d0", "d9"]),
                 st.text(max_size=3))


def objects(value):
    """Every JSON object in value, value itself first."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from objects(item)
    elif isinstance(value, list):
        for item in value:
            yield from objects(item)


@st.composite
def mutated_snapshots(draw):
    """SNAPSHOT's bytes after up to three edits of its objects (a value
    replaced, a key dropped or renamed, the keys reversed, a key added),
    then maybe cut short or given a byte that is not UTF-8."""
    snapshot = json.loads(json.dumps(SNAPSHOT))
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(list(objects(snapshot))))
        edit = draw(st.sampled_from(["replace", "drop", "rename", "reverse", "add"]))
        if not target or edit == "add":
            target[draw(keys)] = draw(values)
            continue
        key = draw(st.sampled_from(sorted(target)))
        if edit == "replace":
            target[key] = draw(values)
        elif edit == "drop":
            del target[key]
        else:
            items = list(target.items())
            if edit == "rename":
                new = draw(keys)
                items = [(new if k == key else k, v) for k, v in items]
            target.clear()
            target.update(reversed(items) if edit == "reverse" else items)
    text = json.dumps(snapshot).replace(json.dumps(HUGE), "9" * draw(st.integers(4290, 4310)))
    data = text.encode()
    ending = draw(st.sampled_from(["whole", "whole", "cut", "not-utf8"]))
    at = draw(st.integers(0, len(data) - 1))
    if ending == "cut":
        data = data[:at]
    elif ending == "not-utf8":
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data


def numbers(value):
    """Every number in a JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=mutated_snapshots(), method=st.sampled_from(pipeline.METHODS))
def test_mutated_snapshot_gets_one_error_line_or_finite_numbers(data, method, directory):
    # Whatever the snapshot holds, run either stops with one short error
    # line or writes a report whose every number is finite and a run file
    # without NaN scores. A run-file score may be -inf: a model term the
    # corpus lacks collapses the rerank (ROADMAP item 4).
    (directory / "i.idx").write_bytes(data)
    (directory / "s.json").write_text(json.dumps({"sessions": [{
        "session_id": "s1", "topic_id": "t1", "current_query": "jazz club",
        "steps": [{"query": "jazz records", "impressions": ["d1", "d3"],
                   "clicks": [{"doc": "d1"}]}]}]}), encoding="utf-8")
    (directory / "q.txt").write_text("t1 0 d1 2\nt1 0 d3 1\n", encoding="utf-8")
    for name in ("run.txt", "report.json"):
        (directory / name).unlink(missing_ok=True)
    if one_error_line([*SNAPSHOT_RUN, "--method", method], None, directory, may_succeed=True):
        return
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    assert all(map(math.isfinite, numbers(report))), report
    scores = [float(line.split()[4])
              for line in (directory / "run.txt").read_text(encoding="utf-8").splitlines()]
    assert not any(map(math.isnan, scores)), scores
