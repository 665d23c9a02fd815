"""evalkit's run-file writer and parser agree with the frozen reference.

tests/run_file_reference.py keeps the writer that built the whole file as
one string and the parser that kept whole-file maps keyed by (key, rank)
and (key, doc). On small generated run files, evalkit.parse_run_file must
return the same rankings as the reference, or raise the same error line.
The files interleave keys, repeat ranks and docs under one key and across
keys, and hold malformed column counts, ranks and scores and blank lines;
the empty file is one of them. On generated rankings, evalkit.write_run_file
must write the same bytes, for no keys and for a key with an empty ranking
too. Ids are short, so no error line cuts one.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import run_file_reference  # noqa: E402
from sessionsearch import evalkit  # noqa: E402

KEYS = ["s1", "s2", "s3"]
DOCS = [f"d{i}" for i in range(1, 7)]
BAD_RANKS = ["0", "-1", "+2", "01", "x", "2.0", "１"]
BAD_SCORES = ["x", "1,5", "--1", "0x1p0"]
SCORES = ["-1.0", "0.5", "-0.0", "1e-300", "inf", "-inf", "nan", "1e400"]
BLANK_LINES = ["", " ", "\t", "  \t "]


@st.composite
def run_lines(draw):
    """A six-column line whose columns come from pools small enough that
    ranks and docs repeat within and across keys; or a blank line, or one
    with a bad column count, rank or score."""
    kind = draw(st.sampled_from(["good"] * 12 + ["blank", "columns", "rank", "score"]))
    if kind == "blank":
        return draw(st.sampled_from(BLANK_LINES))
    rank = draw(st.sampled_from(BAD_RANKS) if kind == "rank" else st.integers(1, 8).map(str))
    score = draw(st.sampled_from(BAD_SCORES if kind == "score" else SCORES))
    parts = [draw(st.sampled_from(KEYS)), "Q0", draw(st.sampled_from(DOCS)), rank, score, "t"]
    if kind == "columns":
        parts = (parts * 2)[:draw(st.sampled_from([1, 5, 7]))]
    return " ".join(parts)


run_texts = st.one_of(
    st.just(""),
    st.tuples(st.lists(run_lines(), max_size=12), st.booleans()).map(
        lambda drawn: "\n".join(drawn[0]) + ("\n" if drawn[1] and drawn[0] else "")),
)

scores = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, float("inf"), float("-inf")]))
rankings = st.dictionaries(
    st.text("sx0123456789-_", min_size=1, max_size=6),
    st.lists(st.tuples(st.text("dx0123456789.", min_size=1, max_size=6), scores), max_size=6),
    max_size=4,
)


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("run_files")


def outcome(parse, path):
    """parse(path)'s rankings, as repr so that NaN scores compare, or its error."""
    try:
        return "ok", repr(parse(path))
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=run_texts)
def test_parse_matches_the_reference(text, directory):
    path = directory / "run.txt"
    path.write_text(text, encoding="utf-8")
    assert outcome(evalkit.parse_run_file, path) == outcome(run_file_reference.parse_run_file,
                                                            path)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rankings=st.one_of(st.just({}), st.just({"s1": []}), rankings),
       tag=st.sampled_from(["t", "srm-qc", "none"]))
def test_write_matches_the_reference(rankings, tag, directory):
    evalkit.write_run_file(directory / "new.txt", rankings, tag)
    run_file_reference.write_run_file(directory / "old.txt", rankings, tag)
    assert (directory / "new.txt").read_bytes() == (directory / "old.txt").read_bytes()
