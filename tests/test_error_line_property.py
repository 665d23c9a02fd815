"""Every error line fits, whatever its values and its path.

For each InputError text of the package (collected by the `ast` pass of
test_error_lines.py, module constants resolved), hypothesis draws, alone
or inside an InputError.within record:

- the values call sites pass unconverted: long and non-ASCII strings, ints
  past int()'s digit limit, floats, infinities and NaN;
- text of the kind the program makes, at most 40 characters, for each
  {name!s} and {name!r} field;
- a line number, and a path of deep directories and a file name of up to
  255 characters.

Each InputError.line() must be one line of at most LINE_WIDTH characters
that starts with `error: ` and still holds every literal part of its text.
Path and program text hold no control or line-separator characters, which
a line would print as they are.
"""

import os
import string

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from sessionsearch import index  # noqa: E402
from sessionsearch.inputs import LINE_WIDTH, InputError  # noqa: E402
from test_error_lines import error_texts  # noqa: E402

TEXTS, RECORDS = error_texts()
FORMATTER = string.Formatter()
CHARACTERS = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                           blacklist_characters=os.sep)
# repr cannot write an int past int()'s digit limit (4,300 by default).
HUGE = 10**5000
VALUES = st.one_of(st.text(max_size=300), st.integers(), st.integers(-10**60, 10**60),
                   st.sampled_from([HUGE, -HUGE, 10**4299]), st.floats())
PROGRAM_TEXT = st.text(CHARACTERS, max_size=40)
PATHS = st.builds(lambda root, directories, name: root + os.sep.join([*directories, name]),
                  st.sampled_from(["", os.sep]),
                  st.lists(st.text(CHARACTERS, min_size=1, max_size=30), max_size=20),
                  st.text(CHARACTERS, min_size=1, max_size=255))


def fields(text: str) -> dict:
    """Each field name of text and its conversion (None when it has none)."""
    return {name: conversion for _, name, _, conversion in FORMATTER.parse(text)
            if name is not None}


def draw_values(data, text: str) -> dict:
    return {name: data.draw(PROGRAM_TEXT if conversion else VALUES)
            for name, conversion in fields(text).items() if name != "path"}


def test_texts_and_records_are_collected():
    assert len(TEXTS) > 40 and "session {session}" in RECORDS
    assert "grade {grade} is not an integer" in TEXTS
    assert index._BAD_ID in TEXTS  # a module constant, resolved


@pytest.mark.parametrize("text", sorted(set(TEXTS)))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_error_line_fits_and_keeps_its_text(text, data):
    records = [record for record in RECORDS if not fields(record).keys() & fields(text).keys()]
    record = data.draw(st.sampled_from([None, *records]))
    given_path = "path" in fields(text) or data.draw(st.booleans())
    path = data.draw(PATHS) if given_path else None
    if record is None:
        error = InputError(text, path, data.draw(st.integers(0, 10**9)),
                           **draw_values(data, text))
    else:
        error = InputError.within(InputError(text, **draw_values(data, text)), record, path,
                                  **draw_values(data, record))
    line = error.line()
    assert line.startswith("error: ") and len(line.splitlines()) == 1, line
    assert len(line) <= LINE_WIDTH, line
    whole = text if record is None else f"{record}: {text}"
    for literal, *_ in FORMATTER.parse(whole):
        assert literal in line, (literal, line)
