"""Input helpers every layer imports: UTF-8 text and JSON files, ids, JSON
fields, and InputError, which builds every `error:` line that names a value
or a path."""

from __future__ import annotations

import json
import os
import string
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence, TextIO


# The width shown() cuts each of two ids to when they share an error line,
# so that the line stays within LINE_WIDTH characters.
PAIRED = 20
# The most characters an `error:` line holds, "error: " included, when
# cutting its path can make it so.
LINE_WIDTH = 120

_FORMATTER = string.Formatter()


def shown(value, width: int = 40) -> str:
    """repr(value) for an error line, cut to width characters and '…'. An
    int past int()'s digit limit, which repr cannot write, shows its bit
    length."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
    return text if len(text) <= width else text[:width] + "…"


def shown_ids(ids: Sequence) -> str:
    """A list of ids for an error line: its length and its first three
    items, each cut to PAIRED characters through shown."""
    more = ", …" if len(ids) > 3 else ""
    return f"{len(ids)} ({', '.join(shown(item, PAIRED) for item in ids[:3])}{more})"


class InputError(ValueError):
    """A fault in an input or a value. The message is the path and "line N",
    each when given, then text, joined by ': ' (text may place the path
    itself, as {path}). Each other {name} in text shows the value named so
    through shown, cut to 40 characters, or to PAIRED when two or more
    strings (ids) share the message; {name!s} and {name!r} show text the
    program made (a flag, a field name, shown_ids of a list) whole. str()
    holds the whole path; line() cuts it so that the printed line fits
    LINE_WIDTH."""

    def __init__(self, text: str, path=None, line: int = 0, **values):
        super().__init__(text)
        self.text, self.path, self.line_number, self.values = text, path, line, values

    @classmethod
    def within(cls, exc: ValueError, record: str, path, **values) -> "InputError":
        """exc, found in record (such as "session {session}") of the file at path."""
        if not isinstance(exc, InputError):
            exc = cls(str(exc).replace("{", "{{").replace("}", "}}"))
        return cls(f"{record}: {exc.text}", path, **exc.values, **values)

    def __str__(self) -> str:
        return self._message(self.path)

    def line(self) -> str:
        """'error: ' and the message, its path cut from the left to '…', but
        not into its last separator and file name, as far as the line needs
        to fit LINE_WIDTH."""
        path = str(self.path)
        name = len(path) - path.rfind(os.sep)  # the file name and its separator
        keep = max(len(path) + LINE_WIDTH - len(f"error: {self}") - 1, name)
        cut = self.path is not None and keep + 1 < len(path)
        return f"error: {self._message('…' + path[-keep:] if cut else self.path)}"

    def _message(self, path) -> str:
        converted = {name: conversion for _, name, _, conversion in _FORMATTER.parse(self.text)}
        ids = [value for name, value in self.values.items()
               if type(value) is str and not converted.get(name)]
        values = {name: value if converted.get(name) else
                  shown(value, PAIRED if len(ids) > 1 and type(value) is str else 40)
                  for name, value in self.values.items()}
        where = [] if path is None or "path" in converted else [str(path)]
        if self.line_number:
            where.append(f"line {self.line_number}")
        return ": ".join([*where, self.text.format(path=path, **values)])


def valid_id(text: str, file_name: bool = False) -> bool:
    """Whether text can stand as an id in the output files: non-empty,
    without whitespace, which would split a run file column, and UTF-8
    (not a lone surrogate, which a JSON escape can give). A file_name id
    (a session id names dump files) also holds no '/' or '\\' and is not
    '.' or '..'."""
    if text.split() != [text]:
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return not file_name or ("/" not in text and "\\" not in text and text not in (".", ".."))


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """The UTF-8 text file at path, open for reading. A byte that is not
    UTF-8, wherever the reader meets it, raises InputError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise InputError("not UTF-8 text: cannot decode byte {byte!s}", path,
                             byte=format(exc.object[exc.start], "#04x")) from None


def parse_json(text: str, path: str | Path, line: int = 0):
    """json.loads(text), read from path (from its given line, when not 0).
    Invalid JSON, JSON nested too deeply, or an integer with more digits than
    int() reads raises ValueError naming the file and the line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = str(exc)
    except ValueError:  # int() refused the digits of a JSON integer
        reason = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    except RecursionError:
        reason = "nested too deeply"
    raise InputError("invalid JSON: {reason!s}", path, line, reason=reason)


_KIND_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def json_field(obj, name: str, kind: type, default=None, items: type | None = None):
    """obj[name], of kind str, int, list or dict, and when items is given a
    list of items of that type only; default when missing, an error if
    default is None. InputError names the field, or says obj is `not a JSON object`."""
    if type(obj) is not dict:
        raise ValueError("not a JSON object")
    if name not in obj:
        if default is None:
            raise InputError("missing {field!r}", field=name)
        return default
    value = obj[name]
    # type(), not isinstance(): JSON true and false load as bool, not int.
    if type(value) is not kind:
        raise InputError("{field!r} must be {kind!s}", field=name, kind=_KIND_NAMES[kind])
    if items is not None and any(type(item) is not items for item in value):
        raise InputError("each item of {field!r} must be {kind!s}", field=name,
                         kind=_KIND_NAMES[items])
    return value


def load_json(path: str | Path):
    """The JSON document in the UTF-8 file at path; ValueError naming the
    file when it is not UTF-8 or not JSON."""
    with open_text(path) as handle:
        return parse_json(handle.read(), path)
