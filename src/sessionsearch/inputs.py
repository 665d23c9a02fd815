"""Input helpers every layer imports: UTF-8 text and JSON files, ids, JSON
fields, and how a value is shown in an `error:` line."""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence, TextIO


# The width shown() cuts each of two ids to when they share an error line,
# so that the line stays within 120 characters.
PAIRED = 20


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
    UTF-8, wherever the reader meets it, raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: not UTF-8 text: cannot decode byte {exc.object[exc.start]:#04x}"
            ) from None


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
    where = f"{path}: line {line}" if line else path
    raise ValueError(f"{where}: invalid JSON: {reason}")


_KIND_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def json_field(obj, name: str, kind: type, default=None, items: type | None = None):
    """obj[name], of kind str, int, list or dict, and when items is given a
    list of items of that type only; default when missing, an error if
    default is None. ValueError names the field, or says obj is `not a JSON object`."""
    if type(obj) is not dict:
        raise ValueError("not a JSON object")
    if name not in obj:
        if default is None:
            raise ValueError(f"missing {name!r}")
        return default
    value = obj[name]
    # type(), not isinstance(): JSON true and false load as bool, not int.
    if type(value) is not kind:
        raise ValueError(f"{name!r} must be {_KIND_NAMES[kind]}")
    if items is not None and any(type(item) is not items for item in value):
        raise ValueError(f"each item of {name!r} must be {_KIND_NAMES[items]}")
    return value


def load_json(path: str | Path):
    """The JSON document in the UTF-8 file at path; ValueError naming the
    file when it is not UTF-8 or not JSON."""
    with open_text(path) as handle:
        return parse_json(handle.read(), path)
