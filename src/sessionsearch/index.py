"""Inverted index over a document corpus, with collection statistics.

The document table is the one stored form: records in doc_id order, each
count map in term order. Postings and collection statistics are derived
from it in one pass, so a built index and its loaded snapshot are equal down
to iteration order. The snapshot (JSON, magic header + format version) holds
the table as written; `load` rejects one out of order instead of re-sorting
it. An index is immutable once built.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import ge, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TextIO

from .analysis import AnalyzedText, analyze, term_memo

SNAPSHOT_MAGIC = "sessionsearch-index"
SNAPSHOT_VERSION = 1


def valid_id(text: str, file_name: bool = False) -> bool:
    """Whether text can stand as an id in the output files: non-empty and
    without whitespace, which would split a run file column. A file_name id
    (a session id names dump files) also holds no '/' or '\\' and is not
    '.' or '..'."""
    if text.split() != [text]:
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
    Invalid or too deeply nested JSON raises ValueError naming the file and
    the line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = str(exc)
    except RecursionError:
        reason = "nested too deeply"
    where = f"{path}: line {line}" if line else path
    raise ValueError(f"{where}: invalid JSON: {reason}")


def load_json(path: str | Path):
    """The JSON document in the UTF-8 file at path; ValueError naming the
    file when it is not UTF-8 or not JSON."""
    with open_text(path) as handle:
        return parse_json(handle.read(), path)


@dataclass(frozen=True)
class DocumentRecord:
    """Per-document term statistics (analyzed)."""

    doc_id: str
    term_counts: Mapping[str, int]
    length: int


@dataclass(frozen=True)
class CollectionStats:
    total_tokens: int
    collection_tf: Mapping[str, int]
    doc_freq: Mapping[str, int]
    num_docs: int
    # lm.log_ratios keeps one lm.LogRatios table per mu here. It is derived
    # from the fields above, so it takes no part in equality or repr.
    log_ratio_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class InvertedIndex:
    """Postings, document table, and collection statistics for one corpus."""

    def __init__(self, doc_table: dict[str, DocumentRecord]):
        """Index a document table given in doc_id order, counts in term order."""
        gathered: defaultdict[str, list[tuple[str, int]]] = defaultdict(list)
        for doc_id, rec in doc_table.items():
            for term, count in rec.term_counts.items():
                gathered[term].append((doc_id, count))
        self.doc_table = doc_table
        self.postings = {term: tuple(gathered[term]) for term in sorted(gathered)}
        self.stats = CollectionStats(
            total_tokens=sum(rec.length for rec in doc_table.values()),
            collection_tf={t: sum(map(itemgetter(1), p)) for t, p in self.postings.items()},
            doc_freq={t: len(p) for t, p in self.postings.items()},
            num_docs=len(doc_table),
        )

    def doc(self, doc_id: str) -> DocumentRecord:
        return self.doc_table[doc_id]

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency; defined for unseen terms."""
        df = self.stats.doc_freq.get(term, 0)
        return math.log((self.stats.num_docs + 1) / (df + 0.5))

    def save(self, path: str | Path) -> None:
        snapshot = {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "docs": {
                doc_id: {"length": rec.length, "counts": dict(rec.term_counts)}
                for doc_id, rec in self.doc_table.items()
            },
        }
        Path(path).write_text(
            json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "InvertedIndex":
        raw = load_json(path)
        if not isinstance(raw, dict) or raw.get("magic") != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not an index snapshot (bad magic header)")
        if raw.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"{path}: unsupported snapshot version {raw.get('version')!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        docs = raw.get("docs")
        if not isinstance(docs, dict):
            raise ValueError(f"{path}: snapshot has no 'docs' object")
        doc_table = {}
        previous = None
        for doc_id, entry in docs.items():
            if not valid_id(doc_id):
                raise ValueError(f"{path}: doc id {doc_id!r} is empty or contains whitespace")
            if previous is not None and doc_id <= previous:
                raise ValueError(
                    f"{path}: doc {doc_id!r}: not in doc_id order (it follows {previous!r})"
                )
            previous = doc_id
            try:
                counts = entry["counts"]
                length = entry["length"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}: malformed entry for doc {doc_id!r}: {exc!r}") from exc
            if not isinstance(counts, dict):
                raise ValueError(f"{path}: doc {doc_id!r}: counts must be a JSON object")
            # type() rather than isinstance(): JSON true/false load as bool.
            if counts and (set(map(type, counts.values())) != {int} or min(counts.values()) < 1):
                raise ValueError(f"{path}: doc {doc_id!r}: counts must be positive integers")
            if type(length) is not int or length != sum(counts.values()):
                raise ValueError(
                    f"{path}: doc {doc_id!r}: length {length!r} is not the sum of its counts"
                )
            terms = list(counts)
            if any(map(ge, terms, terms[1:])):
                raise ValueError(f"{path}: doc {doc_id!r}: counts are not in term order")
            doc_table[doc_id] = DocumentRecord(doc_id, counts, length)
        return cls(doc_table)


def build_index(
    docs: Iterable[tuple[str, str]],
    analyzer: Callable[[str], AnalyzedText] = analyze,
) -> InvertedIndex:
    """Build an index from (doc_id, text) pairs.

    Raises ValueError on a duplicate doc_id or one that is not a valid_id,
    which a snapshot could not hold. Documents that analyze to no tokens are
    kept (length 0) so ids remain resolvable. The documents share one
    analysis.term_memo scope, so analyze treats each distinct token once.
    """
    doc_table: dict[str, DocumentRecord] = {}
    with term_memo():
        for doc_id, text in docs:
            if doc_id in doc_table:
                raise ValueError(f"duplicate doc_id: {doc_id!r}")
            if not valid_id(doc_id):
                raise ValueError(f"doc id {doc_id!r} is empty or contains whitespace")
            analyzed = analyzer(text)
            counts = dict(sorted(analyzed.counts().items()))
            doc_table[doc_id] = DocumentRecord(doc_id, counts, analyzed.length)
    return InvertedIndex(dict(sorted(doc_table.items())))


def read_corpus_jsonl(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield (doc_id, text) pairs from a JSON-lines corpus file.

    Each line must be an object with string fields "id" and "text", the id
    a valid_id not used on an earlier line; blank lines are allowed.
    Malformed lines raise ValueError naming the line.
    """
    first_line: dict[str, int] = {}
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            obj = parse_json(line, path, lineno)
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise ValueError(
                    f"{path}: line {lineno}: expected an object with 'id' and 'text'"
                )
            doc_id, text = obj["id"], obj["text"]
            if not isinstance(doc_id, str) or not isinstance(text, str):
                raise ValueError(f"{path}: line {lineno}: 'id' and 'text' must be strings")
            if not valid_id(doc_id):
                raise ValueError(
                    f"{path}: line {lineno}: doc id {doc_id!r} is empty or contains whitespace"
                )
            first = first_line.setdefault(doc_id, lineno)
            if first != lineno:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate doc id {doc_id!r} (first on line {first})"
                )
            yield doc_id, text
