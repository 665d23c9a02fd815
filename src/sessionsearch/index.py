"""Inverted index over a document corpus, with collection statistics.

An index is immutable once built. Serialization is a self-describing JSON
snapshot (magic header + format version); postings and statistics are
derived from the document table in sorted order on both build and load so a
round trip reproduces them exactly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .analysis import AnalyzedText, analyze

SNAPSHOT_MAGIC = "sessionsearch-index"
SNAPSHOT_VERSION = 1


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


class InvertedIndex:
    """Postings, document table, and collection statistics for one corpus."""

    def __init__(
        self,
        postings: dict[str, tuple[tuple[str, int], ...]],
        doc_table: dict[str, DocumentRecord],
        stats: CollectionStats,
    ):
        self.postings = postings
        self.doc_table = doc_table
        self.stats = stats

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
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
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
        for doc_id in sorted(docs):
            entry = docs[doc_id]
            try:
                counts = dict(sorted(entry["counts"].items()))
                length = entry["length"]
            except (KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"{path}: malformed entry for doc {doc_id!r}: {exc!r}") from exc
            # type() rather than isinstance(): JSON true/false load as bool.
            if counts and (set(map(type, counts.values())) != {int} or min(counts.values()) < 1):
                raise ValueError(f"{path}: doc {doc_id!r}: counts must be positive integers")
            if type(length) is not int or length != sum(counts.values()):
                raise ValueError(
                    f"{path}: doc {doc_id!r}: length {length!r} is not the sum of its counts"
                )
            doc_table[doc_id] = DocumentRecord(doc_id, counts, length)
        return cls(*_derive(doc_table))


def _derive(
    doc_table: dict[str, DocumentRecord],
) -> tuple[dict[str, tuple[tuple[str, int], ...]], dict[str, DocumentRecord], CollectionStats]:
    """Derive postings and stats from a document table, in sorted term order."""
    postings: dict[str, list[tuple[str, int]]] = {}
    collection_tf: Counter = Counter()
    doc_freq: Counter = Counter()
    total = 0
    for doc_id in sorted(doc_table):
        rec = doc_table[doc_id]
        total += rec.length
        for term, count in rec.term_counts.items():
            postings.setdefault(term, []).append((doc_id, count))
            collection_tf[term] += count
            doc_freq[term] += 1
    frozen = {term: tuple(postings[term]) for term in sorted(postings)}
    stats = CollectionStats(
        total_tokens=total,
        collection_tf={t: collection_tf[t] for t in sorted(collection_tf)},
        doc_freq={t: doc_freq[t] for t in sorted(doc_freq)},
        num_docs=len(doc_table),
    )
    return frozen, doc_table, stats


def build_index(
    docs: Iterable[tuple[str, str]],
    analyzer: Callable[[str], AnalyzedText] = analyze,
) -> InvertedIndex:
    """Build an index from (doc_id, text) pairs.

    Raises ValueError on a duplicate doc_id. Documents that analyze to no
    tokens are kept (length 0) so ids remain resolvable.
    """
    doc_table: dict[str, DocumentRecord] = {}
    for doc_id, text in docs:
        if doc_id in doc_table:
            raise ValueError(f"duplicate doc_id: {doc_id!r}")
        analyzed = analyzer(text)
        counts = dict(sorted(Counter(analyzed.tokens).items()))
        doc_table[doc_id] = DocumentRecord(doc_id, counts, analyzed.length)
    return InvertedIndex(*_derive(doc_table))


def read_corpus_jsonl(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield (doc_id, text) pairs from a JSON-lines corpus file.

    Each line must be an object with string fields "id" and "text"; blank
    lines are allowed. Malformed lines raise ValueError naming the line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise ValueError(
                    f"{path}: line {lineno}: expected an object with 'id' and 'text'"
                )
            doc_id, text = obj["id"], obj["text"]
            if not isinstance(doc_id, str) or not isinstance(text, str):
                raise ValueError(f"{path}: line {lineno}: 'id' and 'text' must be strings")
            yield doc_id, text
