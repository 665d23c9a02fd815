"""Inverted index over a document corpus, with collection statistics.

The document table is the one stored form: records in doc_id order, each
count map in term order. Lengths ({doc_id: length}), collection statistics
(from the count maps) and postings (per term, a {doc_id: count} map) are
derived from it on first use, so a built index and its loaded snapshot are
equal down to iteration order, whichever is read first. `load` derives
none of them; `Postings.gather` derives the postings of given terms only,
which is all a command that scores fixed sessions reads (see
cli._loaded_index). The snapshot (JSON, magic header + format version)
maps each doc_id to its count map and stores nothing derived from it, not
even the length; `load` rejects a table out of order instead of
re-sorting it. An index is immutable once built. Input checks use inputs.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, ItemsView, Iterable, Iterator, Mapping

from .analysis import AnalyzedText, analyze, term_memo
from .inputs import InputError, load_json, open_text, parse_json, valid_id

SNAPSHOT_MAGIC = "sessionsearch-index"
SNAPSHOT_VERSION = 2


# The error line of a doc id that fails valid_id.
_BAD_ID = "doc id {doc} is empty, has whitespace or is not UTF-8"


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


class Postings(Mapping[str, ItemsView[str, int]]):
    """Per term in term order, the items view of its {doc_id: count} map,
    docs in doc_id order: it yields (doc_id, count) pairs, and its .mapping
    is a read-only proxy of the map.

    A term's postings are gathered from the document table when first
    needed: gather(terms) derives those of the given terms in one pass over
    the documents, and a read of any other term the collection holds
    derives all the rest in one more pass. A term the collection lacks
    raises KeyError and derives nothing. len() derives nothing either.
    """

    __slots__ = ("_doc_table", "_doc_freq", "_views", "_complete")

    def __init__(self, doc_table: Mapping[str, DocumentRecord], doc_freq: Mapping[str, int]):
        self._doc_table = doc_table
        self._doc_freq = doc_freq
        self._views: dict[str, ItemsView[str, int]] = {}
        self._complete = False

    def gather(self, terms: Iterable[str]) -> None:
        """Derive the postings of each of terms the collection holds, in one
        pass over the documents: each document adds its count to the map of
        each wanted term it holds."""
        wanted = {term for term in terms if term in self._doc_freq} - self._views.keys()
        if not wanted:
            return
        maps: dict[str, dict[str, int]] = {term: {} for term in wanted}
        for doc_id, rec in self._doc_table.items():
            counts = rec.term_counts
            for term in counts.keys() & wanted:
                maps[term][doc_id] = counts[term]
        self._views.update((term, docs.items()) for term, docs in maps.items())

    def _every(self) -> dict[str, ItemsView[str, int]]:
        """Every term's postings, in term order."""
        if not self._complete:
            self.gather(self._doc_freq)
            self._views = dict(sorted(self._views.items()))
            self._complete = True
        return self._views

    def __getitem__(self, term: str) -> ItemsView[str, int]:
        try:
            return self._views[term]
        except KeyError:
            if term not in self._doc_freq:
                raise
        return self._every()[term]

    def __iter__(self) -> Iterator[str]:
        return iter(self._every())

    def __len__(self) -> int:
        return len(self._doc_freq)


class InvertedIndex:
    """Document table of one corpus, with its document lengths, collection
    statistics and postings. Each is derived from the table on first use
    and then kept, the postings only for the terms read (see Postings)."""

    def __init__(self, doc_table: dict[str, DocumentRecord]):
        """Index a document table given in doc_id order, counts in term order."""
        self.doc_table = doc_table

    @cached_property
    def postings(self) -> Postings:
        """Per term in term order, its postings; see Postings."""
        return Postings(self.doc_table, self.stats.doc_freq)

    @cached_property
    def lengths(self) -> dict[str, int]:
        """Each document's length, in doc_id order."""
        return {doc_id: rec.length for doc_id, rec in self.doc_table.items()}

    @cached_property
    def stats(self) -> CollectionStats:
        """Collection statistics from the count maps, terms in first-seen
        order: a term's df counts the maps that hold it, its cf sums its
        counts, and the total sums the lengths."""
        records = self.doc_table.values()
        doc_freq = Counter(chain.from_iterable(map(attrgetter("term_counts"), records)))
        # cf is df plus, for each count above 1, its excess over the 1 that
        # df counted; only a document longer than its number of terms has one.
        collection_tf = doc_freq.copy()
        for rec in records:
            if rec.length != len(rec.term_counts):
                for term, count in rec.term_counts.items():
                    if count > 1:
                        collection_tf[term] += count - 1
        return CollectionStats(
            total_tokens=sum(self.lengths.values()),
            collection_tf=collection_tf,
            doc_freq=doc_freq,
            num_docs=len(self.doc_table),
        )

    def doc(self, doc_id: str) -> DocumentRecord:
        return self.doc_table[doc_id]

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency; defined for unseen terms."""
        df = self.stats.doc_freq.get(term, 0)
        return math.log((self.stats.num_docs + 1) / (df + 0.5))

    def save(self, path: str | Path) -> None:
        """Write {doc_id: {term: count}}, both levels in order; any Mapping as a dict."""
        docs = {doc_id: rec.term_counts for doc_id, rec in self.doc_table.items()}
        snapshot = {"magic": SNAPSHOT_MAGIC, "version": SNAPSHOT_VERSION, "docs": docs}
        Path(path).write_text(
            json.dumps(snapshot, sort_keys=True, separators=(",", ":"), default=dict) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "InvertedIndex":
        """The index saved at path, lengths summed from counts, nothing else
        derived; ValueError names file and doc."""
        raw = load_json(path)
        if not isinstance(raw, dict) or raw.get("magic") != SNAPSHOT_MAGIC:
            raise InputError("not an index snapshot (bad magic header)", path)
        version = raw.get("version")
        if type(version) is not int or version != SNAPSHOT_VERSION:  # type(): 2.0 == 2
            raise InputError("snapshot version {version} is not {expected}; rebuild it with the "
                             "index command", path, version=version, expected=SNAPSHOT_VERSION)
        docs = raw.get("docs")
        if not isinstance(docs, dict):
            raise InputError("snapshot has no 'docs' object", path)
        doc_table = {}
        previous = None
        for doc_id, counts in docs.items():
            if not valid_id(doc_id):
                raise InputError(_BAD_ID, path, doc=doc_id)
            if previous is not None and doc_id <= previous:
                raise InputError("doc {doc}: not in doc_id order (it follows {previous})", path,
                                 doc=doc_id, previous=previous)
            try:
                if type(counts) is not dict:
                    raise ValueError("not a JSON object")
                values = counts.values()
                # type() rather than isinstance(): JSON true/false load as bool.
                if counts and (set(map(type, values)) != {int} or min(values) < 1):
                    raise ValueError("counts must be positive integers")
                length = sum(values)
                if length > 2**53:  # so each count, and the length, is an exact float
                    raise ValueError("counts sum to more than 2**53")
                if list(counts) != sorted(counts):  # keys are distinct: in strict order
                    raise ValueError("counts are not in term order")
            except ValueError as exc:
                raise InputError.within(exc, "doc {doc}", path, doc=doc_id) from None
            previous = doc_id
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
                raise InputError("duplicate doc_id: {doc}", doc=doc_id)
            if not valid_id(doc_id):
                raise InputError(_BAD_ID, doc=doc_id)
            analyzed = analyzer(text)
            # Counter keeps first-occurrence order, so sorted tokens give
            # the count map in term order without a sort of its pairs.
            counts = dict(Counter(sorted(analyzed.tokens)))
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
                raise InputError("expected an object with 'id' and 'text'", path, lineno)
            doc_id, text = obj["id"], obj["text"]
            if not isinstance(doc_id, str) or not isinstance(text, str):
                raise InputError("'id' and 'text' must be strings", path, lineno)
            if not valid_id(doc_id):
                raise InputError(_BAD_ID, path, lineno, doc=doc_id)
            first = first_line.setdefault(doc_id, lineno)
            if first != lineno:
                raise InputError("duplicate doc id {doc} (first on line {first})", path, lineno,
                                 doc=doc_id, first=first)
            yield doc_id, text
