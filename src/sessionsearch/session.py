"""Recorded search sessions: steps, query changes, and feedback selection.

A session is a sequence of history steps (query, shown results, clicks)
followed by the current query that is to be served. Dwell times are parsed
and stored but take no part in any computation. The stage memo is in stages.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Optional

from .analysis import AnalyzedText, analyze, term_memo
from .index import InvertedIndex
from .inputs import InputError, json_field, load_json, shown_ids, valid_id
from .lm import LogLikelihoodScorer, rank_documents


class ChangeType(str, enum.Enum):
    RETAIN = "retain"
    ADD = "add"
    REMOVE = "remove"


class FeedbackSource(str, enum.Enum):
    CLICKS = "clicks"
    PSEUDO = "pseudo"


@dataclass(frozen=True)
class Click:
    doc_id: str
    dwell: Optional[float] = None


@dataclass(frozen=True)
class SessionStep:
    """One recorded interaction: a query, its impressions, and any clicks."""

    query_raw: str
    query: AnalyzedText
    impressions: tuple[str, ...]
    clicks: tuple[Click, ...]

    def __post_init__(self):
        seen = set()
        for doc_id in self.impressions:
            if doc_id in seen:
                raise InputError("duplicate impression {doc}", doc=doc_id)
            seen.add(doc_id)
        for click in self.clicks:
            if click.doc_id not in seen:
                raise InputError("clicked doc {doc} does not appear in the impressions",
                                 doc=click.doc_id)


@dataclass(frozen=True)
class Session:
    session_id: str
    topic_id: str
    history: tuple[SessionStep, ...]
    current_raw: str
    current_query: AnalyzedText

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # The dataclass's field hash, kept: every Stages key that reads a
        # session hashes it, and field by field it walks every step.
        return hash((self.session_id, self.topic_id, self.history, self.current_raw,
                     self.current_query))

    def __getstate__(self) -> dict:
        # A str hash holds only in the process that made it, so pickle and
        # copy leave the kept one behind.
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    @property
    def queries(self) -> list[AnalyzedText]:
        """Queries q_1..q_n: the history queries, then the current query."""
        return [step.query for step in self.history] + [self.current_query]

    def queries_up_to(self, t: int) -> list[AnalyzedText]:
        """Queries q_1..q_t, where step len(history)+1 is the current query."""
        n = len(self.history) + 1
        if not 1 <= t <= n:
            raise InputError("step {t} out of range 1..{n}", t=t, n=n)
        return self.queries[:t]


@dataclass(frozen=True)
class QueryChange:
    """Term sets retained, added, and removed between consecutive queries."""

    retained: frozenset[str]
    added: frozenset[str]
    removed: frozenset[str]

    def terms_of(self, change_type: ChangeType) -> frozenset[str]:
        if change_type is ChangeType.RETAIN:
            return self.retained
        if change_type is ChangeType.ADD:
            return self.added
        return self.removed


@dataclass(frozen=True)
class FeedbackSet:
    """Documents treated as relevance feedback at one step."""

    doc_ids: tuple[str, ...]
    source: FeedbackSource


def classify_change(
    previous: Optional[AnalyzedText], current: AnalyzedText
) -> QueryChange:
    """Partition unique terms of the current query against the previous one.

    With no previous query every current term counts as added. Multiplicity
    is ignored; the current query must be non-empty.
    """
    if not current.tokens:
        raise ValueError("cannot classify a change into an empty query")
    cur = frozenset(current.tokens)
    prev = frozenset(previous.tokens) if previous is not None else frozenset()
    return QueryChange(
        retained=cur & prev,
        added=cur - prev,
        removed=prev - cur,
    )


def pseudo_info_need(queries: Iterable[AnalyzedText]) -> AnalyzedText:
    """Concatenate observed queries into one token sequence (Q')."""
    queries = list(queries)
    if not queries:
        raise ValueError("pseudo information need requires at least one query")
    tokens: list[str] = []
    for query in queries:
        tokens.extend(query.tokens)
    return AnalyzedText(tuple(tokens))


def _usable(doc_id: str, index: InvertedIndex) -> bool:
    record = index.doc_table.get(doc_id)
    return record is not None and record.length > 0


def select_feedback_docs(
    session: Session, t: int, m: int, mu: float, index: InvertedIndex
) -> FeedbackSet:
    """Pick the feedback documents for step t.

    If any click exists in steps 1..min(t, n-1), the feedback set is the
    ordered union of all clicked docs over those steps. Otherwise it is the
    top-m impressions over those steps ranked by query log likelihood against
    the concatenated queries up to t (pseudo-clicks), ties broken by doc_id.

    Documents missing from the index (or empty after analysis) carry no term
    statistics and are skipped. No impressions at all yields an empty set.
    """
    if m <= 0:
        raise InputError("m must be positive, got {m}", m=m)
    queries = session.queries_up_to(t)
    steps = session.history[:t]

    clicked: dict[str, None] = {}
    for step in steps:
        for click in step.clicks:
            if _usable(click.doc_id, index):
                clicked.setdefault(click.doc_id, None)
    if clicked:
        return FeedbackSet(tuple(clicked), FeedbackSource.CLICKS)

    pool: dict[str, None] = {}
    for step in steps:
        for doc_id in step.impressions:
            if _usable(doc_id, index):
                pool.setdefault(doc_id, None)
    if not pool:
        return FeedbackSet((), FeedbackSource.PSEUDO)

    info_need = pseudo_info_need(queries)
    score = LogLikelihoodScorer(info_need.counts().items(), index.stats, mu)
    scored = rank_documents(zip(pool, score.scores(map(index.doc_table.__getitem__, pool))))
    return FeedbackSet(tuple(doc_id for doc_id, _ in scored[:m]), FeedbackSource.PSEUDO)


def load_sessions(
    path: str | Path, analyzer: Callable[[str], AnalyzedText] = analyze
) -> list[Session]:
    """Read sessions from a JSON file.

    Expected shape: {"sessions": [{"session_id", "topic_id", "steps"?:
    [{"query", "impressions"?, "clicks"?: [{"doc", "dwell"?}]}], "current_query"}]},
    ids, queries, impressions and clicked docs strings, each session id an
    inputs.valid_id with file_name=True, and each dwell absent, null or a
    finite number >= 0. Violations, and a session id used twice, raise
    ValueError naming the file, the session and the field. All queries
    share one analysis.term_memo scope.
    """
    raw = load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("sessions"), list):
        raise InputError("expected a top-level object with a 'sessions' list", path)
    sessions = []
    with term_memo():
        for pos, entry in enumerate(raw["sessions"]):
            try:
                sessions.append(_parse_session(entry, analyzer))
            except ValueError as exc:
                if isinstance(entry, dict) and "session_id" in entry:
                    raise InputError.within(exc, "session {session}", path,
                                            session=entry["session_id"]) from exc
                raise InputError.within(exc, "session #{pos}", path, pos=pos) from exc
    counts = Counter(session.session_id for session in sessions)
    repeated = sorted(session_id for session_id, count in counts.items() if count > 1)
    if repeated:
        raise InputError("duplicate session ids: {ids!s}", path, ids=shown_ids(repeated))
    return sessions


def _parse_session(entry: dict, analyzer: Callable[[str], AnalyzedText]) -> Session:
    session_id = json_field(entry, "session_id", str)
    topic_id = json_field(entry, "topic_id", str)
    if not valid_id(session_id, file_name=True):
        # The caller's error line shows the id.
        raise ValueError("'session_id' must be a file name without whitespace")
    steps = []
    for step in json_field(entry, "steps", list, (), items=dict):
        query = json_field(step, "query", str)
        impressions = json_field(step, "impressions", list, (), items=str)
        clicks = tuple(Click(doc_id=json_field(c, "doc", str), dwell=c.get("dwell"))
                       for c in json_field(step, "clicks", list, (), items=dict))
        # type(), not isinstance(): JSON true and false load as bool.
        if not all(c.dwell is None or type(c.dwell) in (int, float) and 0 <= c.dwell < math.inf
                   for c in clicks):
            raise ValueError("a click's 'dwell' must be a finite number >= 0, or null")
        steps.append(SessionStep(query, analyzer(query), tuple(impressions), clicks))
    current_raw = json_field(entry, "current_query", str)
    return Session(session_id, topic_id, tuple(steps), current_raw, analyzer(current_raw))
