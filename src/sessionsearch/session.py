"""Recorded search sessions: steps, query changes, and feedback selection.

A session is a sequence of history steps (query, shown results, clicks)
followed by the current query that is to be served. Dwell times are parsed
and stored but take no part in any computation.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from .analysis import AnalyzedText, analyze, term_memo
from .index import InvertedIndex, load_json, valid_id
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
                raise ValueError(f"duplicate impression {doc_id!r}")
            seen.add(doc_id)
        for click in self.clicks:
            if click.doc_id not in seen:
                raise ValueError(
                    f"clicked doc {click.doc_id!r} does not appear in the impressions"
                )


@dataclass(frozen=True)
class Session:
    session_id: str
    topic_id: str
    history: tuple[SessionStep, ...]
    current_raw: str
    current_query: AnalyzedText

    @property
    def queries(self) -> list[AnalyzedText]:
        """Queries q_1..q_n: the history queries, then the current query."""
        return [step.query for step in self.history] + [self.current_query]

    def queries_up_to(self, t: int) -> list[AnalyzedText]:
        """Queries q_1..q_t, where step len(history)+1 is the current query."""
        n = len(self.history) + 1
        if not 1 <= t <= n:
            raise ValueError(f"step {t} out of range 1..{n}")
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


class Stages:
    """One session's stage results, each under a key of exactly the
    parameters it depends on, so a caller that scores the session again
    with other parameters reuses what they leave unchanged.

    Valid for one session and one index: start a fresh memo for another.
    Every lookup of a key returns the same object, so callers must not
    mutate what they get. What depends only on the collection and mu, the
    log-ratio table every scorer reads (lm.log_ratios), is kept on the
    index's CollectionStats instead and outlives the memo.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict = {}

    def get(self, key, compute: Callable[[], object]):
        """The value stored under key, computed by compute() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value


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
        raise ValueError(f"m must be positive, got {m}")
    n = len(session.history) + 1
    if not 1 <= t <= n:
        raise ValueError(f"step {t} out of range 1..{n}")
    steps = session.history[: min(t, len(session.history))]

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

    info_need = pseudo_info_need(session.queries_up_to(t))
    score = LogLikelihoodScorer(info_need.counts().items(), index.stats, mu)
    scored = rank_documents((doc_id, score(index.doc(doc_id))) for doc_id in pool)
    return FeedbackSet(tuple(doc_id for doc_id, _ in scored[:m]), FeedbackSource.PSEUDO)


def load_sessions(
    path: str | Path, analyzer: Callable[[str], AnalyzedText] = analyze
) -> list[Session]:
    """Read sessions from a JSON file.

    Expected shape: {"sessions": [{"session_id", "topic_id", "steps":
    [{"query", "impressions", "clicks": [{"doc", "dwell"?}]}], "current_query"}]},
    each session id an index.valid_id with file_name=True. Violations, and
    a session id used twice, raise ValueError naming the offending session.
    All queries share one analysis.term_memo scope.
    """
    raw = load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("sessions"), list):
        raise ValueError(f"{path}: expected a top-level object with a 'sessions' list")
    sessions = []
    with term_memo():
        for pos, entry in enumerate(raw["sessions"]):
            label = entry.get("session_id", f"#{pos}") if isinstance(entry, dict) else f"#{pos}"
            try:
                sessions.append(_parse_session(entry, analyzer))
            except (KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"{path}: session {label}: malformed entry: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}: session {label}: {exc}") from exc
    counts = Counter(session.session_id for session in sessions)
    repeated = sorted(session_id for session_id, count in counts.items() if count > 1)
    if repeated:
        raise ValueError(f"{path}: duplicate session ids: {repeated}")
    return sessions


def _parse_session(entry: dict, analyzer: Callable[[str], AnalyzedText]) -> Session:
    session_id = entry["session_id"]
    topic_id = entry["topic_id"]
    if not isinstance(session_id, str) or not isinstance(topic_id, str):
        raise ValueError("'session_id' and 'topic_id' must be strings")
    if not valid_id(session_id, file_name=True):
        raise ValueError(
            f"session id {session_id!r} is empty, contains whitespace, '/' or '\\', "
            "or is '.' or '..'"
        )
    steps = []
    for step in entry.get("steps", []):
        if not isinstance(step["query"], str):
            raise ValueError("'query' must be a string")
        impressions = step.get("impressions", [])
        if not isinstance(impressions, list) or not all(isinstance(d, str) for d in impressions):
            raise ValueError("'impressions' must be a list of strings")
        clicks = tuple(
            Click(doc_id=c["doc"], dwell=c.get("dwell")) for c in step.get("clicks", [])
        )
        if not all(isinstance(click.doc_id, str) for click in clicks):
            raise ValueError("a click's 'doc' must be a string")
        steps.append(
            SessionStep(
                query_raw=step["query"],
                query=analyzer(step["query"]),
                impressions=tuple(impressions),
                clicks=clicks,
            )
        )
    current_raw = entry["current_query"]
    if not isinstance(current_raw, str):
        raise ValueError("'current_query' must be a string")
    return Session(
        session_id=session_id,
        topic_id=topic_id,
        history=tuple(steps),
        current_raw=current_raw,
        current_query=analyzer(current_raw),
    )
