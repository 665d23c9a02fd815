"""Shared fixtures and converters between toy instances and package objects."""

import pytest

from sessionsearch.analysis import AnalyzedText, whitespace_analyze
from sessionsearch.index import CollectionStats, DocumentRecord, build_index
from sessionsearch.session import Click, Session, SessionStep
from sessionsearch.srm import SrmParams


def instance_index(instance):
    """Index the toy corpus; doc text is the sorted expansion of its counts."""
    docs = []
    for doc_id in sorted(instance["docs"]):
        counts = instance["docs"][doc_id]
        text = " ".join(" ".join([term] * counts[term]) for term in sorted(counts))
        docs.append((doc_id, text))
    return build_index(docs, analyzer=whitespace_analyze)


def instance_session(instance, session_id="s1", topic_id="t1"):
    history = []
    for step in instance["steps"]:
        history.append(
            SessionStep(
                query_raw=" ".join(step["query"]),
                query=AnalyzedText(tuple(step["query"])),
                impressions=tuple(step["impressions"]),
                clicks=tuple(Click(doc_id) for doc_id in step["clicks"]),
            )
        )
    return Session(
        session_id=session_id,
        topic_id=topic_id,
        history=tuple(history),
        current_raw=" ".join(instance["current"]),
        current_query=AnalyzedText(tuple(instance["current"])),
    )


def instance_params(instance, clip_terms=100):
    p = instance["params"]
    return SrmParams(
        gamma=p["gamma"],
        lam=p["lam"],
        m=p["m"],
        mu=p["mu"],
        clip_terms=clip_terms,
        variant=p["variant"],
    )


def text(*tokens):
    """AnalyzedText from already-normalized tokens."""
    return AnalyzedText(tuple(tokens))


def make_session(history_specs, current_tokens, session_id="s1", topic_id="t1"):
    """history_specs: list of (query tokens, impressions, clicked ids)."""
    history = []
    for tokens, impressions, clicks in history_specs:
        history.append(
            SessionStep(
                query_raw=" ".join(tokens),
                query=AnalyzedText(tuple(tokens)),
                impressions=tuple(impressions),
                clicks=tuple(Click(doc_id) for doc_id in clicks),
            )
        )
    return Session(
        session_id=session_id,
        topic_id=topic_id,
        history=tuple(history),
        current_raw=" ".join(current_tokens),
        current_query=AnalyzedText(tuple(current_tokens)),
    )


@pytest.fixture
def tiny_index():
    """Two docs with hand-countable stats: d1 = "a a b", d2 = "b c"."""
    return build_index([("d1", "a a b"), ("d2", "b c")], analyzer=whitespace_analyze)


@pytest.fixture
def spot_doc():
    """A length-10 document inside a 10,000-token collection.

    Term "x" has tf 2 and collection frequency 2, so with mu = 2500 the
    smoothed probability is (2 + 2500 * 2/10000) / (10 + 2500) = 2.5/2510.
    """
    doc = DocumentRecord(doc_id="dx", term_counts={"x": 2, "y": 8}, length=10)
    stats = CollectionStats(
        total_tokens=10000,
        collection_tf={"x": 2, "y": 5000, "z": 4998},
        doc_freq={"x": 1, "y": 2, "z": 2},
        num_docs=3,
    )
    return doc, stats


@pytest.fixture
def club_docs():
    """Small themed corpus used by feedback and baseline tests."""
    return [
        ("d1", "jazz club downtown jazz music nights"),
        ("d2", "rock club uptown loud rock music"),
        ("d3", "quiet jazz records shop"),
        ("d4", "club membership prices downtown"),
        ("d5", "rock climbing gym routes"),
    ]


@pytest.fixture
def club_index(club_docs):
    return build_index(club_docs, analyzer=whitespace_analyze)
