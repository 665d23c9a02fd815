"""Property test: the precomputed scorer equals the term-by-term reference.

log_likelihood_scorer fixes each term's background count once and each
document's denominator once per call. These tests require the result to be
exactly (not approximately) the sum of weight * ln(smoothed_prob(...)) in
the same term order, on random small corpora and models.
"""

import math
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sessionsearch.index import CollectionStats, DocumentRecord  # noqa: E402
from sessionsearch.lm import NEG_INF, log_likelihood_scorer, smoothed_prob  # noqa: E402

VOCABULARY = ("a", "b", "c", "d", "e")
# Model terms may also name words no document contains.
MODEL_TERMS = VOCABULARY + ("unseen", "zzz")


def build_corpus(token_lists):
    docs = [
        DocumentRecord(f"d{i}", dict(Counter(tokens)), len(tokens))
        for i, tokens in enumerate(token_lists)
    ]
    collection_tf: Counter = Counter()
    doc_freq: Counter = Counter()
    for doc in docs:
        collection_tf.update(doc.term_counts)
        doc_freq.update(doc.term_counts.keys())
    stats = CollectionStats(
        total_tokens=sum(doc.length for doc in docs),
        collection_tf=dict(collection_tf),
        doc_freq=dict(doc_freq),
        num_docs=len(docs),
    )
    return docs, stats


def reference(weights, doc, stats, mu):
    total = 0.0
    for term, weight in weights:
        p = smoothed_prob(term, doc, stats, mu)
        if p <= 0.0:
            return NEG_INF
        total += weight * math.log(p)
    return total


def outcome(fn, *args):
    """The value fn returns, or the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def corpora(draw):
    # Few distinct lengths, so many documents share one; length 0 included.
    lengths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    token_lists = draw(st.lists(
        st.sampled_from(lengths).flatmap(
            lambda n: st.lists(st.sampled_from(VOCABULARY), min_size=n, max_size=n)),
        min_size=1, max_size=12,
    ))
    return build_corpus(token_lists)


weights = st.lists(
    st.tuples(
        st.sampled_from(MODEL_TERMS),
        st.one_of(st.integers(1, 4), st.floats(1e-6, 1.0, allow_nan=False)),
    ),
    max_size=8,
    unique_by=lambda pair: pair[0],
)
mus = st.one_of(st.just(0.0), st.sampled_from([0.5, 10.0, 2500.0]),
                st.floats(1e-3, 5000.0, allow_nan=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corpus=corpora(), pairs=weights, mu=mus)
def test_scorer_equals_term_by_term_reference(corpus, pairs, mu):
    docs, stats = corpus
    reused = log_likelihood_scorer(pairs, stats, mu)
    for doc in docs:
        got = outcome(reused, doc)
        assert got == outcome(reference, pairs, doc, stats, mu)
        assert got == outcome(log_likelihood_scorer(pairs, stats, mu), doc)


def test_empty_document_with_zero_mu_rejected():
    docs, stats = build_corpus([["a", "b"], []])
    with pytest.raises(ValueError, match="empty document"):
        log_likelihood_scorer([("a", 1)], stats, 0.0)(docs[1])
    # No terms, nothing to smooth: the empty sum, as before.
    assert log_likelihood_scorer([], stats, 0.0)(docs[1]) == 0.0


def test_term_absent_from_corpus_scores_neg_inf():
    docs, stats = build_corpus([["a", "b"], ["b"]])
    score = log_likelihood_scorer([("a", 0.5), ("zzz", 0.5)], stats, 2500.0)
    assert [score(doc) for doc in docs] == [NEG_INF, NEG_INF]
