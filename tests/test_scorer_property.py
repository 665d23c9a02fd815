"""Property tests of the split Dirichlet scorer.

LogLikelihoodScorer computes sum weight * ln p_mu(term|doc) as a constant,
a length part and an fsum over the matched terms. These tests require:

- agreement with the term-by-term sum of weight * ln(smoothed_prob(...))
  within 1e-12 relative to the larger of 1 and the score's magnitude, with
  -inf results, ValueErrors and the empty sum exactly as the reference
  gives them;
- bit-equal scores for documents that swap terms of equal cf and equal tf
  (the doc_id tie rule depends on it);
- bit-equal scores from the batch method, in any order and over repeated
  calls of one scorer, and the split sum computed afresh for each document;
- bit-equal scores from the term-at-a-time first pass and the scorer, and
  its top k in the order of a brute-force ranking by fresh scorers, ties
  at the cutoff included;
- bit-equal scores from a scorer whose memo of summands earlier documents
  filled, in any order and between scorers at other mu values, and from a
  fresh scorer;
- bit-equal scores from query aggregation at decay 1 and a scorer over the
  known terms of the concatenated session queries;
- bit-equal scores, and the same ValueError, from query aggregation's
  term-at-a-time pass over a candidate list and the scorer's own loop;
- bit-equal summands from a kept candidate matching's log-ratios, times
  the model weight, and the scorer, with models at two mu values taking
  turns, so each mu's ratios are extended by pairs the other matched.
"""

import math
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import make_session, score_one  # noqa: E402
from sessionsearch.analysis import AnalyzedText, whitespace_analyze  # noqa: E402
from sessionsearch.baselines import qa_score, qa_scorer  # noqa: E402
from sessionsearch.index import CollectionStats, DocumentRecord, build_index  # noqa: E402
from sessionsearch.lm import (  # noqa: E402
    NEG_INF,
    LogLikelihoodScorer,
    TermDistribution,
    cross_entropy_scorer,
    known_terms_only,
    smoothed_prob,
    top_k_by_query_likelihood,
)
from sessionsearch.session import pseudo_info_need  # noqa: E402
from sessionsearch.srm import CandidateMatching  # noqa: E402

VOCABULARY = ("a", "b", "c", "d", "e")
# Model terms may also name words no document contains.
MODEL_TERMS = VOCABULARY + ("unseen", "zzz")
RELATIVE = 1e-12


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


def agrees(got, expected):
    """Exact for -inf, errors and the empty sum; otherwise within RELATIVE
    of the larger of 1 and the magnitude (an exact 0, every probability 1,
    comes out of the split within rounding of 0)."""
    if isinstance(expected, float) and math.isfinite(expected) and isinstance(got, float):
        return abs(got - expected) <= RELATIVE * max(1.0, abs(got), abs(expected))
    return got == expected


@st.composite
def corpora(draw):
    # Few distinct lengths, so many documents share one; length 0 included.
    lengths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    token_lists = draw(st.lists(
        st.sampled_from(lengths).flatmap(
            lambda n: st.lists(st.sampled_from(VOCABULARY), min_size=n, max_size=n)),
        min_size=1, max_size=12,
    ))
    return token_lists


def split_reference(pairs, doc, stats, mu):
    """The split sum of one document, from scratch: constant minus weight
    total times ln(|d| + mu), plus the fsum of the matched summands, with
    the scorer's -inf, error and empty-sum rules."""
    if not pairs:
        return 0.0
    denom = doc.length + mu
    if denom <= 0:
        raise ValueError(f"cannot smooth over an empty document ({doc.doc_id!r}) with mu={mu}")
    constant_terms = []
    summands = []
    for term, weight in pairs:
        cf = stats.collection_tf.get(term, 0)
        tf = doc.term_counts.get(term, 0)
        if mu > 0 and cf:
            background = mu * cf / stats.total_tokens
            constant_terms.append(weight * math.log(background))
            if tf:
                summands.append(weight * math.log1p(tf / background))
        elif not tf:
            return NEG_INF
        else:
            summands.append(weight * math.log(tf))
    base = math.fsum(constant_terms) - math.fsum(weight for _, weight in pairs) * math.log(denom)
    return base + math.fsum(summands)


@st.composite
def long_and_short_documents(draw):
    # Long documents of 50-1000 tokens, whose lengths rarely repeat, some
    # with a neighbour one token longer, mixed with short ones whose lengths
    # do repeat; each long one splits its length among the vocabulary at
    # four cut points.
    lengths = []
    for _ in range(draw(st.integers(0, 5))):
        length = draw(st.integers(50, 999))
        lengths += [length, length + 1] if draw(st.booleans()) else [length]
    token_lists = []
    for length in lengths:
        cuts = sorted(draw(st.lists(st.integers(0, length), min_size=4, max_size=4)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [length])]
        token_lists.append([term for term, size in zip(VOCABULARY, sizes) for _ in range(size)])
    token_lists += draw(corpora())
    return draw(st.permutations(token_lists))


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
@given(token_lists=corpora(), pairs=weights, mu=mus)
def test_scorer_equals_term_by_term_reference(token_lists, pairs, mu):
    docs, stats = build_corpus(token_lists)
    reused = LogLikelihoodScorer(pairs, stats, mu)
    for doc in docs:
        got = outcome(score_one, reused, doc)
        assert agrees(got, outcome(reference, pairs, doc, stats, mu))
        if not pairs:
            assert got == 0.0
        # A scorer reused over many documents gives exactly what a fresh one
        # gives.
        assert got == outcome(score_one, LogLikelihoodScorer(pairs, stats, mu), doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(token_lists=long_and_short_documents(), pairs=weights, mu=mus, data=st.data())
def test_batch_scores_equal_the_split_sum_bit_for_bit(token_lists, pairs, mu, data):
    # The scorer keeps a base per length and skips fsum for one summand;
    # neither may move a bit. With mu = 0 an empty document raises naming
    # it, a cf = 0 term scores -inf and no weights score all 0.0. One scorer
    # scores the documents in two orders and then one at a time.
    docs, stats = build_corpus(token_lists)
    score = LogLikelihoodScorer(pairs, stats, mu)
    for order in (docs, data.draw(st.permutations(docs))):
        expected = [outcome(split_reference, pairs, doc, stats, mu) for doc in order]
        errors = [result for result in expected if isinstance(result, tuple)]
        got = outcome(score.scores, order)
        if errors:
            assert got == errors[0]
            assert repr(order[expected.index(errors[0])].doc_id) in got[1]
            continue
        assert [result.hex() for result in got] == [result.hex() for result in expected]
        if not pairs:
            assert got == [0.0] * len(order)
    for doc in docs:
        got = outcome(score_one, score, doc)
        assert repr(got) == repr(outcome(split_reference, pairs, doc, stats, mu))
        assert agrees(got, outcome(reference, pairs, doc, stats, mu))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shared=st.lists(st.sampled_from(VOCABULARY), max_size=8),
    tf=st.integers(1, 4),
    between=st.lists(st.sampled_from(("b", "c", "d")), min_size=1, max_size=3, unique=True),
    weight=st.one_of(st.integers(1, 3), st.floats(1e-3, 1.0, allow_nan=False)),
    other_weights=st.lists(st.floats(1e-3, 1.0, allow_nan=False), min_size=3, max_size=3),
    mu=st.sampled_from([0.5, 10.0, 2500.0]),
)
def test_documents_swapping_equal_terms_score_equal(
    shared, tf, between, weight, other_weights, mu
):
    # "x" and "y" have equal cf and equal weight; one document holds x
    # where the other holds y, tf times, so both are equal in exact
    # arithmetic. The scored terms put other terms between x and y, where
    # an order-dependent sum would round the two documents apart.
    with_x = shared + ["x"] * tf
    with_y = shared + ["y"] * tf
    docs, stats = build_corpus([with_x, with_y, ["a", "b", "c", "d", "e"]])
    pairs = [("x", weight)] + list(zip(between, other_weights)) + [("y", weight)]
    score = LogLikelihoodScorer(pairs, stats, mu)
    assert score_one(score, docs[0]) == score_one(score, docs[1])


def test_swapped_terms_tie_that_term_order_summation_breaks():
    # A 3-term query whose term-by-term sums differ in the last bit for two
    # documents that are equal in exact arithmetic.
    docs, stats = build_corpus([["x"], ["y"], ["a", "b"]])
    pairs = [("x", 1), ("b", 2), ("y", 1)]
    assert reference(pairs, docs[0], stats, 2500.0) != reference(pairs, docs[1], stats, 2500.0)
    score = LogLikelihoodScorer(pairs, stats, 2500.0)
    assert score_one(score, docs[0]) == score_one(score, docs[1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    token_lists=corpora(),
    query=st.lists(st.sampled_from(MODEL_TERMS), min_size=1, max_size=6),
    mu=mus,
)
def test_first_pass_equals_scorer_bit_for_bit(token_lists, query, mu):
    index = build_index(
        [(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(token_lists)],
        analyzer=whitespace_analyze,
    )
    query_text = AnalyzedText(tuple(query))
    ranked = top_k_by_query_likelihood(query_text, index, mu, len(token_lists))
    scorable = known_terms_only(query_text, index.stats)
    score = LogLikelihoodScorer(scorable.counts().items(), index.stats, mu)
    matching = {doc_id for doc_id, doc in index.doc_table.items()
                if set(doc.term_counts) & set(scorable.tokens)}
    assert {doc_id for doc_id, _ in ranked} == matching
    for doc_id, got in ranked:
        assert got == score_one(score, index.doc(doc_id))


@st.composite
def corpora_with_ties(draw):
    # Some documents repeated, so equal scores meet at any cutoff.
    token_lists = draw(corpora())
    token_lists += draw(st.lists(st.sampled_from(token_lists), max_size=6))
    return draw(st.permutations(token_lists))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    token_lists=corpora_with_ties(),
    query=st.lists(st.sampled_from(MODEL_TERMS), min_size=1, max_size=8),
    mu=mus,
    k=st.sampled_from(["1", "2", "all"]),
)
def test_first_pass_top_k_equals_brute_force_ranking(token_lists, query, mu, k):
    # The query repeats terms and names words no document contains. Every
    # document holding a known query term is scored by a fresh scorer,
    # sorted by (-score, doc_id) and cut at k.
    index = build_index(
        [(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(token_lists)],
        analyzer=whitespace_analyze,
    )
    k = len(token_lists) if k == "all" else int(k)
    query_text = AnalyzedText(tuple(query))
    pairs = known_terms_only(query_text, index.stats).counts().items()
    brute = sorted(
        ((doc_id, score_one(LogLikelihoodScorer(pairs, index.stats, mu), doc))
         for doc_id, doc in index.doc_table.items()
         if any(term in doc.term_counts for term, _ in pairs)),
        key=lambda pair: (-pair[1], pair[0]),
    )
    assert repr(top_k_by_query_likelihood(query_text, index, mu, k)) == repr(brute[:k])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(token_lists=corpora(), models=st.lists(st.tuples(weights, mus), min_size=2, max_size=6))
def test_a_reused_scorer_scores_as_fresh_ones_in_any_order(token_lists, models):
    # Each scorer scores the corpus forward and then reversed, so its memo
    # meets every (term, tf) both cold and warm, and the scorers take turns
    # at each document, so their mu values interleave. A fresh scorer would
    # share a memo kept outside the scorer, so the reference checks that too.
    docs, stats = build_corpus(token_lists)
    reused = [LogLikelihoodScorer(pairs, stats, mu) for pairs, mu in models]
    for doc in docs + docs[::-1]:
        for score, (pairs, mu) in zip(reused, models):
            got = outcome(score_one, score, doc)
            fresh = outcome(score_one, LogLikelihoodScorer(pairs, stats, mu), doc)
            assert repr(got) == repr(fresh)
            assert agrees(got, outcome(reference, pairs, doc, stats, mu))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(token_lists=corpora(), models=st.lists(weights.filter(bool), min_size=2, max_size=6),
       two_mus=st.lists(st.one_of(st.sampled_from([0.5, 10.0, 2500.0]),
                                  st.floats(1e-3, 5000.0, allow_nan=False)),
                        min_size=2, max_size=2, unique=True))
def test_a_matchings_kept_ratios_give_the_scorers_summands(token_lists, models, two_mus):
    index = build_index(
        [(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(token_lists)],
        analyzer=whitespace_analyze,
    )
    matching = CandidateMatching([(doc_id, 0.0) for doc_id in index.doc_table], index)
    for turn, pairs in enumerate(models):
        mu = two_mus[turn % 2]
        model = TermDistribution.from_weights(dict(pairs))
        matching.rerank(model, mu)
        score = cross_entropy_scorer(model, index.stats, mu)
        # A model scored before returns its kept ranking and builds no
        # table; the ratios the next table reads are these.
        ratios = matching._log_ratios(mu)
        assert len(ratios) == len(matching._pairs)
        for (term, tf), ratio in zip(matching._pairs, ratios):
            if term in score.weights:
                assert (score.weights[term] * ratio).hex() == score.summand(term, tf).hex()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    token_lists=corpora(),
    queries=st.lists(st.lists(st.sampled_from(MODEL_TERMS), max_size=6), min_size=1, max_size=4),
    mu=mus,
)
def test_qa_at_decay_one_scores_as_the_concatenated_query(token_lists, queries, mu):
    # qa-uniform is qa-decay at decay 1. The queries repeat tokens and name
    # words no document contains; the uniform scorer is rebuilt here from
    # the concatenation, the way qa_score once built it.
    index = build_index(
        [(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(token_lists)],
        analyzer=whitespace_analyze,
    )
    session = make_session([(query, [], []) for query in queries[:-1]], queries[-1])
    concatenated = known_terms_only(pseudo_info_need(session.queries), index.stats)
    uniform = LogLikelihoodScorer(concatenated.counts().items(), index.stats, mu)

    def bits(value):
        return value.hex() if isinstance(value, float) else value

    for doc in index.doc_table.values():
        got = outcome(qa_score, session, doc, index, mu, 1.0)
        assert bits(got) == bits(outcome(score_one, uniform, doc))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    token_lists=long_and_short_documents(),
    queries=st.lists(st.lists(st.sampled_from(MODEL_TERMS), max_size=6), min_size=1, max_size=4),
    mu=st.sampled_from([0.0, 0.5, 2500.0]),
    decay=st.sampled_from([None, 0.5, 0.92, 1.0]),
    data=st.data(),
)
def test_qa_term_at_a_time_over_candidates_equals_the_scorer(
    token_lists, queries, mu, decay, data
):
    # The pipeline's QA pass against scores(), each side with a fresh
    # scorer. The candidates are any distinct documents in any order, so
    # some hold no scored term, and at mu = 0 an empty one (the corpus
    # always has one) makes both sides raise, naming the first in the list.
    # decay=None is the default, the uniform weighting.
    index = build_index(
        [(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(token_lists + [[]])],
        analyzer=whitespace_analyze,
    )
    ids = data.draw(st.permutations(sorted(index.doc_table)))
    ids = ids[:data.draw(st.integers(0, len(ids)))]
    session = make_session([(query, [], []) for query in queries[:-1]], queries[-1])
    weighting = {} if decay is None else {"decay": decay}
    expected = outcome(qa_scorer(session, index, mu, **weighting).scores, map(index.doc, ids))
    got = outcome(qa_scorer(session, index, mu, **weighting).term_at_a_time, index, ids)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert repr(sorted(got)) == repr(sorted(zip(ids, expected)))


def test_empty_document_with_zero_mu_rejected():
    docs, stats = build_corpus([["a", "b"], []])
    with pytest.raises(ValueError, match="empty document"):
        score_one(LogLikelihoodScorer([("a", 1)], stats, 0.0), docs[1])
    # No terms, nothing to smooth: the empty sum, as before.
    assert score_one(LogLikelihoodScorer([], stats, 0.0), docs[1]) == 0.0


def test_term_absent_from_corpus_scores_neg_inf():
    docs, stats = build_corpus([["a", "b"], ["b"]])
    score = LogLikelihoodScorer([("a", 0.5), ("zzz", 0.5)], stats, 2500.0)
    assert score.scores(docs) == [NEG_INF, NEG_INF]


def test_zero_mu_is_the_unsmoothed_estimate():
    docs, stats = build_corpus([["a", "a", "b"], ["b", "c"]])
    score = LogLikelihoodScorer([("a", 2), ("b", 1)], stats, 0.0)
    assert score_one(score, docs[0]) == pytest.approx(2 * math.log(2 / 3) + math.log(1 / 3), rel=RELATIVE)
    # "a" is in the collection but not in the second document.
    assert score_one(score, docs[1]) == NEG_INF
