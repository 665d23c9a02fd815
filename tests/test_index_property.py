"""Property test of what an index derives from its document table.

The statistics come from the count maps, and the postings are gathered for
given terms, in any order of gather calls, with every remaining term
derived on the first read of one not yet gathered. On corpora with many
counts above 1, and on an empty one, these must equal:

- the brute-force recount of tests/oracle.py (cf, df, total), down to the
  first-seen order of the terms;
- each term's postings as the document table gives them, docs in doc_id
  order, terms in term order.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracle  # noqa: E402
from sessionsearch.analysis import whitespace_analyze  # noqa: E402
from sessionsearch.index import build_index  # noqa: E402
from test_scorer_property import MODEL_TERMS, long_and_short_documents  # noqa: E402


def table_postings(index):
    """Per term in term order, its (doc_id, count) pairs in doc_id order,
    read straight off the document table."""
    pairs: dict[str, list] = {}
    for doc_id, rec in index.doc_table.items():
        for term, count in rec.term_counts.items():
            pairs.setdefault(term, []).append((doc_id, count))
    return sorted(pairs.items())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    token_lists=st.one_of(st.just([]), long_and_short_documents()),
    gathers=st.lists(st.lists(st.sampled_from(MODEL_TERMS), max_size=4), max_size=3),
    data=st.data(),
)
def test_derived_statistics_and_postings_equal_a_recount(token_lists, gathers, data):
    index = build_index([(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(token_lists)],
                        analyzer=whitespace_analyze)
    coll = oracle.build_collection({d: rec.term_counts for d, rec in index.doc_table.items()})
    stats = index.stats
    assert list(stats.collection_tf.items()) == list(coll["cf"].items())
    assert list(stats.doc_freq.items()) == list(coll["df"].items())
    assert (stats.total_tokens, stats.num_docs) == (coll["total"], coll["n_docs"])

    expected = dict(table_postings(index))
    postings = index.postings
    gathered = set()
    for terms in gathers:
        postings.gather(terms)
        gathered |= expected.keys() & set(terms)
        assert postings._views.keys() == gathered
        assert len(postings) == len(expected)
    for term in data.draw(st.permutations(MODEL_TERMS)):
        if term in expected:
            assert list(postings[term]) == expected[term]
            gathered = gathered if term in gathered else set(expected)
        else:
            with pytest.raises(KeyError):
                postings[term]
            assert postings.get(term, ()) == ()
        assert postings._views.keys() == gathered
    assert [(term, list(view)) for term, view in postings.items()] == table_postings(index)
