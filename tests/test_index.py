"""Index construction, statistics, persistence, and corpus parsing."""

import json
import math

import pytest

from sessionsearch.analysis import AnalyzedText, analyze, whitespace_analyze
from sessionsearch.index import InvertedIndex, build_index, read_corpus_jsonl
from sessionsearch.lm import query_log_likelihood


def test_hand_counted_two_doc_fixture(tiny_index):
    stats = tiny_index.stats
    assert stats.collection_tf == {"a": 2, "b": 2, "c": 1}
    assert stats.total_tokens == 5
    assert stats.doc_freq == {"a": 1, "b": 2, "c": 1}
    assert stats.num_docs == 2
    assert tiny_index.doc("d1").term_counts == {"a": 2, "b": 1}
    assert tiny_index.doc("d1").length == 3
    assert tiny_index.doc("d2").term_counts == {"b": 1, "c": 1}


def test_postings_consistent_and_sorted(tiny_index):
    assert tiny_index.postings["b"] == (("d1", 1), ("d2", 1))
    for term, postings in tiny_index.postings.items():
        doc_ids = [doc_id for doc_id, _ in postings]
        assert doc_ids == sorted(doc_ids)
        for doc_id, tf in postings:
            assert tiny_index.doc(doc_id).term_counts[term] == tf


def test_collection_tf_matches_postings(tiny_index):
    for term, postings in tiny_index.postings.items():
        assert sum(tf for _, tf in postings) == tiny_index.stats.collection_tf[term]


def test_empty_corpus():
    index = build_index([])
    assert index.stats.num_docs == 0
    assert index.stats.total_tokens == 0
    assert index.postings == {}


def test_duplicate_doc_id_rejected():
    with pytest.raises(ValueError, match="d1"):
        build_index([("d1", "a"), ("d1", "b")], analyzer=whitespace_analyze)


def test_idf_values(tiny_index):
    # num_docs=2: df=1 -> ln(3/1.5) = ln 2; df=2 -> ln(3/2.5).
    assert tiny_index.idf("a") == pytest.approx(math.log(2.0), abs=1e-12)
    assert tiny_index.idf("b") == pytest.approx(math.log(3 / 2.5), abs=1e-12)


def test_idf_single_doc_and_unseen():
    single = build_index([("d1", "x")], analyzer=whitespace_analyze)
    assert single.idf("x") == pytest.approx(math.log(2 / 1.5), abs=1e-12)
    nine = build_index(
        [(f"d{i}", f"t{i}") for i in range(9)], analyzer=whitespace_analyze
    )
    assert nine.idf("never-indexed") == pytest.approx(math.log(20.0), abs=1e-12)


def iteration_order(index):
    table = index.doc_table.items()
    return (
        [(doc_id, list(rec.term_counts.items()), rec.length) for doc_id, rec in table],
        list(index.postings.items()),
        list(index.stats.collection_tf.items()),
        list(index.stats.doc_freq.items()),
    )


def test_save_load_round_trip(tmp_path, club_docs):
    # Built from the corpus in reverse: the index is in doc_id order anyway,
    # so the loaded snapshot matches it down to iteration order.
    built = build_index(reversed(club_docs), analyzer=whitespace_analyze)
    path = tmp_path / "index.json"
    built.save(path)
    loaded = InvertedIndex.load(path)
    assert iteration_order(loaded) == iteration_order(built)
    assert loaded.stats == built.stats
    resaved = tmp_path / "resaved.json"
    loaded.save(resaved)
    assert resaved.read_bytes() == path.read_bytes()
    # Scores, not just structures, must survive the round trip bit for bit.
    query = AnalyzedText(("jazz", "club"))
    for doc_id in built.doc_table:
        before = query_log_likelihood(query, built.doc(doc_id), built.stats, 2500.0)
        after = query_log_likelihood(query, loaded.doc(doc_id), loaded.stats, 2500.0)
        assert before == after


def test_save_is_deterministic(tmp_path, club_index):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    club_index.save(path_a)
    club_index.save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"magic": "not-an-index", "version": 1, "docs": {}}))
    with pytest.raises(ValueError):
        InvertedIndex.load(path)


def test_load_rejects_wrong_version(tmp_path, tiny_index):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    snapshot = json.loads(path.read_text())
    snapshot["version"] = 999
    path.write_text(json.dumps(snapshot))
    with pytest.raises(ValueError):
        InvertedIndex.load(path)


@pytest.mark.parametrize(
    "docs",
    [
        None,
        [],
        {"d1": {"length": 1}},
        {"d1": "a"},
        {"d1": {"length": 3, "counts": [["a", 2], ["b", 1]]}},
        {"d2": {"length": 1, "counts": {"b": 1}}, "d1": {"length": 1, "counts": {"a": 1}}},
    ],
    ids=["absent", "list", "no-counts", "str", "list-counts", "unsorted-doc-ids"],
)
def test_load_rejects_malformed_docs_table(tmp_path, tiny_index, docs):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    snapshot = json.loads(path.read_text())
    if docs is None:
        del snapshot["docs"]
    else:
        snapshot["docs"] = docs
    path.write_text(json.dumps(snapshot))
    with pytest.raises(ValueError, match="index.json"):
        InvertedIndex.load(path)


@pytest.mark.parametrize(
    "entry",
    [
        {"length": 3, "counts": {"a": 2.9, "b": 1}},
        {"length": 3, "counts": {"a": -3, "b": 1}},
        {"length": 3, "counts": {"a": True, "b": 1}},
        {"length": 3, "counts": {"a": "1", "b": 1}},
        {"length": 3, "counts": {"a": 0, "b": 1}},
        {"length": 99, "counts": {"a": 2, "b": 1}},
        {"length": 3.0, "counts": {"a": 2, "b": 1}},
        {"length": 3, "counts": {"b": 1, "a": 2}},
    ],
    ids=[
        "float", "negative", "bool", "string", "zero", "length-sum", "float-length",
        "unsorted-terms",
    ],
)
def test_load_rejects_counts_it_would_change(tmp_path, tiny_index, entry):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    snapshot = json.loads(path.read_text())
    snapshot["docs"]["d1"] = entry
    path.write_text(json.dumps(snapshot))
    with pytest.raises(ValueError, match=r"index\.json: doc 'd1'"):
        InvertedIndex.load(path)


def test_read_corpus_jsonl(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "d1", "text": "alpha beta"}\n'
        "\n"
        '{"id": "d2", "text": "gamma"}\n'
    )
    assert list(read_corpus_jsonl(path)) == [("d1", "alpha beta"), ("d2", "gamma")]


def test_read_corpus_jsonl_names_bad_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1", "text": "ok"}\nnot json at all\n')
    with pytest.raises(ValueError, match="line 2"):
        list(read_corpus_jsonl(path))


def test_build_index_uses_analyzer():
    index = build_index([("d1", "Hawaii's volcanoes ERUPTING")], analyzer=analyze)
    assert index.doc("d1").term_counts == {"hawaii": 1, "volcano": 1, "erupt": 1}
