"""Index construction, statistics, persistence, and corpus parsing."""

import gc
import json
import math
import re
import weakref
from collections import Counter
from types import MappingProxyType

import pytest

from conftest import log_likelihood

from sessionsearch.analysis import AnalyzedText, analyze, whitespace_analyze
from sessionsearch.index import (
    DocumentRecord,
    InvertedIndex,
    build_index,
    read_corpus_jsonl,
)
from sessionsearch.inputs import json_field, shown
from sessionsearch.lm import top_k_by_query_likelihood


def test_hand_counted_two_doc_fixture(tiny_index):
    stats = tiny_index.stats
    assert stats.collection_tf == {"a": 2, "b": 2, "c": 1}
    assert stats.total_tokens == 5
    assert stats.doc_freq == {"a": 1, "b": 2, "c": 1}
    assert stats.num_docs == 2
    assert tiny_index.doc("d1").term_counts == {"a": 2, "b": 1}
    assert tiny_index.doc("d1").length == 3
    assert tiny_index.doc("d2").term_counts == {"b": 1, "c": 1}
    assert tiny_index.lengths == {"d1": 3, "d2": 2}


def test_postings_consistent_and_sorted(tiny_index):
    assert tuple(tiny_index.postings["b"]) == (("d1", 1), ("d2", 1))
    for term, postings in tiny_index.postings.items():
        doc_ids = [doc_id for doc_id, _ in postings]
        assert doc_ids == sorted(doc_ids)
        for doc_id, tf in postings:
            assert tiny_index.doc(doc_id).term_counts[term] == tf


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_postings_serve_the_benchmarks_reads(tmp_path, club_docs, loaded):
    # Exactly the reads bench/run.py and bench/probe.py make of the
    # postings, against counts taken from the document table here, so a
    # layout that would break the benchmark fails here first.
    index = build_index(club_docs, analyzer=whitespace_analyze)
    if loaded:
        index.save(tmp_path / "index.json")
        index = InvertedIndex.load(tmp_path / "index.json")
    cf, df, docs = Counter(), Counter(), {}
    for doc_id, rec in index.doc_table.items():
        cf.update(rec.term_counts)
        df.update(rec.term_counts.keys())
        for term in rec.term_counts:
            docs.setdefault(term, []).append(doc_id)
    postings = index.postings
    assert len(postings) == len(cf) == 16
    assert sum(len(p) for p in postings.values()) == sum(df.values())
    for term in cf:
        assert len(postings[term]) == df[term]
        assert sum(c for _, c in postings[term]) == cf[term]
        assert [doc_id for doc_id, _ in postings.get(term, ())] == docs[term]
    assert [doc_id for doc_id, _ in postings.get("never-indexed", ())] == []
    mapping = postings["jazz"].mapping
    assert dict(mapping) == {"d1": 2, "d3": 1}
    with pytest.raises(TypeError):
        mapping["d2"] = 1
    with pytest.raises(TypeError):
        del mapping["d1"]
    assert not hasattr(mapping, "clear")
    assert dict(postings["jazz"]) == {"d1": 2, "d3": 1}


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


@pytest.mark.parametrize("doc_id", ["", "d 1", "d1\n", "d\u20031"])
def test_doc_id_a_snapshot_cannot_hold_rejected(doc_id):
    # InvertedIndex.load refuses such an id, so no index may hold one.
    with pytest.raises(ValueError, match=re.escape(f"doc id {doc_id!r}")):
        build_index([("d0", "jazz"), (doc_id, "jazz club")], analyzer=whitespace_analyze)


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
        [(term, list(postings)) for term, postings in index.postings.items()],
        list(index.stats.collection_tf.items()),
        list(index.stats.doc_freq.items()),
        list(index.lengths.items()),
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
        before = log_likelihood(query, built.doc(doc_id), built.stats, 2500.0)
        after = log_likelihood(query, loaded.doc(doc_id), loaded.stats, 2500.0)
        assert before == after


@pytest.mark.parametrize("first", ["postings", "stats", "lengths", "gather"])
def test_derived_on_first_read_as_loaded(tmp_path, club_docs, first):
    # Neither build nor load derives anything. A gather derives the given
    # terms' postings alone; the first read of another term derives the
    # rest. Either way both indexes end equal down to iteration order.
    built = build_index(club_docs, analyzer=whitespace_analyze)
    path = tmp_path / "index.json"
    built.save(path)
    loaded = InvertedIndex.load(path)
    for index in (built, loaded):
        assert not {"postings", "stats", "lengths"} & vars(index).keys()
        if first == "gather":
            index.postings.gather(["rock", "never-indexed", "jazz", "rock"])
            assert index.postings._views.keys() == {"jazz", "rock"}
            assert len(index.postings) == 16
            assert index.postings._views.keys() == {"jazz", "rock"}
        else:
            getattr(index, first)
            assert first in vars(index)
    assert list(built.postings["club"]) == list(loaded.postings["club"])
    assert iteration_order(built) == iteration_order(loaded)
    assert built.stats == loaded.stats


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_lengths_are_the_records_lengths_and_sum_to_the_total(tmp_path, club_docs, loaded):
    index = build_index(club_docs, analyzer=whitespace_analyze)
    if loaded:
        index.save(tmp_path / "index.json")
        index = InvertedIndex.load(tmp_path / "index.json")
    assert list(index.lengths.items()) == [
        (doc_id, sum(rec.term_counts.values())) for doc_id, rec in index.doc_table.items()]
    assert index.stats.total_tokens == sum(index.lengths.values())


def test_save_is_deterministic(tmp_path, club_index):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    club_index.save(path_a)
    club_index.save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_save_writes_each_docs_count_map_and_nothing_derived(tmp_path, tiny_index):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    assert path.read_text(encoding="utf-8") == (
        '{"docs":{"d1":{"a":2,"b":1},"d2":{"b":1,"c":1}},'
        '"magic":"sessionsearch-index","version":2}\n'
    )


def test_save_writes_any_mapping_of_counts(tmp_path, tiny_index):
    proxied = InvertedIndex({
        doc_id: DocumentRecord(doc_id, MappingProxyType(dict(rec.term_counts)), rec.length)
        for doc_id, rec in tiny_index.doc_table.items()
    })
    expected, path = tmp_path / "expected.json", tmp_path / "proxied.json"
    tiny_index.save(expected)
    proxied.save(path)
    assert path.read_bytes() == expected.read_bytes()


def load_error(path, snapshot):
    """The message of the ValueError that loading snapshot, written to path, raises."""
    path.write_text(json.dumps(snapshot))
    with pytest.raises(ValueError) as caught:
        InvertedIndex.load(path)
    return str(caught.value)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.json"
    snapshot = {"magic": "not-an-index", "version": 2, "docs": {}}
    assert load_error(path, snapshot) == f"{path}: not an index snapshot (bad magic header)"


def test_load_rejects_a_version_1_snapshot_with_a_rebuild_line(tmp_path):
    # The format-1 layout: each doc an object of its counts and its length.
    path = tmp_path / "index.json"
    snapshot = {"magic": "sessionsearch-index", "version": 1,
                "docs": {"d1": {"counts": {"a": 2, "b": 1}, "length": 3}}}
    assert load_error(path, snapshot) == (
        f"{path}: snapshot version 1 is not 2; rebuild it with the index command"
    )


def check_version_rejected(tmp_path, tiny_index, version):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    snapshot = json.loads(path.read_text())
    snapshot["version"] = version
    assert load_error(path, snapshot) == (
        f"{path}: snapshot version {version!r} is not 2; rebuild it with the index command"
    )


def test_load_rejects_wrong_version(tmp_path, tiny_index):
    check_version_rejected(tmp_path, tiny_index, 999)


# A version equal to a version number but not a JSON integer is named as
# written, never read as that number.
@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_load_rejects_version_equal_to_1_but_not_an_int(tmp_path, tiny_index, version):
    check_version_rejected(tmp_path, tiny_index, version)


def test_load_rejects_version_equal_to_2_but_not_an_int(tmp_path, tiny_index):
    check_version_rejected(tmp_path, tiny_index, 2.0)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The caller's cyclic-collector setting, restored after the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_load_and_build_keep_the_callers_collector_setting(tmp_path, tiny_index, collector):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    assert InvertedIndex.load(path).postings == tiny_index.postings
    assert gc.isenabled() is collector
    assert build_index([("d1", "a b")]).stats.num_docs == 1
    assert gc.isenabled() is collector
    snapshot = json.loads(path.read_text())
    snapshot["docs"]["d1"]["a"] = 0
    assert load_error(path, snapshot).endswith("doc 'd1': counts must be positive integers")
    assert gc.isenabled() is collector


def test_a_dropped_index_is_freed_without_the_collector(collector):
    # Nothing the first pass leaves behind may form a cycle with the stats,
    # so reference counting alone frees them once the index is dropped,
    # also with the collector off.
    index = build_index([("d1", "jazz club jazz"), ("d2", "rock club")])
    assert top_k_by_query_likelihood(analyze("jazz club"), index, 10.0, 5)
    stats = weakref.ref(index.stats)
    del index
    assert stats() is None


@pytest.mark.parametrize(
    "docs, message",
    [
        (None, "snapshot has no 'docs' object"),
        ([], "snapshot has no 'docs' object"),
        ({"d1": "a"}, "doc 'd1': not a JSON object"),
        ({"d1": [["a", 2], ["b", 1]]}, "doc 'd1': not a JSON object"),
        ({"d2": {"b": 1}, "d1": {"a": 1}}, "doc 'd1': not in doc_id order (it follows 'd2')"),
    ],
    ids=["absent", "list", "str", "list-counts", "unsorted-doc-ids"],
)
def test_load_rejects_malformed_docs_table(tmp_path, tiny_index, docs, message):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    snapshot = json.loads(path.read_text())
    if docs is None:
        del snapshot["docs"]
    else:
        snapshot["docs"] = docs
    assert load_error(path, snapshot) == f"{path}: {message}"


POSITIVE = "counts must be positive integers"
PAST_2_53 = "counts sum to more than 2**53"


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"a": 2.9, "b": 1}, POSITIVE),
        ({"a": -3, "b": 1}, POSITIVE),
        ({"a": True, "b": 1}, POSITIVE),
        ({"a": "1", "b": 1}, POSITIVE),
        ({"a": 0, "b": 1}, POSITIVE),
        ({"b": 1, "a": 2}, "counts are not in term order"),
        ({"a": 2**53, "b": 1}, PAST_2_53),
        ({"a": 2**53 + 1, "b": 1}, PAST_2_53),
        ({"a": 10**400, "b": 1}, PAST_2_53),
        ({"counts": {"a": 2, "b": 1}, "length": 3}, POSITIVE),
    ],
    ids=[
        "float", "negative", "bool", "string", "zero",
        "unsorted-terms", "sum-past-2**53", "count-past-2**53", "past-float-range",
        "format-1-entry",
    ],
)
def test_load_rejects_counts_it_would_change(tmp_path, tiny_index, counts, message):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    snapshot = json.loads(path.read_text())
    snapshot["docs"]["d1"] = counts
    assert load_error(path, snapshot) == f"{path}: doc 'd1': {message}"


def test_load_accepts_counts_summing_to_2_53(tmp_path, tiny_index):
    path = tmp_path / "index.json"
    tiny_index.save(path)
    snapshot = json.loads(path.read_text())
    snapshot["docs"]["d1"] = {"a": 2**53 - 1, "b": 1}
    path.write_text(json.dumps(snapshot))
    loaded = InvertedIndex.load(path)
    assert loaded.doc("d1").length == 2**53
    assert loaded.stats.collection_tf["a"] >= 2**53 - 1


@pytest.mark.parametrize(
    "obj, args, value",
    [
        ({"q": "x"}, ("q", str), "x"),
        ({"n": 3}, ("n", int), 3),
        ({}, ("steps", list, ()), ()),
        ({"steps": [{}]}, ("steps", list, (), dict), [{}]),
        ({"ids": ["a", "b"]}, ("ids", list, None, str), ["a", "b"]),
    ],
)
def test_json_field_reads_a_field_of_its_kind(obj, args, value):
    assert json_field(obj, *args) == value


@pytest.mark.parametrize(
    "obj, args, message",
    [
        ({}, ("query", str), "missing 'query'"),
        ({"query": None}, ("query", str), "'query' must be a string"),
        ({"n": True}, ("n", int), "'n' must be an integer"),
        ({"n": 1.0}, ("n", int), "'n' must be an integer"),
        ({"c": []}, ("c", dict), "'c' must be an object"),
        ({"steps": {}}, ("steps", list, ()), "'steps' must be a list"),
        ({"steps": [["q"]]}, ("steps", list, (), dict), "each item of 'steps' must be an object"),
        ({"ids": ["a", 1]}, ("ids", list, None, str), "each item of 'ids' must be a string"),
        (["q"], ("query", str), "not a JSON object"),
        ("query", ("query", str), "not a JSON object"),
    ],
)
def test_json_field_names_a_bad_field(obj, args, message):
    with pytest.raises(ValueError) as raised:
        json_field(obj, *args)
    assert str(raised.value) == message


@pytest.mark.parametrize("value, text", [
    ("jazz", "'jazz'"),
    (10**39, "1" + "0" * 39),
    (10**40, "1" + "0" * 39 + "…"),
    ("1" + "0" * 5000, "'1" + "0" * 38 + "…"),
])
def test_shown_cuts_a_long_repr_to_40_characters(value, text):
    assert shown(value) == text


@pytest.mark.parametrize("value, text", [
    (10**5000, "<int of 16610 bits>"),
    (-10**5000, "<negative int of 16610 bits>"),
], ids=["positive", "negative"])
def test_shown_writes_an_int_past_the_digit_limit_without_raising(value, text):
    assert shown(value) == text


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
