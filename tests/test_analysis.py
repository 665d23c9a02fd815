"""Tokenizer, stopword, and stemmer behavior, pinned by golden outputs."""

import json
import random
from collections import Counter

import pytest

from sessionsearch import analysis
from sessionsearch.analysis import (
    STOPWORDS,
    AnalyzedText,
    analyze,
    stem,
    term_memo,
    tokenize,
    whitespace_analyze,
)
from sessionsearch.index import build_index
from sessionsearch.session import load_sessions

# The stemmer's exact outputs are part of the package contract; every index
# and every session replay depends on them being stable. Values were frozen
# from a reference run and must never drift silently.
GOLDEN_STEMS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agr"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "deci"),
    ("hopefulness", "hope"),
    ("callousness", "callou"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defen"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "cea"),
    ("controll", "control"),
    ("roll", "roll"),
    ("jealously", "jealou"),
    ("volcanoes", "volcano"),
    ("eruption", "erupt"),
    ("erupting", "erupt"),
    ("searching", "search"),
    ("searches", "search"),
    ("engineering", "engin"),
    ("retrieval", "retriev"),
    ("sessions", "session"),
    ("queries", "queri"),
]


def test_golden_stems():
    mismatches = [
        (word, expected, stem(word))
        for word, expected in GOLDEN_STEMS
        if stem(word) != expected
    ]
    assert mismatches == []


def test_stem_reaches_fixed_point():
    for word, _ in GOLDEN_STEMS:
        once = stem(word)
        assert stem(once) == once


def test_tokenize_splits_on_non_alphanumerics():
    assert tokenize("Mt. St. Helens-1980!") == ["mt", "st", "helens", "1980"]
    assert tokenize("it's a UNION-issue") == ["it", "s", "a", "union", "issue"]
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def test_analyze_golden_example():
    assert analyze("Hawaii's volcanoes ERUPTING").tokens == ("hawaii", "volcano", "erupt")


def test_analyze_empty_and_stopword_only():
    assert analyze("").tokens == ()
    assert analyze("the of and").tokens == ()
    # Possessive fragments disappear along with the stopwords around them.
    assert analyze("it's the").tokens == ()


def test_analyze_tokens_are_normalized():
    result = analyze("Pompeii WAS buried; engineers study engineering!")
    assert result.length == len(result.tokens)
    for token in result.tokens:
        assert token
        assert token == token.lower()
        assert " " not in token


def test_analyze_idempotent_on_own_output():
    rng = random.Random(7)
    samples = [
        "Hawaii's volcanoes are erupting again this year",
        "jealously guarded engineering decisions",
        "the agreed-upon defensible position ceased functioning",
        "Sensational! Conditional rationality, effectiveness & dependability...",
    ]
    corpus_words = [w for w, _ in GOLDEN_STEMS]
    for _ in range(20):
        samples.append(" ".join(rng.choice(corpus_words) for _ in range(rng.randint(1, 12))))
    for sample in samples:
        first = analyze(sample)
        again = analyze(" ".join(first.tokens))
        assert again.tokens == first.tokens


def test_stopwords_filtered_after_stemming_too():
    # "wills" stems to "will", which is itself a stopword and must not leak.
    assert analyze("wills and testaments").tokens == ("testament",)
    assert "will" in STOPWORDS


def test_whitespace_analyze_passthrough():
    result = whitespace_analyze("w00 w01 w00")
    assert result.tokens == ("w00", "w01", "w00")
    assert result.counts() == {"w00": 2, "w01": 1}


def test_analyzed_text_counts_order():
    text = AnalyzedText(("b", "a", "b", "c"))
    assert list(text.counts().items()) == [("b", 2), ("a", 1), ("c", 1)]
    assert text.length == 4


def test_analyzed_text_counts_are_read_only_and_tallied_once(monkeypatch):
    from sessionsearch import analysis

    text = AnalyzedText(("b", "a", "b"))
    first = text.counts()
    with pytest.raises(TypeError):
        first["a"] = 5
    monkeypatch.setattr(analysis, "Counter", None)  # a second tally would fail
    assert text.counts() == {"b": 2, "a": 1}
    # Equal texts stay equal and hash alike once one has been tallied.
    assert text == AnalyzedText(("b", "a", "b"))
    assert hash(text) == hash(AnalyzedText(("b", "a", "b")))


# --- the per-call token memo (analysis.term_memo) ---------------------------

DOCS = [
    ("d1", "Jazz clubs and JAZZ bars, 1920s jazz"),
    ("d2", "wills of the jazz club: Hawaii's bars"),
    ("d3", "bars bars bars; it's the clubs"),
]


def distinct_stemmed(texts):
    """Each distinct raw token that the first stopword filter keeps, once."""
    return Counter({tok for text in texts for tok in tokenize(text) if tok not in STOPWORDS})


@pytest.fixture
def stem_calls(monkeypatch):
    """Counts the words analysis.stem is called on."""
    calls = Counter()
    real = analysis.stem

    def counting(word):
        calls[word] += 1
        return real(word)

    monkeypatch.setattr(analysis, "stem", counting)
    return calls


@pytest.mark.parametrize("analyzer", [analyze, lambda text: analyze(text)],
                         ids=["analyze", "wrapped"])
def test_build_index_stems_each_distinct_token_once_per_call(stem_calls, analyzer):
    expected = distinct_stemmed(text for _, text in DOCS)
    build_index(DOCS, analyzer)
    assert stem_calls == expected
    # A second call starts cold: it stems every distinct token again.
    stem_calls.clear()
    build_index(DOCS, analyzer)
    assert stem_calls == expected
    # So does a call after one that raised inside its scope.
    with pytest.raises(ValueError, match="duplicate doc_id"):
        build_index(DOCS + DOCS[:1], analyzer)
    assert analysis._scope_terms.get() is None
    stem_calls.clear()
    build_index(DOCS, analyzer)
    assert stem_calls == expected


def test_custom_analyzer_is_called_as_before(stem_calls):
    index = build_index(DOCS, whitespace_analyze)
    assert stem_calls == Counter()
    assert index.doc("d3").term_counts == {"bars": 2, "bars;": 1, "clubs": 1, "it's": 1,
                                           "the": 1}


def write_sessions(path, entries):
    path.write_text(json.dumps({"sessions": entries}), encoding="utf-8")
    return path


def session_entry(session_id, queries, current):
    steps = [{"query": query, "impressions": [], "clicks": []} for query in queries]
    return {"session_id": session_id, "topic_id": "t1", "steps": steps,
            "current_query": current}


def test_load_sessions_stems_each_distinct_token_once_per_call(tmp_path, stem_calls):
    entries = [
        session_entry("s1", ["jazz clubs", "Jazz clubs in Hawaii's bars"], "jazz bars"),
        session_entry("s2", ["wills and bars"], "JAZZ wills"),
    ]
    expected = distinct_stemmed(["jazz clubs", "Jazz clubs in Hawaii's bars", "jazz bars",
                                 "wills and bars", "JAZZ wills"])
    path = write_sessions(tmp_path / "sessions.json", entries)
    load_sessions(path)
    assert stem_calls == expected
    stem_calls.clear()
    load_sessions(path)
    assert stem_calls == expected
    # A session that fails to parse after others were analyzed ends the
    # scope too; the next call starts cold.
    bad = write_sessions(tmp_path / "bad.json", entries + [{"session_id": "s3"}])
    with pytest.raises(ValueError, match="session s3"):
        load_sessions(bad)
    assert analysis._scope_terms.get() is None
    stem_calls.clear()
    load_sessions(path)
    assert stem_calls == expected


def test_analyze_outside_a_scope_keeps_no_memo(stem_calls):
    analyze("jazz clubs")
    analyze("jazz clubs")
    assert stem_calls == Counter({"jazz": 2, "clubs": 2})


try:
    from hypothesis import given, strategies as st
except ImportError:  # the golden tests above run without hypothesis
    pass
else:
    # Golden-stem words, stopwords, a word that stems onto a stopword,
    # possessive fragments and digits, in any case, joined by separators
    # the tokenizer splits on.
    WORDS = ([word for word, _ in GOLDEN_STEMS] + sorted(STOPWORDS)
             + ["wills", "hawaii's", "it's", "'s", "s", "1980", "x1", "0"])
    word = st.tuples(st.sampled_from(WORDS),
                     st.sampled_from([str.lower, str.upper, str.title])).map(
        lambda pair: pair[1](pair[0]))
    text = st.lists(st.tuples(word, st.sampled_from([" ", "-", ", ", "! ", "\t"])),
                    max_size=12).map(lambda parts: "".join(w + sep for w, sep in parts))

    @given(st.lists(text, max_size=8))
    def test_shared_scope_gives_each_text_its_own_analysis(batch):
        # Hypothesis draws the texts in any order; the reversed pass
        # analyzes them again with every token already in the memo.
        alone = [analyze(item).tokens for item in batch]
        with term_memo():
            shared = [analyze(item).tokens for item in batch]
            again = [analyze(item).tokens for item in reversed(batch)]
        assert shared == alone
        assert again == alone[::-1]
