"""Tokenizer, stopword, and stemmer behavior, pinned by golden outputs."""

import random

import pytest

from sessionsearch.analysis import (
    STOPWORDS,
    AnalyzedText,
    analyze,
    stem,
    tokenize,
    whitespace_analyze,
)

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
