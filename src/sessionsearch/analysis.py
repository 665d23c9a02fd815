"""Text analysis: tokenization, stopword removal, and stemming.

Queries and documents share this one chain so that term statistics line up.
The stemmer is a self-contained Porter-family suffix stripper; its exact
outputs are pinned by golden tests, so treat any change here as breaking.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

# Fixed English stopword list (NLTK's list minus apostrophe forms). The bare
# single letters ("s", "t", "d", ...) matter: the tokenizer splits on
# non-alphanumerics, so possessives like "hawaii's" arrive as ["hawaii", "s"].
STOPWORDS = frozenset("""
i me my myself we our ours ourselves you your yours yourself yourselves
he him his himself she her hers herself it its itself they them their theirs
themselves what which who whom this that these those am is are was were be
been being have has had having do does did doing a an the and but if or
because as until while of at by for with about against between into through
during before after above below to from up down in out on off over under
again further then once here there when where why how all any both each few
more most other some such no nor not only own same so than too very s t can
will just don should now d ll m o re ve y ain aren couldn didn doesn hadn
hasn haven isn ma mightn mustn needn shan shouldn wasn weren won wouldn
""".split())

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # "y" counts as a vowel when it follows a consonant (e.g. "happy").
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: the m in [C](VC)^m[V]."""
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i == n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _longest_first(rules):
    return tuple(sorted(rules, key=lambda rule: -len(rule[0])))


_STEP2 = _longest_first([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
])

_STEP3 = _longest_first([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
])

_STEP4 = tuple(sorted([
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
], key=len, reverse=True))


def _porter_pass(w: str) -> str:
    # Step 1a: plurals.
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # Step 1b: -eed / -ed / -ing.
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _has_vowel(w[:-2]):
            stripped = w[:-2]
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            stripped = w[:-3]
        if stripped is not None:
            w = stripped
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # Step 1c: terminal y.
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Steps 2-4: suffix tables, longest match wins, one rule per step.
    for suffix, replacement in _STEP2:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + replacement
            break
    for suffix, replacement in _STEP3:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + replacement
            break
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 1 and (suffix != "ion" or (stem and stem[-1] in "st")):
                w = stem
            break

    # Step 5a: terminal e.
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # Step 5b: terminal double l.
    if w.endswith("ll") and _measure(w[:-1]) > 1:
        w = w[:-1]

    return w


def stem(word: str) -> str:
    """Stem a lowercase token.

    The Porter pass is iterated to a fixed point so that re-analyzing already
    analyzed text is a no-op (a single pass is not idempotent for all words).
    Words of length <= 2 are left alone.
    """
    w = word
    for _ in range(8):
        if len(w) <= 2:
            return w
        nxt = _porter_pass(w)
        if nxt == w:
            return w
        w = nxt
    return w


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class AnalyzedText:
    """An analyzed token sequence (order and multiplicity preserved)."""

    tokens: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.tokens)

    def counts(self) -> Mapping[str, int]:
        """Occurrences of each token, in first-occurrence order; read-only."""
        return MappingProxyType(self._tally)

    @cached_property
    def _tally(self) -> Counter:
        # Tallied once per instance: scoring asks for it once per document.
        return Counter(self.tokens)


def analyze(text: str) -> AnalyzedText:
    """Full analysis chain: tokenize, drop stopwords, stem, drop stopwords.

    The second stopword filter keeps the output closed under re-analysis:
    a stem can collapse onto a stopword ("wills" -> "will").
    """
    out = []
    for tok in tokenize(text):
        if tok in STOPWORDS:
            continue
        st = stem(tok)
        if st in STOPWORDS:
            continue
        out.append(st)
    return AnalyzedText(tuple(out))


def whitespace_analyze(text: str) -> AnalyzedText:
    """Lowercase whitespace split with no stopwords or stemming.

    For corpora whose text is already normalized (synthetic experiments).
    """
    return AnalyzedText(tuple(text.lower().split()))
