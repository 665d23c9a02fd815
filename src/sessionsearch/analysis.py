"""Text analysis: tokenization, stopword removal, and stemming.

Queries and documents share this one chain so that term statistics line up.
The tokenizer splits a text into runs of ASCII [a-z0-9] with one byte-table
pass over its ASCII encoding. The stemmer is a self-contained
Porter-family suffix stripper whose pass repeats until it changes nothing.
Its exact outputs are pinned by golden tests and by a frozen copy of the
earlier, linear-scan stemmer (tests/stem_reference.py), so treat any change
to them as breaking. Steps 1 and 5 test the word's last letter before any
suffix. Steps 2-4 file their rules by the last two letters of the suffix,
longest first, so a step does one dict lookup and tests only the few
suffixes that end as the word does. The measure m and the vowel test read a
form of the stem in which each character is marked consonant or vowel, made
with one str.translate.

Inside a term_memo() scope, analyze maps each distinct raw token to its
term (or to "dropped") once and looks it up after that: a token's analysis
depends on the token alone, and most token occurrences in a corpus repeat
an earlier token (Heaps' law). index.build_index and session.load_sessions
each open one scope per call. The memo is never module-global, because a
process that repeats a command (the benchmark does) would then time work
that no user's command gets. Analyzers are still called as analyzer(text),
so custom analyzers such as whitespace_analyze are unaffected.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

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

# Byte -> itself for ASCII [a-z0-9], a space for every other byte.
_TOKEN_BYTES = bytes(code if chr(code) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32
                     for code in range(256))


class _ConsonantUnlessListed(dict):
    """A str.translate table that marks every character it does not list as
    a consonant, where a plain table would leave that character unchanged.
    Uppercase letters, digits and non-ASCII letters are consonants."""

    def __missing__(self, code: int) -> str:
        return "c"


# Letter -> "v" (vowel), "c" (consonant) or "y", which _cv_form resolves.
# Every ASCII code is listed, so str.translate's ASCII fast path never calls
# __missing__.
_CV_TABLE = _ConsonantUnlessListed(
    {code: "v" if chr(code) in "aeiou" else "y" if chr(code) == "y" else "c"
     for code in range(128)})


def _cv_form(word: str) -> str:
    """word with each character marked consonant ("c") or vowel ("v")."""
    form = word.translate(_CV_TABLE)
    if "y" in form:
        # A "y" is a consonant at the start or after a vowel and a vowel
        # after a consonant (e.g. "happy"). Each round settles the first
        # unsettled "y" of every run.
        if form[0] == "y":
            form = "c" + form[1:]
        while "y" in form:
            form = form.replace("cy", "cv").replace("vy", "vc")
    return form


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: the m in [C](VC)^m[V]."""
    return _cv_form(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _cv_form(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _cv_form(word)[-1] == "c"


def _ends_cvc(word: str) -> bool:
    return _cv_form(word)[-3:] == "cvc" and word[-1] not in "wxy"


def _by_last_two(rules):
    """(suffix, replacement) rules keyed by the last two letters of the
    suffix, each key's rules longest first: a word can only end with the
    suffixes filed under its own last two letters, so the first of those it
    ends with is the longest match of the whole step."""
    table = {}
    for suffix, replacement in sorted(rules, key=lambda rule: -len(rule[0])):
        table.setdefault(suffix[-2:], []).append((suffix, replacement))
    return {key: tuple(candidates) for key, candidates in table.items()}


_STEP2 = _by_last_two([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
])

_STEP3 = _by_last_two([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
])

_STEP4 = _by_last_two((suffix, "") for suffix in [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
])


def _porter_pass(w: str) -> str:
    # Steps 1 and 5 test the last letter before any suffix, since most words
    # end in none of s, d, g, y, e and l. w is never empty: no step empties it.

    # Step 1a: plurals.
    if w[-1] == "s":
        if w.endswith("sses"):
            w = w[:-2]
        elif w.endswith("ies"):
            w = w[:-2]
        elif not w.endswith("ss"):
            w = w[:-1]

    # Step 1b: -eed / -ed / -ing.
    stripped = None
    if w[-1] == "d":
        if w.endswith("eed"):
            if _measure(w[:-3]) > 0:
                w = w[:-1]
        elif w.endswith("ed") and _has_vowel(w[:-2]):
            stripped = w[:-2]
    elif w[-1] == "g" and w.endswith("ing") and _has_vowel(w[:-3]):
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
    if w[-1] == "y" and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Steps 2-4: suffix tables, longest match wins, one rule per step.
    for suffix, replacement in _STEP2.get(w[-2:], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + replacement
            break
    for suffix, replacement in _STEP3.get(w[-2:], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + replacement
            break
    for suffix, _ in _STEP4.get(w[-2:], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 1 and (suffix != "ion" or (stem and stem[-1] in "st")):
                w = stem
            break

    # Step 5a: terminal e.
    if w[-1] == "e":
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # Step 5b: terminal double l. Its own if, not an elif of 5a: a word
    # that 5a shortens can end in "ll" ("giselle" -> "gisell" -> "gisel").
    if w[-1] == "l" and w.endswith("ll") and _measure(w[:-1]) > 1:
        w = w[:-1]

    return w


def stem(word: str) -> str:
    """Stem a lowercase token.

    The Porter pass is repeated until it changes nothing, so stem(stem(w))
    == stem(w) and re-analyzing analyzed text is a no-op (a single pass is
    not idempotent for all words). Words of length <= 2 are left alone.
    """
    # This ends: no pass makes a word longer, and a pass that keeps the
    # length only turns a final "y" into "i" or a final "i" into "e", so at
    # most two passes in a row keep the length.
    w = word
    while len(w) > 2:
        nxt = _porter_pass(w)
        if nxt == w:
            break
        w = nxt
    return w


def tokenize(text: str) -> list[str]:
    """Lowercase, then split into runs of ASCII [a-z0-9]: every other
    character, "é" and the other non-ASCII letters too, separates tokens.

    The ASCII encoding turns each non-ASCII code point (a lone surrogate
    too) into "?", which the byte table, like every byte outside [a-z0-9],
    turns into a space.
    """
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


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
        # Tallied once per instance: the query models and scorers ask for a
        # query's counts at each session step. build_index counts documents
        # from their sorted tokens instead.
        return Counter(self.tokens)


class _Terms(dict):
    """Raw token -> analyzed term, or None when a stopword filter drops it.
    A token is analyzed on its first lookup."""

    def __missing__(self, token: str) -> Optional[str]:
        term = None if token in STOPWORDS else stem(token)
        if term in STOPWORDS:
            term = None
        self[token] = term
        return term


# The memo of the innermost open term_memo() scope; None outside any scope.
_scope_terms: ContextVar[Optional[_Terms]] = ContextVar("scope_terms", default=None)


@contextmanager
def term_memo() -> Iterator[None]:
    """Share one token memo among the analyze calls made inside the block.

    Each scope starts empty and is discarded on exit, also when the block
    raises. Outputs are those of analyze without a scope; only repeated
    tokens cost less.
    """
    reset = _scope_terms.set(_Terms())
    try:
        yield
    finally:
        _scope_terms.reset(reset)


def analyze(text: str) -> AnalyzedText:
    """Full analysis chain: tokenize, drop stopwords, stem, drop stopwords.

    The second stopword filter keeps the output closed under re-analysis:
    a stem can collapse onto a stopword ("wills" -> "will"). Inside a
    term_memo() scope each distinct token is analyzed once per scope.
    """
    terms = _scope_terms.get()
    if terms is None:
        terms = _Terms()
    # filter(None, ...) drops only the None of a dropped token: a term is
    # never "", because stem leaves every non-empty word non-empty.
    return AnalyzedText(tuple(filter(None, map(terms.__getitem__, tokenize(text)))))


def whitespace_analyze(text: str) -> AnalyzedText:
    """Lowercase whitespace split with no stopwords or stemming.

    For corpora whose text is already normalized (synthetic experiments).
    """
    return AnalyzedText(tuple(text.lower().split()))
