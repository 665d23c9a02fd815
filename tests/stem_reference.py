"""Frozen reference copy of the Porter stemmer, for differential tests.

The code below is the stemmer as it stood before its suffix steps became
table lookups and its measure a consonant/vowel form: a linear scan over
each step's suffixes, longest first, and a per-character consonant test.
analysis.stem must give the same output as this stem for every word.
Do not optimize or restyle it; its value is that it is the old code. The
one change is in stem: it repeats the pass until nothing changes, as
analysis.stem does, where the original stopped after eight passes.
"""

from __future__ import annotations

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
    """Apply the verbatim pass until it changes nothing (the original capped
    it at eight passes, which left a few words short of their fixed point)."""
    w = word
    while len(w) > 2:
        nxt = _porter_pass(w)
        if nxt == w:
            return w
        w = nxt
    return w
