"""Seeded workload generator: corpus, sessions and qrels from one seed.

Standard library only, and independent of the package: the program under
test sees nothing but the files written here. The same seed and sizes give
byte-identical files.

Corpus: documents of 10-60 tokens drawn from a Zipf distribution over an
English-like vocabulary of multi-syllable words with inflected surface forms
("-s", "-ing", "-ed", "-ness", ...), about a third of them stopwords. A
share of documents belongs to a topic and draws extra words from that
topic's word list; those documents are the judged relevant set.

Sessions: 2-4 history steps per session whose queries retain, add and
remove terms on the way to the current query. Some steps click one or two
impressions and three sessions in ten never click, so feedback comes from
clicks, from pseudo-clicks, or (when no usable impression exists yet) from
nothing. One session in twelve also carries a very common word, so its first
pass matches more documents than the retrieval depth keeps. One step in
three shows a document that is not in the corpus, one in twelve shows
nothing, and one current query in forty is stopwords only, which the
program skips by design.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

_ONSETS = ["b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
           "br", "cr", "dr", "gr", "pl", "pr", "st", "tr", "ch", "sh", "th"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
_CODAS = ["", "", "", "n", "r", "l", "s", "t", "m", "nd", "rt", "st"]
_SUFFIXES = ["s", "ing", "ed", "er", "ly", "ness", "ment", "ation", "ful"]
_STOPWORDS = ["the", "of", "and", "to", "in", "a", "is", "for", "on", "with",
              "as", "by", "that", "this", "from", "at", "was", "are", "be", "it"]

VOCAB_SIZE = 30000
TOPIC_COUNT = 80
TOPIC_WORDS = 12
TOPIC_RANKS = (200, 2000)
TOPIC_DOC_SHARE = 0.3
STOPWORD_SHARE = 0.33
TOPIC_WORD_SHARE = 0.08
BROAD_EVERY = 12
NO_CLICK_SLOTS = (1, 4, 7)
EMPTY_QUERY_EVERY = 40
EMPTY_QUERY_SLOT = 23


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    """Distinct base words of two to four syllables, then inflected forms.

    Each base word gets one to three surface forms, so several surface
    tokens stem to one term. Forms are listed most-common first per base.
    """
    bases: dict[str, None] = {}
    while len(bases) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(rng.choice((2, 2, 3, 3, 4)))
        )
        bases.setdefault(word, None)
    forms = []
    for base in bases:
        forms.append(base)
        for suffix in rng.sample(_SUFFIXES, rng.randint(0, 2)):
            forms.append(base + suffix)
    return forms


def _zipf_cumulative(size: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 2.7) for rank in range(size)))


def generate(seed: int, n_docs: int, n_sessions: int, out_dir: Path) -> dict:
    """Write corpus.jsonl, sessions.json and qrels.txt; return designed counts."""
    # The vocabulary and its frequency ranking are the same for every seed,
    # like a language; the seed picks the documents and sessions.
    vocab = _vocabulary(random.Random("sessionsearch-bench:vocabulary"), VOCAB_SIZE)
    rng = random.Random(f"sessionsearch-bench:{seed}")
    cum = _zipf_cumulative(len(vocab))

    # Topic words come from the middle of the frequency ranking so that
    # topical documents stand out. One session in BROAD_EVERY also carries a
    # word from the head of the ranking, which matches more documents than
    # the first pass keeps, so those sessions are the depth-capped ones.
    # Each topic takes one word from each of TOPIC_WORDS equal rank bands,
    # so every topic has the same spread of document frequencies.
    band = (TOPIC_RANKS[1] - TOPIC_RANKS[0]) // TOPIC_WORDS
    topics = [[vocab[rng.randrange(TOPIC_RANKS[0] + j * band, TOPIC_RANKS[0] + (j + 1) * band)]
               for j in range(TOPIC_WORDS)] for _ in range(TOPIC_COUNT)]
    head = vocab[0:4]

    doc_ids = [f"d{i:06d}" for i in range(n_docs)]
    doc_topic: dict[str, int] = {}
    topic_hits: dict[str, int] = {}
    emitted: set[str] = set()
    corpus_lines = []
    for doc_id in doc_ids:
        length = rng.randint(10, 60)
        topic = rng.randrange(TOPIC_COUNT) if rng.random() < TOPIC_DOC_SHARE else None
        words = rng.choices(vocab, cum_weights=cum, k=length)
        hits = 0
        for pos in range(length):
            roll = rng.random()
            if roll < STOPWORD_SHARE:
                words[pos] = rng.choice(_STOPWORDS)
            elif topic is not None and roll < STOPWORD_SHARE + TOPIC_WORD_SHARE:
                words[pos] = rng.choice(topics[topic])
                hits += 1
        emitted.update(words)
        if topic is not None:
            doc_topic[doc_id] = topic
            topic_hits[doc_id] = hits
        corpus_lines.append(json.dumps({"id": doc_id, "text": " ".join(words)}))

    by_topic: dict[int, list[str]] = {t: [] for t in range(TOPIC_COUNT)}
    for doc_id, topic in doc_topic.items():
        by_topic[topic].append(doc_id)
    live_topics = [t for t in range(TOPIC_COUNT) if by_topic[t]]
    topic_terms = {t: [w for w in topics[t] if w in emitted] for t in live_topics}
    head_terms = [w for w in head if w in emitted]

    sessions = []
    counts = {
        "sessions": n_sessions,
        "broad_sessions": 0,
        "history_steps": 0,
        "steps_with_clicks": 0,
        "steps_without_impressions": 0,
        "missing_impressions": 0,
        "impressions": 0,
        "empty_current_ids": [],
    }
    for s in range(n_sessions):
        # Whatever sets a session's cost is fixed by its position, not drawn:
        # depth-capping and which head word does it, query length and the frequency bands of its words,
        # history length, which steps show, click or miss. Two seeds then
        # differ in content (topics, words, documents) but not in mix.
        broad = s % BROAD_EVERY == BROAD_EVERY // 2
        clicks_allowed = s % 10 not in NO_CLICK_SLOTS
        topic = rng.choice(live_topics)
        words = topic_terms[topic]
        relevant = by_topic[topic]
        head_word = head_terms[s // BROAD_EVERY % len(head_terms)] if broad else None
        # One word from each third of the topic's frequency bands.
        query = [words[(j * 4 + s % 4) % len(words)] for j in range(2 + s % 2)]
        steps = []
        for t in range(2 + s % 3):
            impressions: list[str] = []
            if (s + t) % 12 != 5:
                k = 6 + (s + t) % 5
                pool = rng.sample(relevant, min(len(relevant), k // 2))
                pool += rng.sample(doc_ids, k - len(pool))
                impressions = list(dict.fromkeys(pool))
                rng.shuffle(impressions)
                if (s + 2 * t) % 3 == 0:
                    impressions.insert(rng.randrange(len(impressions) + 1),
                                       f"x{rng.randrange(10**6):06d}")
            clicks = []
            if clicks_allowed and impressions and (s + t) % 2 == 0:
                liked = [d for d in impressions if doc_topic.get(d) == topic] or impressions
                for doc_id in rng.sample(liked, min(len(liked), 1 + (s // 2 + t) % 2)):
                    clicks.append({"doc": doc_id, "dwell": round(rng.uniform(5, 120), 1)})
            counts["history_steps"] += 1
            counts["steps_with_clicks"] += bool(clicks)
            counts["steps_without_impressions"] += not impressions
            counts["impressions"] += len(impressions)
            counts["missing_impressions"] += sum(d.startswith("x") for d in impressions)
            steps.append({"query": _render(query, head_word), "impressions": impressions,
                          "clicks": clicks})
            query = _reformulate(query, words, s + t)
        if s % EMPTY_QUERY_EVERY == EMPTY_QUERY_SLOT:
            current = " ".join(rng.sample(_STOPWORDS, 3))
            counts["empty_current_ids"].append(f"s{s:04d}")
        else:
            current = _render(query, head_word)
        counts["broad_sessions"] += broad
        sessions.append({"session_id": f"s{s:04d}", "topic_id": f"t{topic:03d}",
                         "steps": steps, "current_query": current})

    qrels_lines = []
    for topic in live_topics:
        for doc_id in sorted(by_topic[topic]):
            grade = 2 if topic_hits[doc_id] >= 16 else 1
            qrels_lines.append(f"t{topic:03d} 0 {doc_id} {grade}")
        for doc_id in sorted(rng.sample(doc_ids, 5)):
            if doc_topic.get(doc_id) != topic:
                qrels_lines.append(f"t{topic:03d} 0 {doc_id} 0")

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "corpus.jsonl").write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    (out_dir / "sessions.json").write_text(
        json.dumps({"sessions": sessions}, indent=1) + "\n", encoding="utf-8")
    (out_dir / "qrels.txt").write_text("\n".join(qrels_lines) + "\n", encoding="utf-8")
    counts["docs"] = n_docs
    counts["topic_docs"] = len(doc_topic)
    return counts


def _render(terms: list[str], head_word: str | None) -> str:
    return " ".join(terms if head_word is None else [head_word, *terms])


def _reformulate(query: list[str], topic_words: list[str], slot: int) -> list[str]:
    """Retain, add to, remove from, or swap a term, in turn by position."""
    query = list(query)
    fresh = [w for w in topic_words if w not in query]
    move = slot % 4
    if move == 1 and fresh:
        query.append(fresh[slot % len(fresh)])
    elif move == 2 and len(query) > 1:
        query.pop(slot % len(query))
    elif move == 3 and fresh:
        query[slot % len(query)] = fresh[slot % len(fresh)]
    return query
