"""Probabilistic primitives: sparse term distributions and LM scoring.

All logarithms are natural. Scores in log space may be -inf (a query term
with zero corpus and document mass); that sentinel is preserved rather than
floored so callers can rank or fail loudly as they see fit.
"""

from __future__ import annotations

import math
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .analysis import AnalyzedText
from .index import DocumentRecord, CollectionStats, InvertedIndex
from .inputs import InputError

NEG_INF = float("-inf")

RankedList = list[tuple[str, float]]

# The error line of a document that mu = 0 cannot smooth.
_EMPTY_DOCUMENT = "cannot smooth over an empty document ({doc}) with mu={mu}"


class TermDistribution:
    """A sparse probability distribution over vocabulary terms.

    Instances hold only positive-probability terms. The module constant ZERO
    (empty support) is the induction base for session models; every other
    instance sums to 1.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: dict[str, float]):
        self._probs = probs

    @classmethod
    def from_weights(cls, weights: Mapping[str, float]) -> "TermDistribution":
        """Normalize non-negative weights into a distribution.

        Zero-weight terms are dropped; total mass must be positive.
        """
        # One C-level min first; a NaN min falls through to the scan too.
        if not min(weights.values(), default=0.0) >= 0.0:
            for term, weight in weights.items():
                if weight < 0:
                    raise InputError("negative weight for term {term}: {weight}", term=term,
                                     weight=weight)
        total = math.fsum(weights.values())
        if total <= 0:
            raise ValueError("cannot normalize a distribution with no positive mass")
        return cls({t: w / total for t, w in weights.items() if w > 0})

    @property
    def is_zero(self) -> bool:
        return not self._probs

    def get(self, term: str, default: float = 0.0) -> float:
        return self._probs.get(term, default)

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(self._probs.items())

    def support(self):
        return self._probs.keys()

    def total(self) -> float:
        return math.fsum(self._probs.values())

    def as_dict(self) -> dict[str, float]:
        return dict(self._probs)

    def __len__(self) -> int:
        return len(self._probs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "TermDistribution(ZERO)"
        return f"TermDistribution({len(self._probs)} terms)"


ZERO = TermDistribution({})


def interpolate(
    weight_a: float, dist_a: TermDistribution, weight_b: float, dist_b: TermDistribution
) -> TermDistribution:
    """Convex mixture weight_a*A + weight_b*B over the union support.

    A zero weight returns the other distribution unchanged, keeping the
    degenerate mixtures exact rather than renormalized copies.
    """
    if weight_a == 0.0:
        return dist_b
    if weight_b == 0.0:
        return dist_a
    weights = {term: weight_a * p for term, p in dist_a.items()}
    for term, p in dist_b.items():
        weights[term] = weights.get(term, 0.0) + weight_b * p
    return TermDistribution.from_weights(weights)


def clip_distribution(dist: TermDistribution, max_terms: int) -> TermDistribution:
    """Keep the max_terms highest-probability terms and renormalize.

    Ties at the cutoff are broken lexicographically by term so clipping is
    deterministic.
    """
    if max_terms <= 0:
        raise InputError("max_terms must be positive, got {max_terms}", max_terms=max_terms)
    if len(dist) <= max_terms:
        return dist
    return TermDistribution.from_weights(dict(top_ranked(dist, max_terms)))


def top_ranked(dist: TermDistribution, k: int) -> RankedList:
    """rank_documents(dist.items())[:k]: the k most probable (term,
    probability) pairs, ties by term. Only the terms at or above the k-th
    highest probability are ranked, which holds every tie at the cut."""
    probs = dist._probs
    if len(probs) <= k:
        return rank_documents(probs.items())
    kth = sorted(probs.values(), reverse=True)[k - 1]
    return rank_documents([item for item in probs.items() if item[1] >= kth])[:k]


def query_mle(query: AnalyzedText) -> TermDistribution:
    """Maximum-likelihood model of a query's own tokens."""
    if not query.tokens:
        raise ValueError("cannot build a model from an empty query")
    return TermDistribution.from_weights(query.counts())


def smoothed_prob(
    term: str, doc: DocumentRecord, stats: CollectionStats, mu: float
) -> float:
    """Dirichlet-smoothed term probability for one document.

    mu = 0 gives the unsmoothed maximum-likelihood estimate; that requires a
    non-empty document.
    """
    denom = doc.length + mu
    if denom <= 0:
        raise InputError(_EMPTY_DOCUMENT, doc=doc.doc_id, mu=mu)
    tf = doc.term_counts.get(term, 0)
    cf = stats.collection_tf.get(term, 0)
    if mu > 0 and cf:
        return (tf + _background_mass(term, cf, stats, mu)) / denom
    return tf / denom


def background_mass(cf: int, stats: CollectionStats, mu: float) -> float:
    """mu * P(term|C) of a term with collection frequency cf."""
    return mu * cf / stats.total_tokens


def _background_mass(term: str, cf: int, stats: CollectionStats, mu: float) -> float:
    """background_mass, which a log needs finite and > 0: a mu so small or
    so large that it rounds to 0 or overflows raises ValueError naming mu."""
    mass = background_mass(cf, stats, mu)
    if not 0.0 < mass < math.inf:
        raise InputError("mu={mu} is too {extreme!s}: mu * P({term}|C) is {mass}", mu=mu,
                         extreme="small" if mass == 0.0 else "large", term=term, mass=mass)
    return mass


def log_ratio(tf: int, background: Optional[float]) -> float:
    """ln(1 + tf / background), what tf >= 1 occurrences of a term with
    background mass mu * P(term|C) add to a matched sum per unit of weight;
    ln tf for a term without background mass (None)."""
    return math.log(tf) if background is None else math.log1p(tf / background)


class LogLikelihoodScorer:
    """Per-document scorer of sum weight * ln p_mu(term|doc) over fixed
    (term, weight) pairs with distinct terms.

    Dirichlet smoothing splits the sum (Zhai & Lafferty, SIGIR 2001) into a
    constant, a length part and a sum over the terms the document contains:

        sum_w p_w ln(mu P(w|C)) - (sum_w p_w) ln(|d| + mu)
            + sum_{w in d} p_w ln(1 + tf / (mu P(w|C)))

    Two loops apply it. scores() goes document at a time: the rerank,
    pseudo-click selection and RM1 weights use it. term_at_a_time() goes
    over each term's postings: the first pass and query aggregation's
    candidates use it, and it gives the float scores() would. The scorer
    computes base(length), the first two parts, once per length and
    summand(term, tf), p_w * log_ratio(tf, mu P(w|C)), once per (term, tf),
    and keeps both: a kept value is the same expression evaluated in the
    same order, so the float a fresh one would be. A term without
    background mass (cf = 0, or any term when mu = 0) is in .required: a
    document without it scores -inf, and one with it gets p_w ln tf, so
    mu = 0 is the unsmoothed estimate. The summands are added with
    math.fsum, which is correctly rounded and so independent of their
    order: documents equal in exact arithmetic (same length, same multiset
    of summands) score bit-equal. A single summand, its own fsum, is added
    as it is. Like smoothed_prob, an empty document with mu = 0 raises
    ValueError naming it, unless no terms are scored (an empty sum, 0).
    """

    __slots__ = ("weights", "required", "_background", "_summands", "_bases", "_mu",
                 "_constant", "_weight_total")

    def __init__(self, weights: Iterable[tuple[str, float]], stats: CollectionStats, mu: float):
        self.weights: dict[str, float] = dict(weights)
        self._mu = mu
        # mu * P(term|C) of each term with background mass, with
        # smoothed_prob's expression.
        self._background: dict[str, float] = {}
        self._summands: dict[tuple[str, int], float] = {}
        self._bases: dict[int, float] = {}
        self.required: list[str] = []
        for term in self.weights:
            cf = stats.collection_tf.get(term, 0)
            if mu > 0 and cf:
                self._background[term] = _background_mass(term, cf, stats, mu)
            else:
                self.required.append(term)
        self._constant = math.fsum(self.weights[term] * math.log(background)
                                   for term, background in self._background.items())
        self._weight_total = math.fsum(self.weights.values())

    def summand(self, term: str, tf: int) -> float:
        """What tf >= 1 occurrences of the scored term add to the matched sum."""
        try:
            return self._summands[term, tf]
        except KeyError:
            value = self._summands[term, tf] = self.weights[term] * log_ratio(
                tf, self._background.get(term))
            return value

    def base(self, length: int) -> float:
        """The first two parts of a score, constant - W ln(length + mu)."""
        if length not in self._bases:
            self._bases[length] = self._constant - self._weight_total * math.log(length + self._mu)
        return self._bases[length]

    def scores(self, docs: Iterable[DocumentRecord]) -> list[float]:
        """The score of each document, in order."""
        weights = self.weights
        if not weights:
            return [0.0 for _ in docs]
        bases, summands, required, mu = self._bases, self._summands, self.required, self._mu
        out = []
        for doc in docs:
            base = bases.get(doc.length)
            if base is None:
                if doc.length + mu <= 0:
                    raise InputError(_EMPTY_DOCUMENT, doc=doc.doc_id, mu=mu)
                base = self.base(doc.length)
            counts = doc.term_counts
            if required and not all(map(counts.get, required)):
                out.append(NEG_INF)
                continue
            values = []
            # Intersecting two key views walks the smaller one: the
            # document's terms or the scored terms, whichever are fewer.
            for term in counts.keys() & weights.keys():
                value = summands.get((term, counts[term]))
                values.append(self.summand(term, counts[term]) if value is None else value)
            out.append(base + (values[0] if len(values) == 1 else math.fsum(values)))
        return out

    def term_at_a_time(
        self, index: InvertedIndex, ids: Optional[Sequence[str]] = None
    ) -> list[tuple[str, float]]:
        """(doc_id, score), in no fixed order, of each document holding a
        scored term (each must be in the index), or of exactly the distinct
        ids; each score, or error, is what scores() gives.

        In C-level loops, a term maps its documents to its summand, computed
        once per distinct tf. To its base (once per distinct length, from
        index.lengths) a document adds its one summand, the fsum of several,
        or 0.0 for a listed one that holds no scored term."""
        if not self.weights:
            return [(doc_id, 0.0) for doc_id in ids or ()]
        wanted = None if ids is None else set(ids)
        alone: dict[str, float] = {}
        shared: dict[str, list[float]] = {}
        for term in self.weights:
            counts = index.postings[term].mapping
            if wanted is None:
                docs, tfs = counts, counts.values()
            else:
                docs = counts.keys() & wanted
                tfs = list(map(counts.__getitem__, docs))
            per_tf = {tf: self.summand(term, tf) for tf in set(tfs)}
            summands = dict(zip(docs, map(per_tf.__getitem__, tfs)))
            for doc_id in summands.keys() & shared.keys():
                shared[doc_id].append(summands.pop(doc_id))
            for doc_id in summands.keys() & alone.keys():
                shared[doc_id] = [alone.pop(doc_id), summands.pop(doc_id)]
            alone.update(summands)
        if wanted is not None:
            alone.update(dict.fromkeys(wanted - alone.keys() - shared.keys(), 0.0))
        alone.update(zip(shared, map(math.fsum, shared.values())))
        # Without a required term (any term, at mu = 0): -inf, plus a finite base.
        for term in self.required:
            alone.update(dict.fromkeys(alone.keys() - index.postings[term].mapping.keys(), NEG_INF))
        mu, lengths = self._mu, list(map(index.lengths.__getitem__, alone))
        if lengths and min(lengths) + mu <= 0:
            doc_id = next(d for d in ids or alone if index.lengths[d] + mu <= 0)
            raise InputError(_EMPTY_DOCUMENT, doc=doc_id, mu=mu)
        bases = {length: self.base(length) for length in set(lengths)}
        return list(zip(alone, map(add, map(bases.__getitem__, lengths), alone.values())))


def kl_divergence(p_dist: TermDistribution, q_dist: TermDistribution) -> float:
    """KL(P || Q) over P's support; +inf when Q misses any P term.

    Both arguments are unsmoothed sparse distributions; P must be non-ZERO.
    """
    if p_dist.is_zero:
        raise ValueError("KL divergence needs a non-empty reference distribution")
    q_probs = q_dist._probs
    total = 0.0
    for term, p in p_dist.items():
        q = q_probs.get(term, 0.0)
        if q <= 0.0:
            return math.inf
        total += p * math.log(p / q)
    # Guard against tiny negative float residue when P ~ Q.
    return max(total, 0.0)


def cross_entropy_weights(model: TermDistribution, mu: float) -> dict[str, float]:
    """The {term: weight} that cross_entropy_scorer scores with; an empty
    model or mu <= 0 raises ValueError."""
    if model.is_zero:
        raise ValueError("cannot score with an empty model")
    if mu <= 0:
        raise InputError("cross-entropy scoring requires mu > 0, got {mu}", mu=mu)
    return dict(model.items())


def cross_entropy_scorer(
    model: TermDistribution, stats: CollectionStats, mu: float
) -> LogLikelihoodScorer:
    """Per-document scorer of sum over model terms of
    p(w|model) * ln p_smoothed(w|doc).

    A document scores -inf when any model term has zero smoothed probability
    (absent from the corpus entirely).
    """
    return LogLikelihoodScorer(cross_entropy_weights(model, mu).items(), stats, mu)


def generalized_jaccard_sim(
    query_a: AnalyzedText, query_b: AnalyzedText, index: InvertedIndex
) -> float:
    """idf-weighted generalized Jaccard similarity of two token multisets.

    sum over the intersection of min(tf) * idf divided by sum over the union
    of max(tf) * idf. Symmetric, in [0, 1]; identical multisets score exactly
    1 and disjoint ones 0. Both queries empty is an error.
    """
    counts_a = query_a.counts()
    counts_b = query_b.counts()
    if not counts_a and not counts_b:
        raise ValueError("similarity of two empty queries is undefined")
    numerator = 0.0
    denominator = 0.0
    for term in sorted(counts_a.keys() | counts_b.keys()):
        weight = index.idf(term)
        tf_a = counts_a.get(term, 0)
        tf_b = counts_b.get(term, 0)
        numerator += min(tf_a, tf_b) * weight
        denominator += max(tf_a, tf_b) * weight
    return numerator / denominator


def known_terms_only(query: AnalyzedText, stats: CollectionStats) -> AnalyzedText:
    """Drop tokens with zero collection frequency.

    Such tokens assign -inf to every document, so they carry no ranking
    signal; every scorer that ranks whole collections discards them the same
    way so that scores stay comparable across methods.
    """
    kept = tuple(t for t in query.tokens if stats.collection_tf.get(t, 0) > 0)
    if len(kept) == len(query.tokens):
        return query
    return AnalyzedText(kept)


def top_k_by_query_likelihood(
    query: AnalyzedText, index: InvertedIndex, mu: float, k: int
) -> RankedList:
    """Rank the documents matching at least one query term by log likelihood.

    Ties break by doc_id ascending. Returns at most k (doc_id, score) pairs.
    """
    scorable = known_terms_only(query, index.stats)
    if not scorable.tokens:
        return []
    score = LogLikelihoodScorer(scorable.counts().items(), index.stats, mu)
    return rank_documents(score.term_at_a_time(index))[:k]


def query_likelihood_doc_weights(
    query: AnalyzedText,
    doc_ids: Sequence[str],
    index: InvertedIndex,
    mu: float,
) -> dict[str, float]:
    """Normalized p(d|q) weights over a fixed document set.

    Computed from log likelihoods via a stable log-sum-exp; documents at
    -inf get weight 0. If every document is at -inf the weights fall back
    to uniform (no evidence to prefer any of them).
    """
    if not doc_ids:
        raise ValueError("cannot weight an empty document set")
    score = LogLikelihoodScorer(query.counts().items(), index.stats, mu)
    lls = score.scores(map(index.doc_table.__getitem__, doc_ids))
    peak = max(lls)
    if peak == NEG_INF:
        uniform = 1.0 / len(doc_ids)
        return {doc_id: uniform for doc_id in doc_ids}
    raw = [math.exp(ll - peak) for ll in lls]
    total = math.fsum(raw)
    return {doc_id: w / total for doc_id, w in zip(doc_ids, raw)}


def rank_documents(scores: Iterable[tuple[str, float]]) -> RankedList:
    """Sort (doc_id, score) pairs, or a distribution's (term, probability)
    pairs, by score descending, then doc_id (term) ascending."""
    # Two stable sorts on C-level keys beat one on a tuple key built per
    # pair; reverse=True keeps equal scores in doc_id order.
    ranked = sorted(scores, key=itemgetter(0))
    ranked.sort(key=itemgetter(1), reverse=True)
    return ranked


def mix_doc_models(
    doc_weights: Mapping[str, float], index: InvertedIndex
) -> TermDistribution:
    """Weighted mixture of unsmoothed document models.

    Each document's model is read as count / length, the float its
    normalized counts hold: the fsum of integer counts is exactly its length.
    """
    weights: dict[str, float] = {}
    for doc_id, doc_weight in doc_weights.items():
        if doc_weight <= 0.0:
            continue
        doc = index.doc(doc_id)
        length = doc.length
        if length == 0:
            raise InputError("document {doc} has no analyzed tokens", doc=doc.doc_id)
        for term, count in doc.term_counts.items():
            weights[term] = weights.get(term, 0.0) + doc_weight * (count / length)
    return TermDistribution.from_weights(weights)
