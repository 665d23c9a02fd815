"""Reference methods the session model is compared against.

RM1/RM3 are classic relevance models over pseudo-feedback documents; query
aggregation folds session history into the ranking score directly, as a
recency-decayed sum of per-query log likelihoods.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .analysis import AnalyzedText
from .index import DocumentRecord, InvertedIndex
from .inputs import InputError
from .lm import (
    LogLikelihoodScorer,
    TermDistribution,
    clip_distribution,
    interpolate,
    known_terms_only,
    mix_doc_models,
    query_likelihood_doc_weights,
    query_mle,
)
from .session import Session
from .stages import Stages


def rm1_model(
    query: AnalyzedText,
    feedback_doc_ids: Sequence[str],
    index: InvertedIndex,
    mu: float,
) -> TermDistribution:
    """Relevance model: doc MLE models weighted by normalized query likelihood."""
    if not feedback_doc_ids:
        raise ValueError("RM1 requires at least one feedback document")
    weights = query_likelihood_doc_weights(query, feedback_doc_ids, index, mu)
    return mix_doc_models(weights, index)


def rm3_model(
    query: AnalyzedText,
    feedback_doc_ids: Sequence[str],
    index: InvertedIndex,
    mu: float,
    lam: float,
    clip_terms: int = 100,
    stages: Optional[Stages] = None,
) -> TermDistribution:
    """Query MLE interpolated with RM1, clipped for scoring.

    lam is the feedback weight: 0 gives the bare query model, 1 pure RM1.
    The RM1 model is rm1_model kept in stages (a fresh memo when None)
    under its arguments; only the mix and the clip depend on lam and
    clip_terms.
    """
    if not 0.0 <= lam <= 1.0:
        raise InputError("lambda must be in [0, 1], got {lam}", lam=lam)
    if stages is None:
        stages = Stages()
    fm = stages.get(rm1_model, query, tuple(feedback_doc_ids), index, mu)
    return clip_distribution(interpolate(1.0 - lam, query_mle(query), lam, fm), clip_terms)


def qa_score(
    session: Session,
    doc: DocumentRecord,
    index: InvertedIndex,
    mu: float,
    decay: float = 1.0,
) -> float:
    """Query-aggregation score of one document for a session: qa_scorer's
    score of doc."""
    return qa_scorer(session, index, mu, decay).scores((doc,))[0]


def qa_scorer(
    session: Session, index: InvertedIndex, mu: float, decay: float = 1.0
) -> LogLikelihoodScorer:
    """The session's query-aggregation scorer: one query of its known terms
    with decayed counts.

    Per-query log likelihoods are summed with weight decay^(n-t), decay in
    (0, 1], so older queries count less; decay=1 weighs all queries equally.
    Tokens unseen in the collection are dropped, the same convention the
    first-pass ranker uses.
    """
    if not 0.0 < decay <= 1.0:
        raise InputError("decay must be in (0, 1], got {decay}", decay=decay)
    # sum_t decay^(n-t) ln p(q_t|d) = sum_w (sum_t decay^(n-t) c_t(w)) ln p(w|d):
    # one scorer over the decayed term counts.
    queries = session.queries
    n = len(queries)
    weights: dict[str, float] = {}
    for t, query in enumerate(queries, start=1):
        scale = decay ** (n - t)
        for term, count in known_terms_only(query, index.stats).counts().items():
            weights[term] = weights.get(term, 0.0) + scale * count
    return LogLikelihoodScorer(weights.items(), index.stats, mu)
