"""Session relevance model: query-change driven feedback, anchoring, and the
autoregressive session update.

The model walks the session step by step. At each step it builds a feedback
language model from clicked (or pseudo-clicked) documents, anchors it to the
step's own query with a weight tied to that query's similarity to the current
query, and then folds it into the running session model with a self-clarity
mixing weight: feedback that diverges from what the session has already
established contributes more, feedback that merely repeats it contributes
less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import AbstractSet, Mapping, Optional

from .analysis import AnalyzedText
from .baselines import rm1_model
from .index import InvertedIndex
from .inputs import InputError
from .lm import (
    NEG_INF,
    RankedList,
    TermDistribution,
    ZERO,
    background_mass,
    clip_distribution,
    cross_entropy_scorer,
    generalized_jaccard_sim,
    interpolate,
    kl_divergence,
    log_ratio,
    mix_doc_models,
    query_mle,
    rank_documents,
    smoothed_prob,
    top_ranked,
)
from .session import (
    ChangeType,
    FeedbackSet,
    QueryChange,
    Session,
    classify_change,
    select_feedback_docs,
)
from .stages import Stages

VARIANT_QUERY_CHANGE = "qc"
VARIANT_RM1 = "rm1"

_UNIFORM_PRIORS = {
    ChangeType.RETAIN: 1.0 / 3.0,
    ChangeType.ADD: 1.0 / 3.0,
    ChangeType.REMOVE: 1.0 / 3.0,
}


def default_change_priors() -> dict[ChangeType, float]:
    """Equal odds for retain/add/remove."""
    return dict(_UNIFORM_PRIORS)


@dataclass
class SrmParams:
    """Knobs for building one session model."""

    gamma: float = 0.5
    lam: float = 0.5
    m: int = 10
    mu: float = 2500.0
    clip_terms: int = 100
    variant: str = VARIANT_QUERY_CHANGE

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError("gamma must be in [0, 1], got {gamma}", gamma=self.gamma)
        if not 0.0 <= self.lam <= 1.0:
            raise InputError("lambda must be in [0, 1], got {lam}", lam=self.lam)
        if self.variant not in (VARIANT_QUERY_CHANGE, VARIANT_RM1):
            raise InputError("unknown variant {variant}", variant=self.variant)


@dataclass
class StepTrace:
    """Diagnostics for one step of the session walk."""

    step: int
    query_tokens: tuple[str, ...]
    change: QueryChange
    feedback: FeedbackSet
    lambda_t: float
    gamma_t: float
    kl: float
    top_terms: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "query_tokens": list(self.query_tokens),
            "change": {
                "retained": sorted(self.change.retained),
                "added": sorted(self.change.added),
                "removed": sorted(self.change.removed),
            },
            "feedback": {
                "doc_ids": list(self.feedback.doc_ids),
                "source": self.feedback.source.value,
            },
            "lambda_t": self.lambda_t,
            "gamma_t": self.gamma_t,
            # JSON has no infinity; an undefined divergence is written as null.
            "kl": None if math.isinf(self.kl) else self.kl,
            "top_terms": [[t, p] for t, p in self.top_terms],
        }


@dataclass
class SrmTrace:
    session_id: str
    records: list[StepTrace] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "records": [record.to_dict() for record in self.records],
        }


def change_likelihood(
    change_terms: frozenset[str],
    change_type: ChangeType,
    doc_id: str,
    index: InvertedIndex,
    mu: float,
) -> float:
    """How well one document explains one query-change term set.

    Retained and added terms: product of smoothed term probabilities.
    Removed terms: one minus the summed unsmoothed probabilities, clamped at
    zero (a document stuffed with dropped terms explains the removal not at
    all). Callers handle empty term sets.
    """
    if not change_terms:
        raise ValueError("change likelihood of an empty term set is undefined")
    doc = index.doc(doc_id)
    if change_type is ChangeType.REMOVE:
        mass = 0.0
        for term in sorted(change_terms):
            mass += smoothed_prob(term, doc, index.stats, 0.0)
        return max(0.0, 1.0 - mass)
    likelihood = 1.0
    for term in sorted(change_terms):
        likelihood *= smoothed_prob(term, doc, index.stats, mu)
    return likelihood


def doc_change_posterior(
    change_terms: frozenset[str],
    change_type: ChangeType,
    feedback: FeedbackSet,
    index: InvertedIndex,
    mu: float,
) -> dict[str, float]:
    """Distribution over feedback docs given one change-type term set.

    Likelihoods are normalized over the feedback set; if every document has
    zero likelihood the posterior falls back to uniform.
    """
    if not feedback.doc_ids:
        raise ValueError("posterior over an empty feedback set is undefined")
    likelihoods = {
        doc_id: change_likelihood(change_terms, change_type, doc_id, index, mu)
        for doc_id in feedback.doc_ids
    }
    total = math.fsum(likelihoods.values())
    if total <= 0.0:
        uniform = 1.0 / len(feedback.doc_ids)
        return {doc_id: uniform for doc_id in feedback.doc_ids}
    return {doc_id: lik / total for doc_id, lik in likelihoods.items()}


def feedback_model(
    change: QueryChange,
    feedback: FeedbackSet,
    priors: Optional[Mapping[ChangeType, float]],
    index: InvertedIndex,
    mu: float,
) -> TermDistribution:
    """Query-change driven feedback language model.

    Each feedback document's unsmoothed model is weighted by how well the
    document explains the observed change, averaged over change types.
    Empty change-type sets are dropped and the priors, equal when None, are
    renormalized over the rest (proportionally, so equal ones stay equal).
    """
    if not feedback.doc_ids:
        raise ValueError("cannot build a feedback model from an empty feedback set")
    if priors is None:
        priors = _UNIFORM_PRIORS
    active = [
        (change_type, change.terms_of(change_type))
        for change_type in (ChangeType.RETAIN, ChangeType.ADD, ChangeType.REMOVE)
        if change.terms_of(change_type)
    ]
    if not active:
        raise ValueError("query change has no terms in any change type")
    prior_total = math.fsum(priors.get(change_type, 0.0) for change_type, _ in active)
    if prior_total <= 0.0:
        renormalized = {change_type: 1.0 / len(active) for change_type, _ in active}
    else:
        renormalized = {
            change_type: priors.get(change_type, 0.0) / prior_total
            for change_type, _ in active
        }

    doc_weights = {doc_id: 0.0 for doc_id in feedback.doc_ids}
    for change_type, terms in active:
        posterior = doc_change_posterior(terms, change_type, feedback, index, mu)
        weight = renormalized[change_type]
        for doc_id, p in posterior.items():
            doc_weights[doc_id] += weight * p

    return mix_doc_models(doc_weights, index)


def rm1_style_feedback_model(
    query: AnalyzedText, feedback: FeedbackSet, index: InvertedIndex, mu: float
) -> TermDistribution:
    """Feedback model weighting docs by plain query likelihood p(d|q_t): RM1."""
    return rm1_model(query, feedback.doc_ids, index, mu)


def anchor_feedback(
    fm: TermDistribution,
    q_t: AnalyzedText,
    q_n: AnalyzedText,
    lam: float,
    index: InvertedIndex,
) -> TermDistribution:
    """Anchor a feedback model to its step's query.

    The feedback weight is lam scaled by the idf-weighted similarity between
    the step query and the current query, so feedback from drifted-away steps
    is pulled back toward the query itself.
    """
    lambda_t = lam * generalized_jaccard_sim(q_t, q_n, index)
    return interpolate(1.0 - lambda_t, query_mle(q_t), lambda_t, fm)


def self_clarity_gamma(
    anchored: TermDistribution, prior: TermDistribution, gamma: float
) -> float:
    """Mixing weight for the running session model.

    gamma scaled by exp(-KL(anchored || prior)); an undefined divergence
    (prior ZERO, or missing support) gives exactly 0 so the first informative
    step replaces the empty model outright.
    """
    if prior.is_zero:
        return 0.0
    return clarity_weight(gamma, kl_divergence(anchored, prior))


def clarity_weight(gamma: float, kl: float) -> float:
    """gamma * exp(-kl): self_clarity_gamma's weight from its divergence,
    exactly 0 at kl = inf."""
    return gamma * math.exp(-kl)


def srm_update(
    prior: TermDistribution, anchored: TermDistribution, gamma_t: float
) -> TermDistribution:
    """One autoregressive update: gamma_t * prior + (1 - gamma_t) * anchored."""
    if prior.is_zero:
        if gamma_t != 0.0:
            raise ValueError("a ZERO prior requires gamma_t == 0")
        return anchored
    return interpolate(gamma_t, prior, 1.0 - gamma_t, anchored)


def top_terms(model: TermDistribution) -> tuple[tuple[str, float], ...]:
    """The model's ten most probable (term, probability) pairs, ties by
    term: a StepTrace's top_terms."""
    return tuple(top_ranked(model, 10))


def build_session_model(
    session: Session,
    params: SrmParams,
    index: InvertedIndex,
    stages: Optional[Stages] = None,
) -> tuple[TermDistribution, SrmTrace]:
    """Walk the whole session and return the final clipped model plus trace.

    History steps whose query analyzes to nothing are skipped (they offer no
    change evidence), though their impressions and clicks still feed later
    feedback sets. A session whose current query analyzes to nothing is an
    error; callers decide whether to skip it.

    Each step's stages come from stages (a fresh memo when None), kept
    under their function and arguments: the feedback set and feedback
    model, which models of one session that differ only in lam, gamma or
    clip_terms share; the similarity lambda_t scales; and the anchored
    model (anchor_feedback, or query_mle without feedback) with its
    top_terms, which are keyed by lam and shared across gamma and
    clip_terms. The divergence of the anchored model from a prior that is
    itself kept (the previous anchored model, after a step with gamma_t =
    0) is kept too, as it is the same at every gamma; the divergence from
    a fresh, gamma-specific mixture, gamma_t, the update and the clip run
    every call.
    """
    q_n = session.current_query
    if not q_n.tokens:
        raise InputError("session {session}: current query has no analyzable terms",
                         session=session.session_id)
    if stages is None:
        stages = Stages()
    mu = params.mu
    model = ZERO
    trace = SrmTrace(session_id=session.session_id)
    previous: Optional[AnalyzedText] = None
    for t, q_t in enumerate(session.queries, start=1):
        if not q_t.tokens:
            continue
        change = classify_change(previous, q_t)
        feedback = stages.get(select_feedback_docs, session, t, params.m, mu, index)
        lambda_t = 0.0
        if feedback.doc_ids:
            lambda_t = params.lam * stages.get(generalized_jaccard_sim, q_t, q_n, index)
            if params.variant == VARIANT_QUERY_CHANGE:
                fm = stages.get(feedback_model, change, feedback, None, index, mu)
            else:
                fm = stages.get(rm1_style_feedback_model, q_t, feedback, index, mu)
            anchored = stages.get(anchor_feedback, fm, q_t, q_n, params.lam, index)
        else:
            # No usable feedback: the anchored model degenerates to the
            # query's own MLE model.
            anchored = stages.get(query_mle, q_t)
        if model.is_zero:
            kl = math.inf
        elif stages.holds(model):
            kl = stages.get(kl_divergence, anchored, model)
        else:
            kl = kl_divergence(anchored, model)
        gamma_t = clarity_weight(params.gamma, kl)
        model = srm_update(model, anchored, gamma_t)
        trace.records.append(
            StepTrace(
                step=t,
                query_tokens=q_t.tokens,
                change=change,
                feedback=feedback,
                lambda_t=lambda_t,
                gamma_t=gamma_t,
                kl=kl,
                top_terms=stages.get(top_terms, anchored),
            )
        )
        previous = q_t
    final = clip_distribution(model, params.clip_terms)
    return final, trace


class CandidateMatching:
    """One first pass's candidates matched against the terms of the models
    scored on them, so that rerank can score them under many models (tune's
    grid points) without intersecting each document's terms with each
    model's.

    Holds the candidates in doc_id order, each with its first-pass score,
    its length and the (term, tf) pairs its document shares with the terms
    models have held so far (a model with new terms adds theirs in one pass
    over the candidates), per mu each pair's lm.log_ratio, so that a
    model's summand of a pair is its weight times the kept ratio, and each
    ranking made, keyed by mu and the model's exact items. A model's
    ranking is then one stable sort by score, which leaves equal scores in
    doc_id order. rerank returns a kept ranking itself, so callers must not
    mutate it.
    """

    __slots__ = ("candidates", "index", "_ids", "_first_pass", "_docs", "_lengths",
                 "_matched_terms", "_positions", "_pairs", "_matched", "_ratios", "_rankings")

    def __init__(self, candidates: RankedList, index: InvertedIndex):
        self.candidates = candidates
        self.index = index
        ordered = sorted(candidates, key=itemgetter(0))
        self._ids = [doc_id for doc_id, _ in ordered]
        self._first_pass = [ql for _, ql in ordered]
        self._docs = list(map(index.doc_table.__getitem__, self._ids))
        self._lengths = [doc.length for doc in self._docs]
        self._matched_terms: set[str] = set()
        # The distinct (term, tf) pairs, each with its position in _pairs,
        # and per candidate the positions of the pairs its document holds.
        self._positions: dict[tuple[str, int], int] = {}
        self._pairs: list[tuple[str, int]] = []
        self._matched: list[tuple[int, ...]] = [()] * len(candidates)
        # Per mu, the log-ratio of each pair in _pairs, in its order.
        self._ratios: dict[float, list[float]] = {}
        self._rankings: dict[tuple, RankedList] = {}

    def _match(self, terms: AbstractSet[str]) -> None:
        new = set(terms).difference(self._matched_terms)
        if not new:
            return
        self._matched_terms.update(new)
        positions, matched = self._positions, self._matched
        for i, doc in enumerate(self._docs):
            counts = doc.term_counts
            found = counts.keys() & new
            if found:
                matched[i] += tuple(positions.setdefault((term, counts[term]), len(positions))
                                    for term in found)
        self._pairs = list(positions)

    def _log_ratios(self, mu: float) -> list[float]:
        """lm.log_ratio of each pair at mu, aligned with _pairs: the pairs
        matched since the last call at mu are added."""
        ratios = self._ratios.setdefault(mu, [])
        if len(ratios) < len(self._pairs):
            stats = self.index.stats
            fresh = self._pairs[len(ratios):]
            masses = [background_mass(stats.collection_tf[term], stats, mu) for term, _ in fresh]
            # A matched term is in the corpus and mu > 0. A mass that rounds
            # to 0 gives NaN, which no table reads: cross_entropy_scorer
            # refuses every model that holds the term at this mu.
            ratios.extend(log_ratio(tf, mass) if mass else math.nan
                          for (_, tf), mass in zip(fresh, masses))
        return ratios

    def rerank(self, model: TermDistribution, mu: float) -> RankedList:
        """rerank(self.candidates, model, self.index, mu), bit for bit."""
        key = (mu, tuple(model.items()))
        ranking = self._rankings.get(key)
        if ranking is None:
            self._match(model.support())
            score = cross_entropy_scorer(model, self.index.stats, mu)
            weights = score.weights
            # weight * ratio is score.summand(term, tf), the same expression.
            # A matched term outside the model adds 0.0, which leaves fsum's
            # correctly rounded sum as it was; fsum of one summand is that
            # summand, as scores() adds it.
            table = [weights[term] * ratio if term in weights else 0.0
                     for (term, _), ratio in zip(self._pairs, self._log_ratios(mu))]
            if score.required:
                # A required term (cf = 0, as mu > 0) is in no document, so
                # every candidate scores its first pass plus -inf.
                scores = [NEG_INF] * len(self._ids)
            else:
                bases = {length: score.base(length) for length in set(self._lengths)}
                summand = table.__getitem__
                scores = [ql + (bases[length] + math.fsum(map(summand, positions)))
                          for ql, length, positions
                          in zip(self._first_pass, self._lengths, self._matched)]
            ranking = self._rankings[key] = sorted(zip(self._ids, scores), key=itemgetter(1),
                                                   reverse=True)
        return ranking


def rerank(
    candidates: RankedList,
    model: TermDistribution,
    index: InvertedIndex,
    mu: float,
    matching: Optional[CandidateMatching] = None,
) -> RankedList:
    """Re-rank query-likelihood candidates with a session model.

    Candidate scores must be the current query's log likelihoods; the final
    score adds the model's cross entropy against each document. Sorting is
    score descending with doc_id tie-break, so the output does not depend on
    the input order.

    matching, when given, is a CandidateMatching of these candidates that
    the caller keeps across models (pipeline.score_session_full does under
    tune): it scores from the kept term matching and returns a kept
    ranking for a model with the same items, with the same floats. Without
    it each document's terms are intersected with the model's here, which
    is cheaper for a model scored once.
    """
    if matching is not None:
        if matching.candidates is not candidates or matching.index is not index:
            raise ValueError("the matching was made for other candidates or another index")
        return matching.rerank(model, mu)
    docs = index.doc_table
    scores = cross_entropy_scorer(model, index.stats, mu).scores(
        docs[doc_id] for doc_id, _ in candidates)
    return rank_documents([(doc_id, ql + score)
                           for (doc_id, ql), score in zip(candidates, scores)])
