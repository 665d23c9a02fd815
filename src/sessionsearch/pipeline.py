"""End-to-end scoring: initial retrieval, method dispatch, session replay.

Every method starts from the same top-depth query-likelihood candidate list
for the current query and differs only in how it rescores those candidates.
Scoring is pure per session, and sessions are processed in input order, so
repeated runs are byte-identical.

A session's stages are looked up in a Stages memo under the parameters
each depends on (see score_session_full), so StagedScorer, which tune
uses, redoes at each grid point only what its changed parameters reach.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Optional

from .baselines import qa_score, rm3_model
from .index import InvertedIndex
from .lm import (
    RankedList,
    TermDistribution,
    query_mle,
    rank_documents,
    top_k_by_query_likelihood,
)
from .session import Session, Stages, pseudo_info_need
from .srm import (
    SrmParams,
    SrmTrace,
    VARIANT_QUERY_CHANGE,
    VARIANT_RM1,
    build_session_model,
    rerank,
)

logger = logging.getLogger(__name__)

METHOD_NONE = "none"
METHOD_SRM_QC = "srm-qc"
METHOD_SRM_RM1 = "srm-rm1"
METHOD_RM3_QN = "rm3-qn"
METHOD_RM3_QPRIME = "rm3-qprime"
METHOD_QA_UNIFORM = "qa-uniform"
METHOD_QA_DECAY = "qa-decay"

METHODS = (
    METHOD_NONE,
    METHOD_SRM_QC,
    METHOD_SRM_RM1,
    METHOD_RM3_QN,
    METHOD_RM3_QPRIME,
    METHOD_QA_UNIFORM,
    METHOD_QA_DECAY,
)


@dataclass
class RunConfig:
    """Effective parameters of one run; defaults match the reference setup."""

    method: str = METHOD_NONE
    lam: float = 0.5
    gamma: float = 0.5
    m: int = 10
    mu: float = 2500.0
    clip_terms: int = 100
    decay: float = 0.92
    depth: int = 2000
    k: int = 10

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r} (expected one of {METHODS})")
        # Each test is "not (valid)" so that NaN, which fails every
        # comparison, is rejected too.
        for name, valid, expected in (
            ("depth", self.depth >= 1, ">= 1"),
            ("k", self.k >= 1, ">= 1"),
            ("m", self.m >= 1, ">= 1"),
            ("clip_terms", self.clip_terms >= 1, ">= 1"),
            ("mu", math.isfinite(self.mu) and self.mu > 0.0, "finite and > 0"),
            ("lam", 0.0 <= self.lam <= 1.0, "in [0, 1]"),
            ("gamma", 0.0 <= self.gamma <= 1.0, "in [0, 1]"),
            ("decay", 0.0 < self.decay <= 1.0, "in (0, 1]"),
        ):
            if not valid:
                raise ValueError(f"{name} must be {expected}, got {getattr(self, name)!r}")

    def srm_params(self) -> SrmParams:
        variant = VARIANT_QUERY_CHANGE if self.method == METHOD_SRM_QC else VARIANT_RM1
        return SrmParams(
            gamma=self.gamma,
            lam=self.lam,
            m=self.m,
            mu=self.mu,
            clip_terms=self.clip_terms,
            variant=variant,
        )

    @property
    def applied_decay(self) -> float:
        """The query decay the method applies: qa-uniform is qa-decay at
        decay 1, which weighs every query the same."""
        return 1.0 if self.method == METHOD_QA_UNIFORM else self.decay

    def to_dict(self) -> dict:
        """The fields, with decay as the method applies it."""
        return {**dataclasses.asdict(self), "decay": self.applied_decay}


@dataclass
class SessionResult:
    session_id: str
    topic_id: str
    ranking: RankedList
    model: Optional[TermDistribution] = None
    trace: Optional[SrmTrace] = None


def score_session(
    session: Session, index: InvertedIndex, config: RunConfig
) -> RankedList:
    """Rank the top-depth candidates for a session's current query."""
    return score_session_full(session, index, config).ranking


def score_session_full(
    session: Session,
    index: InvertedIndex,
    config: RunConfig,
    stages: Optional[Stages] = None,
) -> SessionResult:
    """Like score_session but keeps the learned model and trace when present.

    stages is this session's memo (a fresh one when None). It keys the first
    pass by (mu, depth), the RM3 feedback first pass by (feedback query, mu,
    m), the session model's feedback stages as build_session_model does, the
    QA scorer and the RM1 model as qa_score and rm3_model do. The rest runs
    every call; every scorer reads its log ratios from the collection's
    table for mu (lm.log_ratios), which outlives the memo.
    """
    q_n = session.current_query
    if not q_n.tokens:
        raise ValueError(
            f"session {session.session_id!r}: current query has no analyzable terms"
        )
    if stages is None:
        stages = Stages()
    mu = config.mu
    candidates = stages.get(
        ("first_pass", mu, config.depth),
        lambda: top_k_by_query_likelihood(q_n, index, mu, config.depth),
    )
    result = SessionResult(session.session_id, session.topic_id, candidates)
    method = config.method
    if method == METHOD_NONE or not candidates:
        return result

    if method in (METHOD_QA_UNIFORM, METHOD_QA_DECAY):
        # qa_score covers the whole query pool, current query included, so it
        # replaces the candidate score rather than adding to it.
        decay = config.applied_decay
        result.ranking = rank_documents([
            (doc_id, qa_score(session, index.doc(doc_id), index, mu, decay, stages))
            for doc_id, _ in candidates
        ])
        return result

    if method in (METHOD_SRM_QC, METHOD_SRM_RM1):
        result.model, result.trace = build_session_model(
            session, config.srm_params(), index, stages
        )
    else:
        feedback_query = q_n if method == METHOD_RM3_QN else pseudo_info_need(session.queries)
        feedback = stages.get(
            ("rm3_feedback", feedback_query.tokens, mu, config.m),
            lambda: top_k_by_query_likelihood(feedback_query, index, mu, config.m),
        )
        if feedback:
            result.model = rm3_model(
                feedback_query,
                [doc_id for doc_id, _ in feedback],
                index,
                mu,
                config.lam,
                config.clip_terms,
                stages,
            )
        else:
            # Nothing retrievable to expand with; score with the bare query.
            result.model = query_mle(feedback_query)
    result.ranking = rerank(candidates, result.model, index, mu)
    return result


class StagedScorer:
    """A score_session for grid_tune that reuses a session's stages across
    grid points: it keeps one Stages memo and starts a fresh one whenever
    another session (or index) arrives, so it holds one session's stages.

    Scores every call through the module's score_session_full, exactly as
    score_session does.
    """

    def __init__(self):
        self._session = self._index = self._stages = None

    def __call__(self, session: Session, index: InvertedIndex, config: RunConfig) -> RankedList:
        if session is not self._session or index is not self._index:
            self._session, self._index, self._stages = session, index, Stages()
        return score_session_full(session, index, config, self._stages).ranking


def run_sessions(
    sessions: list[Session], index: InvertedIndex, config: RunConfig
) -> tuple[list[SessionResult], list[str]]:
    """Score every session, in order; returns results plus skipped ids.

    Sessions whose current query analyzes to nothing cannot be served and are
    skipped with a warning.
    """
    results = []
    skipped = []
    for session in sessions:
        if not session.current_query.tokens:
            logger.warning(
                "skipping session %s: current query %r has no terms after analysis",
                session.session_id,
                session.current_raw,
            )
            skipped.append(session.session_id)
            continue
        results.append(score_session_full(session, index, config))
    return results, skipped
