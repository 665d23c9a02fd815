"""End-to-end scoring: initial retrieval, method dispatch, session replay.

Every method starts from the same top-depth query-likelihood candidate list
for the current query and differs only in how it rescores those candidates.
Scoring is pure per session, and sessions are processed in input order, so
repeated runs are byte-identical.

A session's stages are kept in a Stages memo under their function and
arguments (see score_session_full), so StagedScorer, which tune uses,
redoes at each grid point only the stages whose arguments changed: a
point that changes gamma alone reuses each step's anchored model, which
is keyed by lambda, and reranks through the kept candidate matching,
which holds the candidates in doc_id order.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .baselines import qa_scorer, rm3_model
from .index import InvertedIndex
from .inputs import InputError
from .lm import (
    RankedList,
    TermDistribution,
    query_mle,
    rank_documents,
    top_k_by_query_likelihood,
)
from .session import Session, pseudo_info_need
from .srm import (
    SrmParams,
    SrmTrace,
    VARIANT_QUERY_CHANGE,
    VARIANT_RM1,
    CandidateMatching,
    build_session_model,
    rerank,
)
from .stages import Stages

logger = logging.getLogger(__name__)

METHOD_NONE = "none"
METHOD_SRM_QC = "srm-qc"
METHOD_SRM_RM1 = "srm-rm1"
METHOD_RM3_QN = "rm3-qn"
METHOD_RM3_QPRIME = "rm3-qprime"
METHOD_QA_UNIFORM = "qa-uniform"
METHOD_QA_DECAY = "qa-decay"

METHODS = (METHOD_NONE, METHOD_SRM_QC, METHOD_SRM_RM1, METHOD_RM3_QN, METHOD_RM3_QPRIME,
           METHOD_QA_UNIFORM, METHOD_QA_DECAY)
_FEEDBACK_METHODS = (METHOD_SRM_QC, METHOD_SRM_RM1, METHOD_RM3_QN, METHOD_RM3_QPRIME)


class Param(NamedTuple):
    """A numeric RunConfig field: flag, help text, a validity test that fails
    for NaN, its range, and the methods whose scores a grid over it changes."""

    field: str
    flag: str
    help: str
    valid: Callable[[float], bool]
    expected: str
    methods: tuple[str, ...] = ()


# Grid fields (those with methods) first, in the order grid_tune visits grid points.
PARAMS = (
    Param("m", "--m", "feedback document count", lambda v: v >= 1, ">= 1", _FEEDBACK_METHODS),
    Param("lam", "--lambda", "feedback interpolation weight", lambda v: 0.0 <= v <= 1.0,
          "in [0, 1]", _FEEDBACK_METHODS),
    Param("gamma", "--gamma", "history retention weight", lambda v: 0.0 <= v <= 1.0,
          "in [0, 1]", (METHOD_SRM_QC, METHOD_SRM_RM1)),
    Param("mu", "--mu", "Dirichlet smoothing pseudo-count",  # compared exactly: 10**400 fails
          lambda v: 0.0 < v <= sys.float_info.max, "finite and > 0", METHODS),
    Param("decay", "--decay", "per-step query weight decay for qa-decay",
          lambda v: 0.0 < v <= 1.0, "in (0, 1]", (METHOD_QA_DECAY,)),
    Param("clip_terms", "--clip", "keep only this many top model terms", lambda v: v >= 1,
          ">= 1", _FEEDBACK_METHODS),
    Param("k", "--k", "cutoff for @k metrics", lambda v: v >= 1, ">= 1"),
    Param("depth", "--depth", "initial retrieval depth", lambda v: v >= 1, ">= 1"),
)
TUNABLE_FIELDS = tuple(param.field for param in PARAMS if param.methods)


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
            raise InputError("unknown method {method} (the run command's --help lists the "
                             "methods)", method=self.method)
        for param in PARAMS:
            value = getattr(self, param.field)
            if type(getattr(RunConfig, param.field)) is int and type(value) is not int:
                raise InputError("{field!s} must be an integer, got {value}", field=param.field,
                                 value=value)
            if not param.valid(value):
                raise InputError("{field!s} must be {expected!s}, got {value}", field=param.field,
                                 expected=param.expected, value=value)

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

    stages is this session's memo (a fresh one when None), which keeps each
    stage under its function and arguments: the first pass, qa_ranking,
    the RM3 feedback first pass, build_session_model's stages (those keyed
    by lambda among them) and rm3_model's, and, when stages is given (tune,
    which scores the session again), candidate_matching, which the rerank
    then goes through.
    Without stages (run) the rerank scores once, directly, which is cheaper
    than matching for one model. The rest runs every call.
    """
    q_n = session.current_query
    if not q_n.tokens:
        raise InputError("session {session}: current query has no analyzable terms",
                         session=session.session_id)
    scored_again = stages is not None
    if stages is None:
        stages = Stages()
    mu = config.mu
    candidates = stages.get(top_k_by_query_likelihood, q_n, index, mu, config.depth)
    result = SessionResult(session.session_id, session.topic_id, candidates)
    method = config.method
    if method == METHOD_NONE or not candidates:
        return result

    if method in (METHOD_QA_UNIFORM, METHOD_QA_DECAY):
        result.ranking = stages.get(qa_ranking, session, index, mu, config.applied_decay,
                                    candidates)
        return result

    if method in (METHOD_SRM_QC, METHOD_SRM_RM1):
        result.model, result.trace = build_session_model(
            session, config.srm_params(), index, stages
        )
    else:
        feedback_query = q_n if method == METHOD_RM3_QN else pseudo_info_need(session.queries)
        feedback = stages.get(top_k_by_query_likelihood, feedback_query, index, mu, config.m)
        feedback_ids = [doc_id for doc_id, _ in feedback]
        if feedback:
            result.model = rm3_model(
                feedback_query, feedback_ids, index, mu, config.lam, config.clip_terms, stages
            )
        else:
            # Nothing retrievable to expand with; score with the bare query.
            result.model = query_mle(feedback_query)
    matching = stages.get(candidate_matching, candidates, index, config.m) if scored_again else None
    result.ranking = rerank(candidates, result.model, index, mu, matching)
    return result


def qa_ranking(
    session: Session, index: InvertedIndex, mu: float, decay: float, candidates: RankedList
) -> RankedList:
    """The candidates ranked by baselines.qa_scorer, term at a time like the
    first pass. QA covers the whole query pool, current query included, so
    its score replaces the candidate score rather than adding to it."""
    ids = [doc_id for doc_id, _ in candidates]
    return rank_documents(qa_scorer(session, index, mu, decay).term_at_a_time(index, ids))


def candidate_matching(candidates: RankedList, index: InvertedIndex, m: int) -> CandidateMatching:
    """The candidates' srm.CandidateMatching for the models of feedback
    depth m: one matching per m keeps each to the terms of those models."""
    return CandidateMatching(candidates, index)


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
