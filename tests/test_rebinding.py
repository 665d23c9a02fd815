"""Calls that bench/probe.py rebinds by module attribute stay rebindable.

The benchmark's per-layer metrics come from wrappers installed over module
attributes. A scoring path that reaches one of these functions some other
way (a direct import, a captured reference) would bypass the wrapper and
silently report zero for that layer.
"""

import inspect

import pytest

from conftest import make_session

from sessionsearch import pipeline, srm
from sessionsearch.analysis import analyze
from sessionsearch.index import build_index
from sessionsearch.session import load_sessions

REBOUND = (
    (pipeline, "top_k_by_query_likelihood"),
    (pipeline, "build_session_model"),
    (pipeline, "rerank"),
    (pipeline, "qa_score"),
    (srm, "select_feedback_docs"),
    (srm, "feedback_model"),
    (srm, "rm1_style_feedback_model"),
    (srm, "anchor_feedback"),
)

SRM_CALLS = {
    "pipeline.top_k_by_query_likelihood",
    "pipeline.build_session_model",
    "pipeline.rerank",
    "srm.select_feedback_docs",
    "srm.anchor_feedback",
}

EXPECTED = {
    "srm-qc": SRM_CALLS | {"srm.feedback_model"},
    "srm-rm1": SRM_CALLS | {"srm.rm1_style_feedback_model"},
    "qa-decay": {"pipeline.top_k_by_query_likelihood", "pipeline.qa_score"},
}


def counting(calls, key, real):
    def wrapper(*args, **kwargs):
        calls.add(key)
        return real(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("method", sorted(EXPECTED))
def test_scoring_calls_go_through_module_attributes(monkeypatch, club_index, method):
    calls = set()
    for module, name in REBOUND:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        monkeypatch.setattr(module, name, counting(calls, key, getattr(module, name)))
    # The history click gives step 1 a feedback set, so every SRM stage runs.
    session = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    result = pipeline.score_session_full(session, club_index, pipeline.RunConfig(method=method))
    assert result.ranking
    assert calls == EXPECTED[method]


@pytest.mark.parametrize("method", ["srm-qc", "srm-rm1"])
def test_staged_scorer_reaches_only_the_changed_stages(monkeypatch, club_index, method):
    calls = set()
    for module, name in REBOUND:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        monkeypatch.setattr(module, name, counting(calls, key, getattr(module, name)))
    session = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    scorer = pipeline.StagedScorer()
    assert scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.3, gamma=0.3))
    assert calls == EXPECTED[method]
    # Another (lambda, gamma) point of the same session: the first pass,
    # the feedback set and the feedback model come from the memo.
    calls.clear()
    assert scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.7, gamma=0.5))
    assert calls == {"pipeline.build_session_model", "srm.anchor_feedback", "pipeline.rerank"}
    # A new session object starts a fresh memo.
    calls.clear()
    other = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    assert scorer(other, club_index, pipeline.RunConfig(method=method, lam=0.7, gamma=0.5))
    assert calls == EXPECTED[method]


@pytest.mark.parametrize("fn", [build_index, load_sessions])
def test_analyzer_is_the_only_default_argument(fn):
    defaults = [p.name for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty]
    assert defaults == ["analyzer"]
    assert fn.__defaults__ == (analyze,)
