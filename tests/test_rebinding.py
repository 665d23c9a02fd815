"""Calls that bench/probe.py rebinds by module attribute stay rebindable.

The benchmark's per-layer metrics come from wrappers installed over module
attributes. A scoring path that reaches one of these functions some other
way (a direct import, a captured reference) would bypass the wrapper and
silently report zero for that layer.
"""

import inspect

import pytest

from conftest import make_session

from sessionsearch import baselines, pipeline, srm
from sessionsearch.analysis import analyze
from sessionsearch.index import build_index
from sessionsearch.session import load_sessions

REBOUND = (
    (pipeline, "top_k_by_query_likelihood"),
    (pipeline, "build_session_model"),
    (pipeline, "rerank"),
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
    "qa-decay": {"pipeline.top_k_by_query_likelihood"},
}


# What a second (lambda, gamma) point of a session reaches under
# StagedScorer: the first pass, the feedback set and the feedback model
# come from the memo, and QA's whole ranking, which reads neither.
SECOND_POINT = {
    "srm-qc": {"pipeline.build_session_model", "srm.anchor_feedback", "pipeline.rerank"},
    "srm-rm1": {"pipeline.build_session_model", "srm.anchor_feedback", "pipeline.rerank"},
    "qa-decay": set(),
}


def counting(calls, key, real):
    def wrapper(*args, **kwargs):
        calls.add(key)
        return real(*args, **kwargs)

    return wrapper


def rebind(monkeypatch, targets=REBOUND):
    """Wrap each target; returns the set of 'module.name' keys called."""
    calls = set()
    for module, name in targets:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        monkeypatch.setattr(module, name, counting(calls, key, getattr(module, name)))
    return calls


@pytest.mark.parametrize("method", sorted(EXPECTED))
def test_scoring_calls_go_through_module_attributes(monkeypatch, club_index, method):
    calls = rebind(monkeypatch)
    # The history click gives step 1 a feedback set, so every SRM stage runs.
    session = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    result = pipeline.score_session_full(session, club_index, pipeline.RunConfig(method=method))
    assert result.ranking
    assert calls == EXPECTED[method]


@pytest.mark.parametrize("method", sorted(SECOND_POINT))
def test_staged_scorer_reaches_only_the_changed_stages(monkeypatch, club_index, method):
    calls = rebind(monkeypatch)
    session = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    scorer = pipeline.StagedScorer()
    first = scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.3, gamma=0.3))
    assert first
    assert calls == EXPECTED[method]
    calls.clear()
    second = scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.7, gamma=0.5))
    assert second
    assert calls == SECOND_POINT[method]
    # QA reads neither lambda nor gamma: the second point gets the kept list back.
    assert (second is first) == (method == "qa-decay")
    # A new session object starts a fresh memo.
    calls.clear()
    other = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    assert scorer(other, club_index, pipeline.RunConfig(method=method, lam=0.7, gamma=0.5))
    assert calls == EXPECTED[method]


@pytest.mark.parametrize("method", ["rm3-qn", "rm3-qprime"])
def test_staged_scorer_keeps_the_rm1_model_across_lambda_and_clip(
    monkeypatch, club_index, method
):
    calls = rebind(monkeypatch, REBOUND + ((baselines, "rm1_model"),))
    session = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    scorer = pipeline.StagedScorer()
    assert scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.3))
    assert calls == {"pipeline.top_k_by_query_likelihood", "baselines.rm1_model",
                     "pipeline.rerank"}
    # Only the interpolation, the clip and the rerank depend on lambda and clip.
    calls.clear()
    assert scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.7, clip_terms=3))
    assert calls == {"pipeline.rerank"}
    # Another mu is another first pass and another RM1 model.
    calls.clear()
    assert scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.7, mu=10.0))
    assert calls == {"pipeline.top_k_by_query_likelihood", "baselines.rm1_model",
                     "pipeline.rerank"}


@pytest.mark.parametrize("fn", [build_index, load_sessions])
def test_analyzer_is_the_only_default_argument(fn):
    defaults = [p.name for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty]
    assert defaults == ["analyzer"]
    assert fn.__defaults__ == (analyze,)


@pytest.mark.parametrize("method", ["srm-qc", "srm-rm1"])
def test_a_gamma_only_point_keeps_the_anchored_models(monkeypatch, club_index, method):
    calls = rebind(monkeypatch)
    session = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    scorer = pipeline.StagedScorer()
    assert scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.3, gamma=0.3))
    calls.clear()
    # The anchoring reads lambda alone: another gamma remixes the kept
    # anchored models and reranks, and anchors nothing.
    assert scorer(session, club_index, pipeline.RunConfig(method=method, lam=0.3, gamma=0.5))
    assert calls == {"pipeline.build_session_model", "pipeline.rerank"}
