"""Differential test: AP, nDCG@k, nERR@k and MRR against tests/metric_oracle.py,
and the report's metric bundle against the separate per-metric calls.

Hypothesis draws rankings over a small pool of doc ids and grade maps that
judge some of them, ranked or not, so that missed relevant docs, unjudged
ranked docs and ties in grade all occur. At most six docs are judged, which
keeps the oracle's search over every ordering small. A second draw ranks a
few hundred documents, as a run file does, with the judged ones anywhere in
it or beyond it, so relevant docs also sit past k and past depth.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import metric_oracle  # noqa: E402

from sessionsearch.evalkit import (  # noqa: E402
    average_precision,
    mrr,
    ndcg_at_k,
    nerr_at_k,
    session_metrics,
)

POOL = [f"d{i}" for i in range(9)]
TOLERANCE = 1e-12


@st.composite
def judged_rankings(draw):
    ranking = draw(st.permutations(POOL))[: draw(st.integers(0, len(POOL)))]
    judged = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=6))
    grades = {doc: draw(st.integers(0, 4)) for doc in judged}
    k = draw(st.integers(1, len(POOL) + 1))
    g_max = max(grades.values(), default=0) + draw(st.integers(0, 2))
    return ranking, grades, k, g_max


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=judged_rankings())
def test_metrics_match_their_definitions(case):
    ranking, grades, k, g_max = case
    assert average_precision(ranking, grades) == pytest.approx(
        metric_oracle.average_precision(ranking, grades), rel=0, abs=TOLERANCE
    )
    assert ndcg_at_k(ranking, grades, k) == pytest.approx(
        metric_oracle.ndcg_at_k(ranking, grades, k), rel=0, abs=TOLERANCE
    )
    assert nerr_at_k(ranking, grades, k, g_max) == pytest.approx(
        metric_oracle.nerr_at_k(ranking, grades, k, g_max), rel=0, abs=TOLERANCE
    )
    assert mrr(ranking, grades) == pytest.approx(
        metric_oracle.mrr(ranking, grades), rel=0, abs=TOLERANCE
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=judged_rankings(), depth=st.integers(1, len(POOL)))
def test_session_metrics_equal_the_separate_calls_bit_for_bit(case, depth):
    # depth may be shorter than the ranking, and k may pass its end.
    ranking, grades, k, g_max = case
    assert session_metrics(ranking, grades, k, depth, g_max) == {
        f"ndcg@{k}": ndcg_at_k(ranking, grades, k),
        "ndcg": ndcg_at_k(ranking, grades, depth),
        f"nerr@{k}": nerr_at_k(ranking, grades, k, g_max),
        "mrr": mrr(ranking, grades),
        "map": average_precision(ranking, grades),
    }


@st.composite
def long_judged_rankings(draw):
    length = draw(st.integers(100, 400))
    ranking = [f"d{i}" for i in range(length)]
    # Positions at or past the end name judged docs that are not ranked.
    near = st.integers(0, 30)
    positions = draw(st.lists(st.one_of(near, st.integers(0, length + 20)), unique=True,
                              max_size=6))
    grades = {f"d{position}": draw(st.integers(0, 4)) for position in positions}
    k = draw(st.integers(1, 20))
    depth = draw(st.one_of(st.integers(1, 60), st.integers(1, length)))
    g_max = max(grades.values(), default=0) + draw(st.integers(0, 2))
    return ranking, grades, k, depth, g_max


# Relevant docs before k, between k and depth, past depth and unranked.
@example(case=([f"d{i}" for i in range(300)], {"d0": 1, "d4": 3, "d25": 2, "d150": 4, "d299": 1,
                                                "d330": 2}, 10, 100, 4))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=long_judged_rankings())
def test_metrics_of_a_run_file_sized_ranking_match_their_definitions(case):
    ranking, grades, k, depth, g_max = case
    bundle = session_metrics(ranking, grades, k, depth, g_max)
    separate = {
        f"ndcg@{k}": ndcg_at_k(ranking, grades, k),
        "ndcg": ndcg_at_k(ranking, grades, depth),
        f"nerr@{k}": nerr_at_k(ranking, grades, k, g_max),
        "mrr": mrr(ranking, grades),
        "map": average_precision(ranking, grades),
    }
    assert bundle == separate
    oracle = {
        f"ndcg@{k}": metric_oracle.ndcg_at_k(ranking, grades, k),
        "ndcg": metric_oracle.ndcg_at_k(ranking, grades, depth),
        f"nerr@{k}": metric_oracle.nerr_at_k(ranking, grades, k, g_max),
        "mrr": metric_oracle.mrr(ranking, grades),
        "map": metric_oracle.average_precision(ranking, grades),
    }
    assert separate == pytest.approx(oracle, rel=0, abs=TOLERANCE)
