"""Differential test: AP, nDCG@k, nERR@k and MRR against tests/metric_oracle.py,
and the report's metric bundle against the separate per-metric calls.

Hypothesis draws rankings over a small pool of doc ids and grade maps that
judge some of them, ranked or not, so that missed relevant docs, unjudged
ranked docs and ties in grade all occur. At most six docs are judged, which
keeps the oracle's search over every ordering small.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
