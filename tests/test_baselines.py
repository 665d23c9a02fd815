"""Relevance-model baselines and query-aggregation scoring."""

import random

import pytest

import oracle
from conftest import doc_model, log_likelihood, make_session, text

from sessionsearch import baselines, pipeline
from sessionsearch.analysis import whitespace_analyze
from sessionsearch.baselines import qa_score, rm1_model, rm3_model
from sessionsearch.index import build_index
from sessionsearch.lm import query_mle
from sessionsearch.pipeline import RunConfig, StagedScorer


@pytest.fixture
def ratio_index():
    return build_index(
        [("g1", "x z z z"), ("g2", "x x x z")], analyzer=whitespace_analyze
    )


class TestRm1:
    def test_single_doc_equals_its_mle(self, tiny_index):
        fm = rm1_model(text("a"), ["d1"], tiny_index, 10.0)
        reference = doc_model(tiny_index.doc("d1"))
        for term, p in reference.items():
            assert fm.get(term) == pytest.approx(p, abs=1e-12)

    def test_equal_likelihood_docs_average(self, tiny_index):
        # Both docs contain "b" once; with mu=0 their likelihoods for "b"
        # are 1/3 and 1/2, so weights are 0.4 and 0.6.
        fm = rm1_model(text("b"), ["d1", "d2"], tiny_index, 0.0)
        d1 = doc_model(tiny_index.doc("d1"))
        d2 = doc_model(tiny_index.doc("d2"))
        for term in set(d1.support()) | set(d2.support()):
            expected = 0.4 * d1.get(term) + 0.6 * d2.get(term)
            assert fm.get(term) == pytest.approx(expected, abs=1e-12)

    def test_unmatchable_query_falls_back_to_uniform_weights(self, tiny_index):
        fm = rm1_model(text("zzz"), ["d1", "d2"], tiny_index, 0.0)
        d1 = doc_model(tiny_index.doc("d1"))
        d2 = doc_model(tiny_index.doc("d2"))
        for term in set(d1.support()) | set(d2.support()):
            expected = 0.5 * d1.get(term) + 0.5 * d2.get(term)
            assert fm.get(term) == pytest.approx(expected, abs=1e-12)

    def test_empty_feedback_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            rm1_model(text("a"), [], tiny_index, 10.0)

    def test_matches_direct_summation_on_random_toys(self):
        rng = random.Random(7)
        for _ in range(40):
            instance = oracle.random_toy_instance(rng)
            docs = instance["docs"]
            coll = oracle.build_collection(docs)
            index = build_index(
                [
                    (d, " ".join(" ".join([t] * c) for t, c in sorted(docs[d].items())))
                    for d in sorted(docs)
                ],
                analyzer=whitespace_analyze,
            )
            doc_ids = sorted(docs)
            q = instance["current"]
            mu = instance["params"]["mu"]
            fm = rm1_model(text(*q), doc_ids, index, mu)
            expected = oracle.rm1_feedback_model(q, doc_ids, docs, coll, mu)
            assert fm.total() == pytest.approx(1.0, abs=1e-9)
            for term in set(expected) | set(fm.as_dict()):
                assert fm.get(term) == pytest.approx(expected.get(term, 0.0), abs=1e-9)


class TestRm3:
    def test_lambda_zero_is_exact_query_model(self, tiny_index):
        model = rm3_model(text("a", "b"), ["d1", "d2"], tiny_index, 10.0, 0.0)
        assert model.as_dict() == query_mle(text("a", "b")).as_dict()

    def test_lambda_one_is_pure_feedback_model(self, tiny_index):
        model = rm3_model(text("a"), ["d1", "d2"], tiny_index, 10.0, 1.0)
        reference = rm1_model(text("a"), ["d1", "d2"], tiny_index, 10.0)
        assert model.as_dict() == reference.as_dict()

    def test_half_mix_is_termwise_average(self, tiny_index):
        qm = query_mle(text("a"))
        fm = rm1_model(text("a"), ["d1", "d2"], tiny_index, 10.0)
        model = rm3_model(text("a"), ["d1", "d2"], tiny_index, 10.0, 0.5)
        for term in set(qm.support()) | set(fm.support()):
            expected = 0.5 * qm.get(term) + 0.5 * fm.get(term)
            assert model.get(term) == pytest.approx(expected, abs=1e-12)

    def test_clip_truncates_and_renormalizes(self, club_index):
        wide = rm3_model(text("club"), ["d1", "d2", "d4"], club_index, 50.0, 0.8)
        assert len(wide) > 3
        clipped = rm3_model(text("club"), ["d1", "d2", "d4"], club_index, 50.0, 0.8, clip_terms=3)
        assert len(clipped) == 3
        assert clipped.total() == pytest.approx(1.0, abs=1e-12)
        top = sorted(wide.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        assert sorted(clipped.support()) == sorted(term for term, _ in top)

    def test_lambda_out_of_range_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            rm3_model(text("a"), ["d1"], tiny_index, 10.0, 1.2)


class TestQueryAggregation:
    def test_single_query_session_all_variants_equal_plain_ql(self, tiny_index):
        session = make_session([], ["a", "b"])
        doc = tiny_index.doc("d1")
        plain = log_likelihood(text("a", "b"), doc, tiny_index.stats, 2500.0)
        assert qa_score(session, doc, tiny_index, 2500.0) == plain
        assert qa_score(session, doc, tiny_index, 2500.0, decay=0.92) == plain
        assert qa_score(session, doc, tiny_index, 2500.0, decay=1.0) == plain

    def test_decay_one_sums_per_query_scores(self, tiny_index):
        session = make_session([(["a"], [], [])], ["b"])
        doc = tiny_index.doc("d1")
        expected = log_likelihood(
            text("a"), doc, tiny_index.stats, 100.0
        ) + log_likelihood(text("b"), doc, tiny_index.stats, 100.0)
        got = qa_score(session, doc, tiny_index, 100.0, decay=1.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_uniform_concatenates_queries(self, tiny_index):
        session = make_session([(["a"], [], [])], ["a", "b"])
        doc = tiny_index.doc("d2")
        expected = log_likelihood(text("a", "a", "b"), doc, tiny_index.stats, 100.0)
        assert qa_score(session, doc, tiny_index, 100.0, decay=1.0) == expected

    def test_decay_weights_older_queries_down(self, tiny_index):
        session = make_session([(["a"], [], []), (["b"], [], [])], ["b"])
        doc = tiny_index.doc("d1")
        ql = lambda tokens: log_likelihood(text(*tokens), doc, tiny_index.stats, 100.0)
        expected = 0.92**2 * ql(["a"]) + 0.92 * ql(["b"]) + ql(["b"])
        got = qa_score(session, doc, tiny_index, 100.0, decay=0.92)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_history_query_contributes_nothing(self, tiny_index):
        session = make_session([([], [], [])], ["a"])
        doc = tiny_index.doc("d1")
        plain = log_likelihood(text("a"), doc, tiny_index.stats, 100.0)
        assert qa_score(session, doc, tiny_index, 100.0, decay=0.5) == plain

    def test_unindexed_term_is_ignored(self, tiny_index):
        noisy = make_session([(["zzz"], [], [])], ["a", "zzz"])
        clean = make_session([], ["a"])
        doc = tiny_index.doc("d1")
        for decay in (1.0, 0.5):
            assert qa_score(noisy, doc, tiny_index, 100.0, decay) == qa_score(
                clean, doc, tiny_index, 100.0, decay
            )

    def test_unsmoothed_missing_term_scores_minus_inf(self, tiny_index):
        # "c" exists in the collection but not in d1, and mu=0 turns off
        # smoothing, so the document cannot generate the history query.
        session = make_session([(["c"], [], [])], ["a"])
        doc = tiny_index.doc("d1")
        assert qa_score(session, doc, tiny_index, 0.0, decay=0.5) == float("-inf")

    @pytest.mark.parametrize("decay", [0.0, -0.2, 1.5])
    def test_decay_out_of_range_rejected(self, tiny_index, decay):
        session = make_session([], ["a"])
        with pytest.raises(ValueError):
            qa_score(session, tiny_index.doc("d1"), tiny_index, 100.0, decay=decay)

    @pytest.mark.parametrize("mu", [10.0, 2500.0])
    @pytest.mark.parametrize("decay", [None, 0.5, 0.92, 1.0])
    def test_shared_stages_score_bit_for_bit_like_fresh_ones(self, club_index, decay, mu):
        # One scorer's batch over every document, the way the pipeline scores
        # QA candidates, against a fresh scorer per document. A history with
        # repeats and a term the collection lacks, so the decayed query
        # differs from the current one. decay=None leaves the argument at its
        # default, the uniform weighting qa-uniform uses.
        session = make_session(
            [(["jazz", "club"], [], []), (["rock", "zzz"], [], []), (["jazz"], [], [])],
            ["club", "music"],
        )
        weighting = {} if decay is None else {"decay": decay}
        docs = [club_index.doc(doc_id) for doc_id in sorted(club_index.doc_table)]
        shared = baselines.qa_scorer(session, club_index, mu, **weighting).scores(docs)
        fresh = [qa_score(session, doc, club_index, mu, **weighting) for doc in docs]
        assert [score.hex() for score in shared] == [score.hex() for score in fresh]

    def test_scorer_built_once_per_session_mu_and_decay(self, monkeypatch, club_index):
        built = []
        real = pipeline.qa_scorer

        def recording(session, index, mu, decay):
            built.append((mu, decay))
            return real(session, index, mu, decay)

        monkeypatch.setattr(pipeline, "qa_scorer", recording)
        session = make_session([(["jazz"], [], [])], ["jazz", "club"])
        scorer = StagedScorer()
        points = [("qa-decay", 0.5), ("qa-decay", 0.92), ("qa-uniform", 0.5), ("qa-decay", 0.5),
                  ("qa-decay", 1.0)]
        rankings = [scorer(session, club_index, RunConfig(method=method, decay=decay))
                    for method, decay in points]
        assert all(len(ranking) == 4 for ranking in rankings)
        # qa-uniform is qa-decay at decay 1: both points share one ranking.
        assert rankings[2] is rankings[4]
        assert rankings[0] is rankings[3]
        assert built == [(2500.0, 0.5), (2500.0, 0.92), (2500.0, 1.0)]
