"""Feedback models, anchoring, self-clarity, the session update, and rerank."""

import json
import math
import random

import pytest

import oracle
from conftest import (doc_model, instance_index, instance_params, instance_session,
                      make_session, text)

from sessionsearch.analysis import whitespace_analyze
from sessionsearch.index import build_index
from sessionsearch.lm import (
    TermDistribution,
    ZERO,
    cross_entropy_scorer,
    query_mle,
    top_k_by_query_likelihood,
)
from sessionsearch.pipeline import RunConfig, score_session_full
from sessionsearch.session import ChangeType, FeedbackSet, FeedbackSource, QueryChange
from sessionsearch.srm import (
    SrmParams,
    VARIANT_QUERY_CHANGE,
    VARIANT_RM1,
    anchor_feedback,
    build_session_model,
    change_likelihood,
    default_change_priors,
    doc_change_posterior,
    feedback_model,
    rerank,
    rm1_style_feedback_model,
    self_clarity_gamma,
    srm_update,
)


def feedback(*doc_ids):
    return FeedbackSet(tuple(doc_ids), FeedbackSource.CLICKS)


@pytest.fixture
def ratio_index():
    # g1 has p(x) = 1/4, g2 has p(x) = 3/4: likelihood ratio 1:3.
    return build_index(
        [("g1", "x z z z"), ("g2", "x x x z")], analyzer=whitespace_analyze
    )


class TestChangeLikelihood:
    def test_remove_complements_unsmoothed_mass(self, tiny_index):
        # d1 = "a a b": removing "b" leaves mass 1 - 1/3.
        got = change_likelihood(frozenset({"b"}), ChangeType.REMOVE, "d1", tiny_index, 2500.0)
        assert got == pytest.approx(2 / 3, abs=1e-12)

    def test_remove_clamps_at_zero(self, tiny_index):
        got = change_likelihood(
            frozenset({"a", "b"}), ChangeType.REMOVE, "d1", tiny_index, 2500.0
        )
        assert got == 0.0

    def test_add_is_product_of_smoothed_probs(self, tiny_index):
        got = change_likelihood(frozenset({"a", "b"}), ChangeType.ADD, "d1", tiny_index, 0.0)
        assert got == pytest.approx((2 / 3) * (1 / 3), abs=1e-12)

    def test_retain_of_unknown_term_is_zero(self, tiny_index):
        got = change_likelihood(frozenset({"zzz"}), ChangeType.RETAIN, "d1", tiny_index, 2500.0)
        assert got == 0.0

    def test_empty_set_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            change_likelihood(frozenset(), ChangeType.ADD, "d1", tiny_index, 10.0)


class TestDocChangePosterior:
    def test_single_doc_gets_all_mass(self, tiny_index):
        post = doc_change_posterior(
            frozenset({"a"}), ChangeType.ADD, feedback("d1"), tiny_index, 10.0
        )
        assert post == {"d1": 1.0}

    def test_hand_quarter_three_quarters(self, ratio_index):
        post = doc_change_posterior(
            frozenset({"x"}), ChangeType.ADD, feedback("g1", "g2"), ratio_index, 0.0
        )
        assert post["g1"] == pytest.approx(0.25, abs=1e-12)
        assert post["g2"] == pytest.approx(0.75, abs=1e-12)

    def test_all_zero_likelihoods_fall_back_to_uniform(self, tiny_index):
        post = doc_change_posterior(
            frozenset({"zzz"}), ChangeType.ADD, feedback("d1", "d2"), tiny_index, 10.0
        )
        assert post == {"d1": 0.5, "d2": 0.5}

    def test_empty_feedback_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            doc_change_posterior(
                frozenset({"a"}), ChangeType.ADD, feedback(), tiny_index, 10.0
            )


class TestFeedbackModel:
    def test_single_doc_equals_its_mle(self, tiny_index):
        change = QueryChange(frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
        fm = feedback_model(change, feedback("d1"), default_change_priors(), tiny_index, 10.0)
        reference = doc_model(tiny_index.doc("d1"))
        assert sorted(fm.support()) == sorted(reference.support())
        for term, p in reference.items():
            assert fm.get(term) == pytest.approx(p, abs=1e-12)

    def test_uniform_posteriors_average_doc_models(self, tiny_index):
        # A change no document can explain leaves a uniform posterior, so the
        # model is the plain average of the two document models.
        change = QueryChange(frozenset(), frozenset({"zzz"}), frozenset())
        fm = feedback_model(change, feedback("d1", "d2"), default_change_priors(), tiny_index, 10.0)
        d1 = doc_model(tiny_index.doc("d1"))
        d2 = doc_model(tiny_index.doc("d2"))
        for term in set(d1.support()) | set(d2.support()):
            expected = 0.5 * d1.get(term) + 0.5 * d2.get(term)
            assert fm.get(term) == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_summation_on_toy(self):
        docs = {
            "d1": {"u": 2, "v": 1, "w": 1},
            "d2": {"v": 3, "x": 1},
            "d3": {"w": 1, "x": 1, "y": 2, "z": 1},
        }
        index = build_index(
            [(d, " ".join(" ".join([t] * c) for t, c in sorted(docs[d].items()))) for d in sorted(docs)],
            analyzer=whitespace_analyze,
        )
        change = QueryChange(frozenset({"v"}), frozenset({"x", "y"}), frozenset({"u"}))
        fm = feedback_model(
            change, feedback("d1", "d2", "d3"), default_change_priors(), index, 50.0
        )
        coll = oracle.build_collection(docs)
        expected = oracle.qc_feedback_model(
            {"retain": {"v"}, "add": {"x", "y"}, "remove": {"u"}},
            ["d1", "d2", "d3"],
            docs,
            coll,
            50.0,
        )
        for term in set(expected) | set(fm.as_dict()):
            assert fm.get(term) == pytest.approx(expected.get(term, 0.0), abs=1e-9)

    def test_priors_renormalized_over_active_types(self, tiny_index):
        # Only ADD is active, so any prior vector gives the same model.
        change = QueryChange(frozenset(), frozenset({"a"}), frozenset())
        skewed = {ChangeType.RETAIN: 0.8, ChangeType.ADD: 0.1, ChangeType.REMOVE: 0.1}
        fm_skewed = feedback_model(change, feedback("d1", "d2"), skewed, tiny_index, 10.0)
        fm_default = feedback_model(
            change, feedback("d1", "d2"), default_change_priors(), tiny_index, 10.0
        )
        for term in fm_default.support():
            assert fm_skewed.get(term) == pytest.approx(fm_default.get(term), abs=1e-12)

    def test_empty_feedback_rejected(self, tiny_index):
        change = QueryChange(frozenset(), frozenset({"a"}), frozenset())
        with pytest.raises(ValueError):
            feedback_model(change, feedback(), default_change_priors(), tiny_index, 10.0)

    def test_no_active_terms_rejected(self, tiny_index):
        change = QueryChange(frozenset(), frozenset(), frozenset())
        with pytest.raises(ValueError):
            feedback_model(change, feedback("d1"), default_change_priors(), tiny_index, 10.0)


class TestAnchorFeedback:
    def test_lambda_zero_gives_exact_query_model(self, tiny_index):
        fm = doc_model(tiny_index.doc("d2"))
        anchored = anchor_feedback(fm, text("a", "b"), text("a", "b"), 0.0, tiny_index)
        assert anchored.as_dict() == query_mle(text("a", "b")).as_dict()

    def test_lambda_one_same_query_returns_fm_unchanged(self, tiny_index):
        fm = doc_model(tiny_index.doc("d2"))
        anchored = anchor_feedback(fm, text("a"), text("a"), 1.0, tiny_index)
        assert anchored is fm

    def test_hand_mixture_at_half_similarity(self, tiny_index):
        # q_t = "a", q_n = "a a": generalized Jaccard is exactly 1/2, so
        # lambda = 0.8 scales to 0.4 and the mix is 0.6 query + 0.4 feedback.
        fm = doc_model(tiny_index.doc("d2"))  # {b: 1/2, c: 1/2}
        anchored = anchor_feedback(fm, text("a"), text("a", "a"), 0.8, tiny_index)
        assert anchored.get("a") == pytest.approx(0.6, abs=1e-12)
        assert anchored.get("b") == pytest.approx(0.2, abs=1e-12)
        assert anchored.get("c") == pytest.approx(0.2, abs=1e-12)

    def test_monotone_anchoring(self, tiny_index):
        # More lambda moves the anchored model further from the query model.
        fm = doc_model(tiny_index.doc("d2"))
        q_t = text("a", "b")
        base = query_mle(q_t)
        distances = []
        for lam in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
            anchored = anchor_feedback(fm, q_t, q_t, lam, tiny_index)
            support = set(anchored.support()) | set(base.support())
            distances.append(
                math.fsum(abs(anchored.get(t) - base.get(t)) for t in support)
            )
        assert distances == sorted(distances)


class TestSelfClarityGamma:
    def test_identical_distributions_return_gamma(self):
        dist = TermDistribution.from_weights({"a": 1.0, "b": 3.0})
        assert self_clarity_gamma(dist, dist, 0.5) == 0.5

    def test_kl_ln2_halves_gamma(self):
        anchored = TermDistribution.from_weights({"a": 1.0})
        prior = TermDistribution.from_weights({"a": 1.0, "b": 1.0})
        assert self_clarity_gamma(anchored, prior, 0.9) == pytest.approx(0.45, abs=1e-12)

    def test_zero_prior_gives_exact_zero(self):
        anchored = TermDistribution.from_weights({"a": 1.0})
        assert self_clarity_gamma(anchored, ZERO, 0.9) == 0.0

    def test_missing_support_gives_exact_zero(self):
        anchored = TermDistribution.from_weights({"a": 1.0, "b": 1.0})
        prior = TermDistribution.from_weights({"a": 1.0})
        assert self_clarity_gamma(anchored, prior, 0.9) == 0.0


class TestSrmUpdate:
    def test_zero_prior_returns_anchored(self):
        anchored = TermDistribution.from_weights({"a": 1.0})
        assert srm_update(ZERO, anchored, 0.0) is anchored

    def test_zero_prior_with_nonzero_gamma_rejected(self):
        anchored = TermDistribution.from_weights({"a": 1.0})
        with pytest.raises(ValueError):
            srm_update(ZERO, anchored, 0.3)

    def test_half_mix_of_disjoint_singletons(self):
        prior = TermDistribution.from_weights({"a": 1.0})
        anchored = TermDistribution.from_weights({"b": 1.0})
        mixed = srm_update(prior, anchored, 0.5)
        assert mixed.get("a") == pytest.approx(0.5, abs=1e-12)
        assert mixed.get("b") == pytest.approx(0.5, abs=1e-12)

    def test_gamma_one_keeps_prior(self):
        prior = TermDistribution.from_weights({"a": 1.0})
        anchored = TermDistribution.from_weights({"b": 1.0})
        assert srm_update(prior, anchored, 1.0) is prior


class TestBuildSessionModel:
    def params(self, **overrides):
        values = dict(gamma=0.5, lam=0.5, m=3, mu=10.0, clip_terms=100)
        values.update(overrides)
        return SrmParams(**values)

    def test_no_history_no_feedback_degenerates_to_query_mle(self, tiny_index):
        session = make_session([], ["a", "b"])
        model, trace = build_session_model(session, self.params(), tiny_index)
        assert model.as_dict() == {"a": 0.5, "b": 0.5}
        assert len(trace.records) == 1
        assert trace.records[0].gamma_t == 0.0
        assert trace.records[0].feedback.doc_ids == ()

    def test_lambda_t_is_zero_on_steps_without_feedback(self, tiny_index):
        # Step 1 shows nothing, so its anchored model is the bare query MLE
        # and no feedback weight applies; step 2 clicks d1 and gets one.
        session = make_session([(["a"], [], []), (["a"], ["d1"], ["d1"])], ["a", "b"])
        _, trace = build_session_model(session, self.params(), tiny_index)
        first, second, _ = trace.records
        assert first.feedback.doc_ids == ()
        assert first.lambda_t == 0.0
        assert second.feedback.doc_ids == ("d1",)
        assert 0.0 < second.lambda_t <= 0.5

    def test_trace_writes_infinite_kl_as_json_null(self, tiny_index):
        # Step 1 has an empty prior and step 2's query lies outside the
        # prior's support; step 3 repeats step 2, so its divergence is 0.
        session = make_session([(["a"], [], []), (["b"], [], [])], ["b"])
        _, trace = build_session_model(session, self.params(), tiny_index)
        records = json.loads(json.dumps(trace.to_dict()))["records"]
        assert [record["kl"] for record in records] == [None, None, 0.0]

    def test_hand_walk_clicked_doc_becomes_model(self, tiny_index):
        # One history step, q_1 = q_n, lambda = 1: the anchored model at both
        # steps is the clicked doc's MLE, so the final model is exactly that.
        session = make_session([(["a"], ["d1"], ["d1"])], ["a"])
        model, trace = build_session_model(session, self.params(lam=1.0), tiny_index)
        reference = doc_model(tiny_index.doc("d1"))
        assert trace.records[0].gamma_t == 0.0
        assert trace.records[1].kl == pytest.approx(0.0, abs=1e-12)
        assert trace.records[1].gamma_t == pytest.approx(0.5, abs=1e-12)
        for term, p in reference.items():
            assert model.get(term) == pytest.approx(p, abs=1e-12)

    def test_gamma_zero_at_first_step(self, tiny_index):
        session = make_session([(["a"], ["d1"], ["d1"]), (["b"], ["d2"], [])], ["c"])
        _, trace = build_session_model(session, self.params(), tiny_index)
        assert trace.records[0].gamma_t == 0.0

    def test_empty_history_query_skipped_but_evidence_kept(self, tiny_index):
        session = make_session(
            [([], ["d1"], ["d1"]), (["a"], ["d2"], [])],
            ["a", "b"],
        )
        model, trace = build_session_model(session, self.params(), tiny_index)
        # The empty query contributes no step record, but its click still
        # feeds the later feedback sets.
        assert [record.step for record in trace.records] == [2, 3]
        assert trace.records[0].feedback.doc_ids == ("d1",)
        # Step 2 classifies against no previous query: everything is added.
        assert trace.records[0].change.added == {"a"}
        assert trace.records[0].change.retained == frozenset()

    def test_empty_current_query_rejected(self, tiny_index):
        session = make_session([(["a"], [], [])], [])
        with pytest.raises(ValueError):
            build_session_model(session, self.params(), tiny_index)

    @pytest.mark.parametrize("score", ["build_session_model", "score_session_full"])
    def test_empty_current_query_line_cuts_a_long_session_id(self, tiny_index, score):
        session = make_session([(["a"], [], [])], [], session_id="s" * 200)
        with pytest.raises(ValueError) as excinfo:
            if score == "build_session_model":
                build_session_model(session, self.params(), tiny_index)
            else:
                score_session_full(session, tiny_index, RunConfig(method="srm-qc"))
        line = str(excinfo.value)
        assert "\n" not in line and len(line) <= 120
        assert line.startswith("session 'sss") and line.endswith("no analyzable terms")

    def test_single_feedback_doc_makes_variants_identical(self, tiny_index):
        session = make_session([(["a", "b"], ["d2"], ["d2"])], ["a", "c"])
        qc_model, _ = build_session_model(
            session, self.params(variant=VARIANT_QUERY_CHANGE), tiny_index
        )
        rm1_model, _ = build_session_model(
            session, self.params(variant=VARIANT_RM1), tiny_index
        )
        assert qc_model.as_dict() == rm1_model.as_dict()

    def test_lambda_zero_fresh_term_final_is_query_mle(self, tiny_index):
        # With lambda = 0 each anchored model is a query MLE; the current
        # query brings a term outside the accumulated support, so its KL is
        # infinite, gamma_n is exactly 0, and the final model is exactly the
        # current query's MLE.
        session = make_session([(["a"], ["d1"], ["d1"])], ["a", "c"])
        model, trace = build_session_model(session, self.params(lam=0.0), tiny_index)
        assert trace.records[-1].gamma_t == 0.0
        assert model.as_dict() == query_mle(text("a", "c")).as_dict()

    def test_clip_keeps_top_terms_and_renormalizes(self, club_index):
        session = make_session([(["jazz"], ["d1", "d3"], ["d1", "d3"])], ["jazz", "club"])
        unclipped, _ = build_session_model(session, self.params(), club_index)
        assert len(unclipped) > 2
        clipped, _ = build_session_model(session, self.params(clip_terms=2), club_index)
        assert len(clipped) == 2
        assert clipped.total() == pytest.approx(1.0, abs=1e-12)
        top_two = sorted(unclipped.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
        assert sorted(clipped.support()) == sorted(term for term, _ in top_two)

    def test_gamma_bounded_and_models_normalized_on_random_toys(self):
        rng = random.Random(99)
        for _ in range(60):
            instance = oracle.random_toy_instance(rng)
            index = instance_index(instance)
            session = instance_session(instance)
            params = instance_params(instance)
            model, trace = build_session_model(session, params, index)
            assert model.total() == pytest.approx(1.0, abs=1e-9)
            for record in trace.records:
                assert 0.0 <= record.gamma_t <= params.gamma
                assert 0.0 <= record.lambda_t <= params.lam


class TestRm1StyleFeedbackModel:
    def test_single_doc_equals_its_mle(self, tiny_index):
        fm = rm1_style_feedback_model(text("a"), feedback("d1"), tiny_index, 10.0)
        reference = doc_model(tiny_index.doc("d1"))
        for term, p in reference.items():
            assert fm.get(term) == pytest.approx(p, abs=1e-12)

    def test_weights_follow_query_likelihood(self, ratio_index):
        fm = rm1_style_feedback_model(text("x"), feedback("g1", "g2"), ratio_index, 0.0)
        # g2 carries 3x the likelihood for "x", so its terms dominate.
        assert fm.get("x") == pytest.approx(0.25 * 0.25 + 0.75 * 0.75, abs=1e-12)


class TestRerank:
    def test_model_term_breaks_ql_tie(self):
        index = build_index(
            [("da", "x p"), ("db", "x q")], analyzer=whitespace_analyze
        )
        candidates = top_k_by_query_likelihood(text("x"), index, 100.0, 10)
        assert candidates[0][1] == candidates[1][1]
        model = TermDistribution.from_weights({"q": 1.0})
        ranked = rerank(candidates, model, index, 100.0)
        assert [doc_id for doc_id, _ in ranked] == ["db", "da"]

    def test_order_invariant_to_candidate_permutation(self, club_index):
        candidates = top_k_by_query_likelihood(text("club", "music"), club_index, 50.0, 10)
        model = TermDistribution.from_weights({"jazz": 2.0, "club": 1.0})
        forward = rerank(candidates, model, club_index, 50.0)
        backward = rerank(list(reversed(candidates)), model, club_index, 50.0)
        assert forward == backward

    def test_query_mle_model_regression(self, club_index):
        # Degenerate model equal to the query MLE: the final score must be
        # the QL score plus a query-only cross-entropy term, nothing more.
        q_n = text("club", "music")
        candidates = top_k_by_query_likelihood(q_n, club_index, 50.0, 10)
        model = query_mle(q_n)
        ranked = rerank(candidates, model, club_index, 50.0)
        scorer = cross_entropy_scorer(model, club_index.stats, 50.0)
        expected = sorted(
            (
                (
                    doc_id,
                    ql + scorer.scores([club_index.doc(doc_id)])[0],
                )
                for doc_id, ql in candidates
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert ranked == expected

    def test_full_pipeline_order_matches_oracle_on_random_toys(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(50):
            instance = oracle.random_toy_instance(rng)
            index = instance_index(instance)
            session = instance_session(instance)
            params = instance_params(instance)
            mu = params.mu
            candidates = top_k_by_query_likelihood(session.current_query, index, mu, 2000)
            if not candidates:
                continue
            model, _ = build_session_model(session, params, index)
            mine = [doc_id for doc_id, _ in rerank(candidates, model, index, mu)]

            coll = oracle.build_collection(instance["docs"])
            ref_model = oracle.session_model(instance)
            scored = []
            for doc_id, _ in candidates:
                counts = instance["docs"][doc_id]
                length = coll["len"][doc_id]
                ql = oracle.query_ll(list(session.current_query.tokens), counts, length, coll, mu)
                ce = 0.0
                for term, p in ref_model.items():
                    if p <= 0.0:
                        continue
                    sp = oracle.dirichlet_prob(term, counts, length, coll, mu)
                    if sp <= 0.0:
                        ce = float("-inf")
                        break
                    ce += p * math.log(sp)
                scored.append((doc_id, ql + ce))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            assert mine == [doc_id for doc_id, _ in scored]
            checked += 1
        assert checked >= 40
