"""Distributions, smoothing, scoring, similarity, and ranking primitives."""

import math
import random

import pytest

from conftest import doc_model, log_likelihood

from sessionsearch.analysis import AnalyzedText
from sessionsearch.index import build_index
from sessionsearch.analysis import whitespace_analyze
from sessionsearch.inputs import shown
from sessionsearch.lm import (
    NEG_INF,
    ZERO,
    LogLikelihoodScorer,
    TermDistribution,
    clip_distribution,
    cross_entropy_scorer,
    generalized_jaccard_sim,
    interpolate,
    kl_divergence,
    mix_doc_models,
    query_likelihood_doc_weights,
    query_mle,
    rank_documents,
    smoothed_prob,
    top_k_by_query_likelihood,
    top_ranked,
)


def q(*tokens):
    return AnalyzedText(tuple(tokens))


class TestTermDistribution:
    def test_from_weights_normalizes(self):
        dist = TermDistribution.from_weights({"a": 3.0, "b": 1.0})
        assert dist.get("a") == pytest.approx(0.75, abs=1e-15)
        assert dist.get("b") == pytest.approx(0.25, abs=1e-15)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_from_weights_drops_zeros(self):
        dist = TermDistribution.from_weights({"a": 1.0, "b": 0.0})
        assert sorted(dist.support()) == ["a"]

    def test_from_weights_rejects_negative(self):
        with pytest.raises(ValueError):
            TermDistribution.from_weights({"a": -0.5, "b": 1.5})

    def test_from_weights_names_the_first_negative_term_in_one_short_line(self):
        # A NaN ahead of the negative weight makes min() return the NaN.
        weights = {"n": math.nan, "a" * 200: -0.5, "b": -1.0, "c": 1.5}
        with pytest.raises(ValueError) as excinfo:
            TermDistribution.from_weights(weights)
        line = str(excinfo.value)
        assert "\n" not in line and len(line) <= 120
        assert line.startswith("negative weight for term 'aaa") and line.endswith(": -0.5")

    def test_from_weights_rejects_no_mass(self):
        with pytest.raises(ValueError):
            TermDistribution.from_weights({"a": 0.0})

    def test_zero_sentinel(self):
        assert ZERO.is_zero
        assert len(ZERO) == 0
        assert not TermDistribution.from_weights({"a": 1}).is_zero


class TestInterpolate:
    def test_hand_mixture(self):
        a = TermDistribution.from_weights({"x": 1.0})
        b = TermDistribution.from_weights({"x": 1.0, "y": 1.0})
        mixed = interpolate(0.6, a, 0.4, b)
        assert mixed.get("x") == pytest.approx(0.8, abs=1e-12)
        assert mixed.get("y") == pytest.approx(0.2, abs=1e-12)

    def test_zero_weight_returns_other_untouched(self):
        a = TermDistribution.from_weights({"x": 2.0, "y": 1.0})
        b = TermDistribution.from_weights({"z": 1.0})
        assert interpolate(0.0, a, 1.0, b) is b
        assert interpolate(1.0, a, 0.0, b) is a

    def test_mixture_sums_to_one(self):
        rng = random.Random(3)
        for _ in range(50):
            a = TermDistribution.from_weights(
                {f"t{i}": rng.random() + 0.01 for i in range(rng.randint(1, 6))}
            )
            b = TermDistribution.from_weights(
                {f"t{i}": rng.random() + 0.01 for i in range(rng.randint(1, 6))}
            )
            w = rng.random()
            assert interpolate(w, a, 1.0 - w, b).total() == pytest.approx(1.0, abs=1e-12)


class TestClip:
    def test_clip_keeps_top_terms(self):
        dist = TermDistribution.from_weights({"a": 5.0, "b": 3.0, "c": 1.0, "d": 1.0})
        clipped = clip_distribution(dist, 2)
        assert sorted(clipped.support()) == ["a", "b"]
        assert clipped.total() == pytest.approx(1.0, abs=1e-12)
        assert clipped.get("a") == pytest.approx(5 / 8, abs=1e-12)

    def test_clip_tie_breaks_lexicographically(self):
        dist = TermDistribution.from_weights({"b": 1.0, "a": 1.0, "c": 1.0, "d": 2.0})
        clipped = clip_distribution(dist, 2)
        assert sorted(clipped.support()) == ["a", "d"]

    def test_clip_noop_under_limit(self):
        dist = TermDistribution.from_weights({"a": 1.0, "b": 1.0})
        assert clip_distribution(dist, 100) is dist

    def test_clip_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clip_distribution(TermDistribution.from_weights({"a": 1}), 0)


class TestMle:
    def test_query_mle(self):
        dist = query_mle(q("x", "y", "x"))
        assert dist.get("x") == pytest.approx(2 / 3, abs=1e-15)
        assert dist.get("y") == pytest.approx(1 / 3, abs=1e-15)

    def test_query_mle_rejects_empty(self):
        with pytest.raises(ValueError):
            query_mle(q())

    def test_doc_mle(self, tiny_index):
        dist = mix_doc_models({"d1": 1.0}, tiny_index)
        assert dist.get("a") == pytest.approx(2 / 3, abs=1e-15)
        assert dist.get("b") == pytest.approx(1 / 3, abs=1e-15)


class TestSmoothedProb:
    def test_spot_value(self, spot_doc):
        doc, stats = spot_doc
        assert smoothed_prob("x", doc, stats, 2500.0) == pytest.approx(
            2.5 / 2510, abs=1e-15
        )

    def test_unsmoothed(self, tiny_index):
        doc = tiny_index.doc("d1")
        assert smoothed_prob("a", doc, tiny_index.stats, 0.0) == pytest.approx(2 / 3)
        assert smoothed_prob("c", doc, tiny_index.stats, 0.0) == 0.0

    def test_smoothing_lifts_absent_term(self, tiny_index):
        doc = tiny_index.doc("d1")
        # "c" is absent from d1 but present in the collection.
        assert smoothed_prob("c", doc, tiny_index.stats, 100.0) > 0.0

    def test_unknown_term_gets_zero(self, tiny_index):
        doc = tiny_index.doc("d1")
        assert smoothed_prob("zzz", doc, tiny_index.stats, 2500.0) == 0.0

    def test_vocabulary_sums_to_one(self, tiny_index):
        for doc_id in tiny_index.doc_table:
            doc = tiny_index.doc(doc_id)
            for mu in (0.0, 10.0, 2500.0):
                total = math.fsum(
                    smoothed_prob(t, doc, tiny_index.stats, mu)
                    for t in tiny_index.stats.collection_tf
                )
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_doc_with_zero_mu_rejected(self):
        index = build_index([("d1", "a"), ("d2", "")], analyzer=whitespace_analyze)
        with pytest.raises(ValueError):
            smoothed_prob("a", index.doc("d2"), index.stats, 0.0)

    @pytest.mark.parametrize("mu, message", [
        (5e-324, "mu=5e-324 is too small: mu * P('a'|C) is 0.0"),
        (1.7e308, "mu=1.7e+308 is too large: mu * P('a'|C) is inf"),
    ])
    def test_mu_whose_background_mass_is_0_or_inf_rejected(self, tiny_index, mu, message):
        doc = tiny_index.doc("d1")
        with pytest.raises(ValueError) as raised:
            smoothed_prob("a", doc, tiny_index.stats, mu)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            log_likelihood(q("a"), doc, tiny_index.stats, mu)
        assert str(raised.value) == message


class TestQueryLogLikelihood:
    def test_hand_value(self, tiny_index):
        doc = tiny_index.doc("d1")
        got = log_likelihood(q("a", "b", "a"), doc, tiny_index.stats, 0.0)
        assert got == pytest.approx(2 * math.log(2 / 3) + math.log(1 / 3), abs=1e-12)

    def test_order_invariant(self, tiny_index):
        doc = tiny_index.doc("d1")
        forward = log_likelihood(q("a", "b", "a"), doc, tiny_index.stats, 50.0)
        shuffled = log_likelihood(q("b", "a", "a"), doc, tiny_index.stats, 50.0)
        assert forward == pytest.approx(shuffled, abs=1e-12)

    def test_unknown_term_gives_neg_inf(self, tiny_index):
        doc = tiny_index.doc("d1")
        assert log_likelihood(q("zzz"), doc, tiny_index.stats, 2500.0) == NEG_INF

    def test_empty_query_scores_zero(self, tiny_index):
        assert log_likelihood(q(), tiny_index.doc("d1"), tiny_index.stats, 10.0) == 0.0


class TestKlDivergence:
    def test_identical_is_zero(self):
        dist = TermDistribution.from_weights({"a": 1.0, "b": 3.0})
        assert kl_divergence(dist, dist) == 0.0

    def test_hand_ln2(self):
        p = TermDistribution.from_weights({"a": 1.0})
        half = TermDistribution.from_weights({"a": 1.0, "b": 1.0})
        assert kl_divergence(p, half) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_missing_support_is_inf(self):
        p = TermDistribution.from_weights({"a": 1.0, "b": 1.0})
        narrow = TermDistribution.from_weights({"a": 1.0})
        assert kl_divergence(p, narrow) == math.inf

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(ZERO, TermDistribution.from_weights({"a": 1}))

    def test_non_negative_on_random_pairs(self):
        rng = random.Random(11)
        terms = [f"t{i}" for i in range(6)]
        for _ in range(100):
            support = rng.sample(terms, rng.randint(1, 6))
            p = TermDistribution.from_weights({t: rng.random() + 0.01 for t in support})
            wider = TermDistribution.from_weights({t: rng.random() + 0.01 for t in terms})
            assert kl_divergence(p, wider) >= 0.0


class TestCrossEntropyScore:
    def test_hand_value(self, tiny_index):
        # d1: tf(a)=2, tf(b)=1, len 3; mu=5: p(a)=(2+5*0.4)/8, p(b)=(1+5*0.4)/8.
        model = TermDistribution.from_weights({"a": 1.0, "b": 1.0})
        got = cross_entropy_scorer(model, tiny_index.stats, 5.0).scores([tiny_index.doc("d1")])[0]
        expected = 0.5 * math.log(4 / 8) + 0.5 * math.log(3 / 8)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_unknown_model_term_gives_neg_inf(self, tiny_index):
        model = TermDistribution.from_weights({"zzz": 1.0})
        scorer = cross_entropy_scorer(model, tiny_index.stats, 5.0)
        assert scorer.scores([tiny_index.doc("d1")]) == [NEG_INF]

    def test_rejects_zero_model_and_bad_mu(self, tiny_index):
        with pytest.raises(ValueError):
            cross_entropy_scorer(ZERO, tiny_index.stats, 5.0)
        model = TermDistribution.from_weights({"a": 1.0})
        with pytest.raises(ValueError):
            cross_entropy_scorer(model, tiny_index.stats, 0.0)


class TestGeneralizedJaccard:
    def test_one_third_from_multiplicity(self, tiny_index):
        # One shared term with counts 1 vs 3: min/max = 1/3 regardless of idf.
        assert generalized_jaccard_sim(q("a"), q("a", "a", "a"), tiny_index) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_identical_queries_score_exactly_one(self, tiny_index):
        assert generalized_jaccard_sim(q("a", "b"), q("b", "a"), tiny_index) == 1.0

    def test_disjoint_queries_score_zero(self, tiny_index):
        assert generalized_jaccard_sim(q("a"), q("c"), tiny_index) == 0.0

    def test_symmetric_and_bounded(self, club_index):
        rng = random.Random(5)
        vocab = list(club_index.stats.collection_tf) + ["offvocab"]
        for _ in range(100):
            qa = q(*(rng.choice(vocab) for _ in range(rng.randint(1, 4))))
            qb = q(*(rng.choice(vocab) for _ in range(rng.randint(1, 4))))
            ab = generalized_jaccard_sim(qa, qb, club_index)
            ba = generalized_jaccard_sim(qb, qa, club_index)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_idf_boost_favors_rare_overlap(self, club_index):
        # Sharing the rare term "downtown" beats sharing the common "club"
        # when the queries are otherwise equally dissimilar.
        rare = generalized_jaccard_sim(q("downtown", "gym"), q("downtown", "shop"), club_index)
        common = generalized_jaccard_sim(q("club", "gym"), q("club", "shop"), club_index)
        assert rare > common

    def test_both_empty_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            generalized_jaccard_sim(q(), q(), tiny_index)


class TestRetrieval:
    def test_ranks_matching_docs(self, club_index):
        ranked = top_k_by_query_likelihood(q("jazz"), club_index, 100.0, 10)
        doc_ids = [doc_id for doc_id, _ in ranked]
        assert doc_ids[0] == "d1"  # two of six tokens are "jazz"
        assert set(doc_ids) == {"d1", "d3"}

    def test_scores_descending_with_id_tiebreak(self, club_index):
        ranked = top_k_by_query_likelihood(q("club"), club_index, 2500.0, 10)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        for (id_a, score_a), (id_b, score_b) in zip(ranked, ranked[1:]):
            if score_a == score_b:
                assert id_a < id_b

    def test_k_truncates(self, club_index):
        assert len(top_k_by_query_likelihood(q("club"), club_index, 2500.0, 2)) == 2

    def test_unknown_terms_ignored(self, club_index):
        with_noise = top_k_by_query_likelihood(q("jazz", "zzz"), club_index, 100.0, 10)
        clean = top_k_by_query_likelihood(q("jazz"), club_index, 100.0, 10)
        assert with_noise == clean
        assert top_k_by_query_likelihood(q("zzz"), club_index, 100.0, 10) == []


class TestDocWeights:
    def test_sums_to_one_and_prefers_matching(self, club_index):
        weights = query_likelihood_doc_weights(q("jazz"), ["d1", "d2", "d3"], club_index, 100.0)
        assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert weights["d1"] > weights["d3"] > weights["d2"]

    def test_uniform_fallback(self, club_index):
        weights = query_likelihood_doc_weights(q("zzz"), ["d1", "d2"], club_index, 100.0)
        assert weights == {"d1": 0.5, "d2": 0.5}

    def test_empty_doc_set_rejected(self, club_index):
        with pytest.raises(ValueError):
            query_likelihood_doc_weights(q("jazz"), [], club_index, 100.0)


def test_rank_documents_orders_and_breaks_ties():
    ranked = rank_documents([("b", 1.0), ("c", 2.0), ("a", 1.0)])
    assert ranked == [("c", 2.0), ("a", 1.0), ("b", 1.0)]


class TestTopRanked:
    def test_ties_straddling_the_cut_are_broken_by_term(self):
        # Four terms tie at the 3rd-highest probability: a cut at 3 keeps
        # one of them and a cut at 4 two, the lowest by term.
        dist = TermDistribution({"z": 0.3, "d": 0.1, "b": 0.1, "e": 0.1, "c": 0.1, "a": 0.25,
                                 "f": 0.05})
        assert top_ranked(dist, 3) == [("z", 0.3), ("a", 0.25), ("b", 0.1)]
        assert top_ranked(dist, 4) == [("z", 0.3), ("a", 0.25), ("b", 0.1), ("c", 0.1)]
        for k in range(1, 9):
            assert top_ranked(dist, k) == rank_documents(dist.items())[:k]

    def test_k_or_fewer_terms_are_all_ranked(self):
        dist = TermDistribution({"b": 0.25, "c": 0.5, "a": 0.25})
        expected = [("c", 0.5), ("a", 0.25), ("b", 0.25)]
        assert top_ranked(dist, 3) == expected
        assert top_ranked(dist, 10) == expected

    def test_equals_the_full_ranking_on_random_distributions(self):
        rng = random.Random(3)
        for _ in range(200):
            weights = {f"t{i}": float(rng.randint(1, 4)) for i in range(rng.randint(1, 30))}
            dist = TermDistribution.from_weights(weights)
            k = rng.randint(1, 12)
            assert top_ranked(dist, k) == rank_documents(dist.items())[:k]


def test_mix_doc_models_single_doc(club_index):
    mixed = mix_doc_models({"d3": 1.0}, club_index)
    reference = doc_model(club_index.doc("d3"))
    assert sorted(mixed.support()) == sorted(reference.support())
    for term, p in reference.items():
        assert mixed.get(term) == pytest.approx(p, abs=1e-12)


def test_mix_doc_models_skips_zero_weight(club_index):
    mixed = mix_doc_models({"d3": 1.0, "d5": 0.0}, club_index)
    assert "climbing" not in mixed.support()


def test_a_long_doc_id_is_cut_in_each_empty_document_line():
    # Each path that meets an empty document names it through shown, so a
    # 200-character id leaves one line of at most 120 characters.
    doc_id = "e" * 200
    index = build_index([("d1", "a"), (doc_id, "")], analyzer=whitespace_analyze)
    doc = index.doc(doc_id)
    scorer = LogLikelihoodScorer([("a", 1.0)], index.stats, 0.0)
    calls = [
        lambda: smoothed_prob("a", doc, index.stats, 0.0),
        lambda: scorer.scores([doc]),
        lambda: scorer.term_at_a_time(index, [doc_id]),
        lambda: mix_doc_models({doc_id: 1.0}, index),
    ]
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        message = str(raised.value)
        assert shown(doc_id) in message
        assert "\n" not in message and len(message) <= 120
