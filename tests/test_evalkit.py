"""Metrics, qrels and run-file IO, report assembly, and grid tuning."""

import math
import random
import tracemalloc

import pytest

from conftest import make_session

from sessionsearch import evalkit
from sessionsearch.evalkit import (
    MAX_GRADE,
    Qrels,
    average_precision,
    build_report,
    grid_tune,
    mrr,
    ndcg_at_k,
    nerr_at_k,
    parse_run_file,
    session_metrics,
    write_run_file,
)
from sessionsearch.inputs import shown
from sessionsearch.pipeline import RunConfig

# Independent hand computation for the nDCG spot check: grades in rank
# order are [1, 0, 2] while the ideal ordering is [2, 1]. DCG is
# 1/log2(2) + 3/log2(4) = 2.5 and IDCG is 3 + 1/log2(3).
HAND_GRADES = {"a": 1, "b": 0, "c": 2}
HAND_RANKING = ["a", "b", "c"]
HAND_IDCG = 3.0 + 1.0 / math.log2(3.0)
HAND_NDCG = 2.5 / HAND_IDCG


def random_case(rng):
    docs = [f"d{i}" for i in range(8)]
    grades = {d: rng.randint(0, 3) for d in rng.sample(docs, rng.randint(0, 8))}
    ranking = rng.sample(docs, rng.randint(1, 8))
    return ranking, grades


class TestNdcg:
    def test_ideal_ordering_scores_one(self):
        grades = {"a": 3, "b": 2, "c": 1}
        assert ndcg_at_k(["a", "b", "c"], grades, 10) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_spot_value(self):
        got = ndcg_at_k(HAND_RANKING, HAND_GRADES, 3)
        assert got == pytest.approx(HAND_NDCG, abs=1e-12)
        assert got == pytest.approx(0.68853, abs=1e-5)

    def test_no_relevant_docs_scores_zero(self):
        assert ndcg_at_k(["a", "b"], {"a": 0, "b": 0}, 10) == 0.0
        assert ndcg_at_k(["a", "b"], {}, 10) == 0.0

    def test_unjudged_docs_count_as_grade_zero(self):
        grades = {"a": 2}
        with_unjudged = ndcg_at_k(["x", "a"], grades, 10)
        assert with_unjudged == pytest.approx(3.0 / math.log2(3.0) / 3.0, abs=1e-12)

    def test_ideal_is_truncated_at_k(self):
        # Two relevant docs but k=1: a perfect first result is already ideal.
        grades = {"a": 2, "b": 1}
        assert ndcg_at_k(["a", "b"], grades, 1) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 1}, 0)

    def test_unnormalized_gain_non_decreasing_in_k(self):
        # nDCG itself can dip when a new rank enlarges the truncated ideal,
        # so the monotone quantity is DCG@k. Recover it by multiplying the
        # score by an independently computed ideal at the same depth.
        rng = random.Random(31)
        for _ in range(100):
            ranking, grades = random_case(rng)
            ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
            if not ideal:
                continue
            values = []
            for k in range(1, 10):
                idcg = sum(
                    (2.0**g - 1.0) / math.log2(r + 1)
                    for r, g in enumerate(ideal[:k], start=1)
                )
                values.append(ndcg_at_k(ranking, grades, k) * idcg)
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12

    def test_demoting_a_better_doc_never_helps(self):
        rng = random.Random(32)
        for _ in range(100):
            ranking, grades = random_case(rng)
            if len(ranking) < 2:
                continue
            i, j = sorted(rng.sample(range(len(ranking)), 2))
            gi = grades.get(ranking[i], 0)
            gj = grades.get(ranking[j], 0)
            if gi >= gj:
                continue
            # ranking[i] is worse than ranking[j]; swapping them promotes
            # the better doc, so the score must not decrease.
            swapped = list(ranking)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert ndcg_at_k(swapped, grades, 8) >= ndcg_at_k(ranking, grades, 8) - 1e-12


class TestNerr:
    def test_single_relevant_at_rank_one(self):
        assert nerr_at_k(["a", "b"], {"a": 3}, 10, 3) == pytest.approx(1.0, abs=1e-12)

    def test_single_relevant_at_rank_two_halves(self):
        # One relevant doc: both ERR and ideal ERR are the same stop
        # probability, up to the 1/rank factor, so the ratio is exactly 1/2.
        assert nerr_at_k(["x", "a"], {"a": 2}, 10, 2) == pytest.approx(0.5, abs=1e-12)

    def test_all_grades_zero_scores_zero(self):
        assert nerr_at_k(["a", "b"], {"a": 0}, 10, 3) == 0.0

    def test_gmax_below_highest_grade_rejected(self):
        with pytest.raises(ValueError):
            nerr_at_k(["a"], {"a": 3}, 10, 2)

    def test_bounded_on_random_cases(self):
        rng = random.Random(33)
        for _ in range(100):
            ranking, grades = random_case(rng)
            value = nerr_at_k(ranking, grades, 5, 3)
            assert 0.0 <= value <= 1.0 + 1e-12


class TestMrr:
    def test_first_relevant_at_rank_three(self):
        assert mrr(["x", "y", "a"], {"a": 1}) == pytest.approx(1 / 3, abs=1e-12)

    def test_relevant_at_rank_one(self):
        assert mrr(["a", "x"], {"a": 2}) == 1.0

    def test_no_relevant_ranked(self):
        assert mrr(["x", "y"], {"a": 1}) == 0.0


class TestAveragePrecision:
    def test_all_relevant_on_top(self):
        grades = {"a": 1, "b": 2}
        assert average_precision(["a", "b", "x"], grades) == pytest.approx(1.0, abs=1e-12)

    def test_single_relevant_at_rank_two(self):
        assert average_precision(["x", "a"], {"a": 1}) == pytest.approx(0.5, abs=1e-12)

    def test_no_relevant_retrieved(self):
        assert average_precision(["x", "y"], {}) == 0.0

    def test_unretrieved_relevant_still_divides(self):
        # Two judged relevant, only one retrieved at rank 1: AP = 1/2.
        grades = {"a": 1, "b": 1}
        assert average_precision(["a", "x"], grades) == pytest.approx(0.5, abs=1e-12)


class TestQrels:
    def test_parse_and_clamp(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text(
            "t1 0 d1 2\n"
            "t1 0 d2 -2\n"
            "\n"
            "t2 0 d1 1\n",
            encoding="utf-8",
        )
        qrels = Qrels.from_trec_file(path)
        assert qrels.for_topic("t1") == {"d1": 2, "d2": 0}
        assert qrels.for_topic("t2") == {"d1": 1}
        assert qrels.max_grade() == 2

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 d1 2\nt1 d2 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            Qrels.from_trec_file(path)

    def test_non_integer_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 d1 high\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            Qrels.from_trec_file(path)

    @pytest.mark.parametrize("grade", ["1_0", "\uff11", "1.0", "2e1", "0x1",
                                       pytest.param("1" + "0" * 5000, id="5001-digits")])
    def test_grade_not_an_ascii_integer_rejected_naming_line(self, tmp_path, grade):
        # int() reads "1_0" as 10 and the fullwidth digit as 1, and refuses
        # more than 4,300 digits.
        path = tmp_path / "qrels.txt"
        path.write_text(f"t1 0 d1 1\nt1 0 d2 {grade}\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            Qrels.from_trec_file(path)
        assert str(raised.value) == f"{path}: line 2: grade {shown(grade)} is not an integer"

    def test_signed_ascii_grades_accepted(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 d1 +2\nt1 0 d2 -1\nt1 0 d3 01\n", encoding="utf-8")
        assert Qrels.from_trec_file(path).for_topic("t1") == {"d1": 2, "d2": 0, "d3": 1}

    def test_grade_above_bound_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text(f"t1 0 d1 {MAX_GRADE}\nt1 0 d2 {MAX_GRADE + 1}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"qrels\.txt: line 2"):
            Qrels.from_trec_file(path)
        # At the bound itself every metric stays finite.
        grades = {f"d{i}": MAX_GRADE for i in range(3)}
        ranking = ["d2", "x", "d0"]
        assert math.isfinite(ndcg_at_k(ranking, grades, 10))
        assert math.isfinite(nerr_at_k(ranking, grades, 10, MAX_GRADE))

    def test_conflicting_grades_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 d1 2\nt1 0 d2 1\nt2 0 d1 1\nt1 0 d1 0\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            Qrels.from_trec_file(path)
        message = str(raised.value)
        assert message.startswith(f"{path}: line 4:"), message
        assert "line 1" in message and "'t1'" in message and "'d1'" in message

    def test_repeated_identical_judgment_accepted(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 d1 2\nt1 0 d2 1\nt1 0 d1 2\n", encoding="utf-8")
        assert Qrels.from_trec_file(path).for_topic("t1") == {"d1": 2, "d2": 1}

    def test_unknown_topic_rejected(self):
        qrels = Qrels({"t1": {"d1": 1}})
        with pytest.raises(ValueError, match="t9"):
            qrels.for_topic("t9")


class TestRunFiles:
    def test_round_trip_preserves_scores_exactly(self, tmp_path):
        path = tmp_path / "run.txt"
        rankings = {
            "s1": [("d1", -1.2345678901234567), ("d2", -2.5)],
            "s2": [("d3", 0.1 + 0.2)],
        }
        write_run_file(path, rankings, "tag")
        parsed = parse_run_file(path)
        assert parsed == {key: list(val) for key, val in rankings.items()}

    def test_six_column_format(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run_file(path, {"s1": [("d1", -1.5)]}, "mytag")
        assert path.read_text(encoding="utf-8") == "s1 Q0 d1 1 -1.5 mytag\n"

    def test_rank_column_orders_shuffled_lines(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(
            "s1 Q0 d2 2 -2.0 t\ns1 Q0 d1 1 -1.0 t\n", encoding="utf-8"
        )
        assert parse_run_file(path)["s1"] == [("d1", -1.0), ("d2", -2.0)]

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(
            "s1 Q0 d1 1 -1.0 t\ns1 Q0 d1 2 -2.0 t\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="duplicate doc"):
            parse_run_file(path)

    def test_duplicate_doc_names_key_and_both_lines(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(
            "s1 Q0 d1 1 -1.0 t\ns2 Q0 d1 1 -1.0 t\ns1 Q0 d1 3 -2.0 t\n", encoding="utf-8"
        )
        with pytest.raises(ValueError) as excinfo:
            parse_run_file(path)
        assert str(excinfo.value) == (
            f"{path}: line 3: duplicate doc 'd1' under key 's1' (first on line 1)"
        )

    def test_repeated_rank_rejected_naming_key_and_both_lines(self, tmp_path):
        # Two docs at rank 1 leave their order undefined; file order must
        # not decide it.
        path = tmp_path / "run.txt"
        path.write_text(
            "s1 Q0 d1 1 -1.0 t\ns2 Q0 d9 1 -1.0 t\ns1 Q0 d2 1 -1.0 t\n", encoding="utf-8"
        )
        with pytest.raises(ValueError) as excinfo:
            parse_run_file(path)
        assert str(excinfo.value) == (
            f"{path}: line 3: repeated rank 1 under key 's1' (first on line 1)"
        )

    def test_same_rank_under_different_keys_accepted(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(
            "s1 Q0 d1 1 -1.0 t\ns2 Q0 d1 1 -3.0 t\ns1 Q0 d2 2 -2.0 t\n", encoding="utf-8"
        )
        assert parse_run_file(path) == {"s1": [("d1", -1.0), ("d2", -2.0)],
                                        "s2": [("d1", -3.0)]}

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("s1 Q0 d1 1 -1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            parse_run_file(path)

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("s1 Q0 d1 one -1.0 t\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            parse_run_file(path)

    @pytest.mark.parametrize("rank", ["0", "-3", "+1", "1_0", "\uff11", "1.0",
                                      pytest.param("1" + "0" * 5000, id="5001-digits")])
    def test_rank_not_a_positive_ascii_integer_rejected_naming_line(self, tmp_path, rank):
        path = tmp_path / "run.txt"
        path.write_text(f"s1 Q0 d1 1 -1.0 t\ns1 Q0 d2 {rank} -2.0 t\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            parse_run_file(path)
        assert str(excinfo.value) == f"{path}: line 2: rank {shown(rank)} is not a positive integer"

    def test_infinite_score_accepted(self, tmp_path):
        # run writes -inf for a candidate a model term rules out.
        path = tmp_path / "run.txt"
        path.write_text("s1 Q0 d1 1 -1.0 t\ns1 Q0 d2 2 -inf t\n", encoding="utf-8")
        assert parse_run_file(path) == {"s1": [("d1", -1.0), ("d2", float("-inf"))]}

    def test_empty_rankings_write_empty_file(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run_file(path, {}, "t")
        assert path.read_text(encoding="utf-8") == ""
        assert parse_run_file(path) == {}


def guard_rankings():
    """100 keys of 1,000 lines each: a run file about the size of the bench's."""
    return {f"s{key:03}": [(f"doc-{(key * 7919 + rank) % 100000:06}", -1.0 - rank / 997)
                           for rank in range(1000)] for key in range(100)}


def traced(call):
    """call()'s result, the traced memory it kept and its traced peak, both
    above what was held before it ran."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        kept, peak = (size - held for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, kept, peak


class TestRunFileMemory:
    """The writer builds no copy of the whole file, and the parser's peak
    stays under twice the rankings it returns (the whole-file versions in
    tests/run_file_reference.py peak at about 19 MB and 3.6 times)."""

    def test_write_peak_stays_under_one_megabyte(self, tmp_path):
        path, rankings = tmp_path / "run.txt", guard_rankings()
        _, _, peak = traced(lambda: write_run_file(path, rankings, "t"))
        assert peak < 1_000_000

    def test_parse_peak_stays_under_twice_what_it_returns(self, tmp_path):
        path, rankings = tmp_path / "run.txt", guard_rankings()
        write_run_file(path, rankings, "t")
        del rankings
        parsed, kept, peak = traced(lambda: parse_run_file(path))
        assert parsed == guard_rankings()
        assert peak < 2 * kept


class TestReport:
    def test_session_metric_bundle(self):
        metrics = session_metrics(HAND_RANKING, HAND_GRADES, 10, 2000, 2)
        assert set(metrics) == {"ndcg@10", "ndcg", "nerr@10", "mrr", "map"}
        assert metrics["ndcg@10"] == pytest.approx(HAND_NDCG, abs=1e-12)
        assert metrics["mrr"] == 1.0
        for value in metrics.values():
            assert 0.0 <= value <= 1.0

    def test_mean_averages_each_metric(self):
        per_session = {
            "s1": {"mrr": 1.0, "map": 0.5},
            "s2": {"mrr": 0.5, "map": 0.25},
        }
        report = build_report(per_session, ["s3"], {"k": 10}, {"tag": "x"})
        assert report["mean"] == {"mrr": 0.75, "map": 0.375}
        assert report["skipped"] == ["s3"]
        assert report["config"] == {"k": 10}
        assert report["metadata"] == {"tag": "x"}
        assert report["per_session"]["s2"]["map"] == 0.25

    def test_empty_per_session_gives_empty_mean(self):
        report = build_report({}, [], {}, {})
        assert report["mean"] == {}
        assert report["per_session"] == {}


def ranking_fn(relevant_first):
    docs = ["rel", "junk"] if relevant_first else ["junk", "rel"]
    return [(doc, -float(rank)) for rank, doc in enumerate(docs, start=1)]


class TestGridTune:
    QRELS = Qrels({"t1": {"rel": 1}})

    def sessions(self):
        return [make_session([], ["q"], session_id="s1", topic_id="t1")]

    def test_single_point_grid_returns_that_point(self):
        def score(session, index, config):
            return ranking_fn(True)

        best, table = grid_tune(
            self.sessions(), self.QRELS, None, RunConfig(), {"lam": [0.3]}, score
        )
        assert best.lam == 0.3
        assert table == [{"params": {"lam": 0.3}, "map": 1.0}]

    def test_dominant_point_wins(self):
        def score(session, index, config):
            return ranking_fn(config.lam == 0.7)

        best, table = grid_tune(
            self.sessions(), self.QRELS, None, RunConfig(), {"lam": [0.3, 0.5, 0.7]}, score
        )
        assert best.lam == 0.7
        assert max(row["map"] for row in table) == 1.0

    def test_ties_resolve_to_smallest_m_then_lam_then_gamma(self):
        def score(session, index, config):
            return ranking_fn(True)

        grids = {"m": [10, 5], "lam": [0.5, 0.1], "gamma": [0.9, 0.3]}
        best, table = grid_tune(
            self.sessions(), self.QRELS, None, RunConfig(), grids, score
        )
        assert (best.m, best.lam, best.gamma) == (5, 0.1, 0.3)
        assert len(table) == 8

    def test_visits_points_in_sorted_order(self):
        def score(session, index, config):
            return ranking_fn(True)

        _, table = grid_tune(
            self.sessions(), self.QRELS, None, RunConfig(), {"m": [20, 5, 10]}, score
        )
        assert [row["params"]["m"] for row in table] == [5, 10, 20]

    def test_reproducible_run_to_run(self):
        def score(session, index, config):
            return ranking_fn(config.m >= 10)

        grids = {"m": [5, 10], "lam": [0.1, 0.9]}
        first = grid_tune(self.sessions(), self.QRELS, None, RunConfig(), grids, score)
        second = grid_tune(self.sessions(), self.QRELS, None, RunConfig(), grids, score)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_tune(self.sessions(), self.QRELS, None, RunConfig(), {}, ranking_fn)
        with pytest.raises(ValueError):
            grid_tune(
                self.sessions(), self.QRELS, None, RunConfig(), {"lam": []}, ranking_fn
            )

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            grid_tune(
                self.sessions(), self.QRELS, None, RunConfig(), {"depth": [10]}, ranking_fn
            )

    def test_long_unknown_parameter_names_are_cut_to_one_short_line(self):
        grids = {letter * 50: [10] for letter in "wxyz"}
        with pytest.raises(ValueError) as raised:
            grid_tune(self.sessions(), self.QRELS, None, RunConfig(), grids, ranking_fn)
        cut = ", ".join(shown(letter * 50, 20) for letter in "wxy")
        assert str(raised.value) == f"cannot tune over unknown parameters: 4 ({cut}, …)"
        assert len(str(raised.value)) <= 120

    def test_a_list_returned_again_is_scored_once_per_session(self, monkeypatch):
        # One list is returned at lam 0.3 and 0.7 in both sessions, whose
        # grades differ; lam 0.5 returns a fresh list equal to it, lam 0.6
        # a fresh reversed one.
        scored = []

        def spy(ranking, grades):
            scored.append(ranking)
            return real_ap(ranking, grades)

        real_ap = evalkit.average_precision
        monkeypatch.setattr(evalkit, "average_precision", spy)
        kept = ranking_fn(True)

        def score(session, index, config):
            if config.lam == 0.5:
                return ranking_fn(True)
            if config.lam == 0.6:
                return ranking_fn(False)
            return kept

        sessions = [
            make_session([], ["q"], session_id="s1", topic_id="t1"),
            make_session([], ["q"], session_id="s2", topic_id="t2"),
        ]
        # AP of ["rel", "junk"]: 1.0 for t1, 0.25 for t2; reversed: 0.5 and 0.5.
        qrels = Qrels({"t1": {"rel": 1}, "t2": {"junk": 1, "other": 1}})
        _, table = grid_tune(
            sessions, qrels, None, RunConfig(), {"lam": [0.3, 0.5, 0.6, 0.7]}, score
        )
        assert [row["map"] for row in table] == [0.625, 0.625, 0.5, 0.625]
        assert scored == [["rel", "junk"], ["rel", "junk"], ["junk", "rel"]] * 2

    @pytest.mark.parametrize("grids, named", [
        ({"lam": [0.3, 0.3]}, "'lam' grid: duplicate grid value 0.3"),
        ({"m": [5], "clip_terms": [10, 20, 10.0]}, "'clip_terms' grid: duplicate grid value 10"),
    ])
    def test_repeated_grid_value_rejected_before_scoring(self, grids, named):
        scored = []

        def score(session, index, config):
            scored.append(config)
            return ranking_fn(True)

        with pytest.raises(ValueError, match=named):
            grid_tune(self.sessions(), self.QRELS, None, RunConfig(), grids, score)
        assert scored == []
