"""Query-change classification, pseudo information needs, feedback selection,
and session file parsing."""

import copy
import json
import math
import pickle
import re

import pytest

from sessionsearch.analysis import whitespace_analyze
from sessionsearch.index import build_index
from sessionsearch.session import (
    Click,
    FeedbackSource,
    SessionStep,
    classify_change,
    load_sessions,
    pseudo_info_need,
    select_feedback_docs,
)

from conftest import make_session, text


class TestClassifyChange:
    def test_first_query_is_all_added(self):
        change = classify_change(None, text("jazz", "club"))
        assert change.added == {"jazz", "club"}
        assert change.retained == frozenset()
        assert change.removed == frozenset()

    def test_partition(self):
        change = classify_change(text("jazz", "club"), text("jazz", "bar"))
        assert change.retained == {"jazz"}
        assert change.added == {"bar"}
        assert change.removed == {"club"}

    def test_multiplicity_ignored(self):
        change = classify_change(text("jazz", "jazz"), text("jazz"))
        assert change.retained == {"jazz"}
        assert change.added == frozenset()
        assert change.removed == frozenset()

    def test_empty_current_rejected(self):
        with pytest.raises(ValueError):
            classify_change(text("jazz"), text())

    def test_partition_property(self):
        import random

        rng = random.Random(2)
        vocab = [f"t{i}" for i in range(8)]
        for _ in range(100):
            prev = text(*rng.sample(vocab, rng.randint(1, 5)))
            cur = text(*rng.sample(vocab, rng.randint(1, 5)))
            change = classify_change(prev, cur)
            assert change.retained | change.added == set(cur.tokens)
            assert change.retained | change.removed == set(prev.tokens)
            assert not change.retained & change.added
            assert not change.retained & change.removed
            assert not change.added & change.removed


class TestPseudoInfoNeed:
    def test_concatenates_in_order(self):
        combined = pseudo_info_need([text("x"), text("x", "y"), text("x")])
        assert combined.tokens == ("x", "x", "y", "x")
        assert combined.counts()["x"] == 3

    def test_rejects_no_queries(self):
        with pytest.raises(ValueError):
            pseudo_info_need([])


@pytest.fixture
def feedback_index():
    return build_index(
        [("f1", "x x x"), ("f2", "x y"), ("f3", "y y"), ("f4", "z")],
        analyzer=whitespace_analyze,
    )


class TestSelectFeedbackDocs:
    def test_clicks_take_priority(self, feedback_index):
        session = make_session(
            [(["x"], ["f3", "f2", "f1"], ["f2"])],
            ["x", "y"],
        )
        feedback = select_feedback_docs(session, 2, 10, 10.0, feedback_index)
        assert feedback.source is FeedbackSource.CLICKS
        assert feedback.doc_ids == ("f2",)

    def test_click_union_ordered_dedup(self, feedback_index):
        session = make_session(
            [
                (["x"], ["f3", "f2"], ["f3", "f2"]),
                (["x", "y"], ["f2", "f1"], ["f2", "f1"]),
            ],
            ["y"],
        )
        feedback = select_feedback_docs(session, 3, 10, 10.0, feedback_index)
        assert feedback.doc_ids == ("f3", "f2", "f1")

    def test_current_step_clicks_not_visible_at_current_step(self, feedback_index):
        # At t = n only steps before the current one contribute; a two-step
        # session evaluated at t=1 sees step 1's own clicks (history replay).
        session = make_session(
            [(["x"], ["f1"], ["f1"]), (["y"], ["f3"], ["f3"])],
            ["x", "y"],
        )
        at_t1 = select_feedback_docs(session, 1, 10, 10.0, feedback_index)
        assert at_t1.doc_ids == ("f1",)
        at_n = select_feedback_docs(session, 3, 10, 10.0, feedback_index)
        assert at_n.doc_ids == ("f1", "f3")

    def test_pseudo_top_m_by_concatenated_query(self, feedback_index):
        session = make_session(
            [(["x"], ["f3", "f2", "f1", "f4"], [])],
            ["x", "y"],
        )
        feedback = select_feedback_docs(session, 2, 2, 10.0, feedback_index)
        assert feedback.source is FeedbackSource.PSEUDO
        assert feedback.doc_ids == ("f1", "f2")

    def test_pseudo_monotone_in_m(self, feedback_index):
        session = make_session(
            [(["x"], ["f3", "f2", "f1", "f4"], [])],
            ["x", "y"],
        )
        previous: tuple = ()
        for m in range(1, 5):
            feedback = select_feedback_docs(session, 2, m, 10.0, feedback_index)
            assert feedback.doc_ids[: len(previous)] == previous
            previous = feedback.doc_ids

    def test_no_impressions_yields_empty(self, feedback_index):
        session = make_session([(["x"], [], [])], ["x"])
        feedback = select_feedback_docs(session, 2, 5, 10.0, feedback_index)
        assert feedback.doc_ids == ()
        assert feedback.source is FeedbackSource.PSEUDO

    def test_unusable_docs_skipped(self):
        index = build_index(
            [("f1", "x"), ("empty", "")], analyzer=whitespace_analyze
        )
        session = make_session(
            [(["x"], ["ghost", "empty", "f1"], ["ghost", "empty", "f1"])],
            ["x"],
        )
        feedback = select_feedback_docs(session, 1, 5, 10.0, index)
        assert feedback.doc_ids == ("f1",)

    def test_step_out_of_range_rejected(self, feedback_index):
        session = make_session([(["x"], [], [])], ["x"])
        with pytest.raises(ValueError):
            select_feedback_docs(session, 3, 5, 10.0, feedback_index)
        with pytest.raises(ValueError):
            select_feedback_docs(session, 0, 5, 10.0, feedback_index)


class TestSessionStep:
    def test_duplicate_impressions_rejected(self):
        with pytest.raises(ValueError):
            SessionStep("q", text("q"), ("d1", "d1"), ())

    def test_click_outside_impressions_rejected(self):
        with pytest.raises(ValueError):
            SessionStep("q", text("q"), ("d1",), (Click("d2"),))


class TestQueriesUpTo:
    def test_includes_current_only_at_n(self):
        session = make_session(
            [(["a"], [], []), (["b"], [], [])],
            ["c"],
        )
        assert [q.tokens for q in session.queries_up_to(1)] == [("a",)]
        assert [q.tokens for q in session.queries_up_to(2)] == [("a",), ("b",)]
        assert [q.tokens for q in session.queries_up_to(3)] == [("a",), ("b",), ("c",)]
        with pytest.raises(ValueError):
            session.queries_up_to(4)


class TestSessionHash:
    def test_hash_is_the_field_hash_and_is_kept(self):
        session = make_session([(["a"], ["d1"], ["d1"])], ["b"])
        fields = (session.session_id, session.topic_id, session.history, session.current_raw,
                  session.current_query)
        assert hash(session) == hash(fields)
        assert vars(session)["_hash"] == hash(fields)
        twin = make_session([(["a"], ["d1"], ["d1"])], ["b"])
        assert twin == session and hash(twin) == hash(session)
        assert {session: 1}[twin] == 1

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda s: pickle.loads(pickle.dumps(s))])
    def test_a_kept_hash_is_not_copied_or_pickled(self, duplicate):
        # A str hash holds only in the process that made it.
        session = make_session([(["a"], ["d1"], ["d1"])], ["b"])
        hash(session)
        twin = duplicate(session)
        assert "_hash" not in vars(twin)
        assert twin == session and hash(twin) == hash(session)


class TestLoadSessions:
    def write(self, tmp_path, payload):
        path = tmp_path / "sessions.json"
        path.write_text(json.dumps(payload))
        return path

    def test_parses_full_session(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "sessions": [
                    {
                        "session_id": "s1",
                        "topic_id": "t9",
                        "steps": [
                            {
                                "query": "hawaii volcano",
                                "impressions": ["d2", "d1"],
                                "clicks": [{"doc": "d1", "dwell": 12.5}],
                            }
                        ],
                        "current_query": "volcano eruption",
                    }
                ]
            },
        )
        sessions = load_sessions(path)
        assert len(sessions) == 1
        session = sessions[0]
        assert session.session_id == "s1"
        assert session.topic_id == "t9"
        assert session.history[0].query.tokens == ("hawaii", "volcano")
        assert session.history[0].impressions == ("d2", "d1")
        assert session.history[0].clicks[0].doc_id == "d1"
        assert session.history[0].clicks[0].dwell == 12.5
        assert session.current_query.tokens == ("volcano", "erupt")

    def test_steps_optional(self, tmp_path):
        path = self.write(
            tmp_path,
            {"sessions": [{"session_id": "s1", "topic_id": "t1", "current_query": "jazz"}]},
        )
        assert load_sessions(path)[0].history == ()

    def test_error_names_session(self, tmp_path):
        path = self.write(
            tmp_path,
            {"sessions": [{"session_id": "bad-one", "topic_id": "t1"}]},
        )
        with pytest.raises(ValueError, match="bad-one"):
            load_sessions(path)

    def test_click_outside_impressions_reported(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "sessions": [
                    {
                        "session_id": "s1",
                        "topic_id": "t1",
                        "steps": [
                            {"query": "q", "impressions": ["d1"], "clicks": [{"doc": "d9"}]}
                        ],
                        "current_query": "q",
                    }
                ]
            },
        )
        with pytest.raises(ValueError, match="d9"):
            load_sessions(path)

    @pytest.mark.parametrize(
        "step, message",
        [
            ({"query": "q", "impressions": "d1"}, "impressions"),
            ({"query": "q", "impressions": ["d1", 7]}, "impressions"),
            ({"query": "q", "impressions": ["d1"], "clicks": [{"doc": ["d1"]}]}, "doc"),
            ({"query": 5}, "'query' must be a string"),
        ],
    )
    def test_malformed_impressions_and_clicks_rejected(self, tmp_path, step, message):
        path = self.write(
            tmp_path,
            {"sessions": [{"session_id": "s1", "topic_id": "t1", "steps": [step],
                           "current_query": "q"}]},
        )
        with pytest.raises(ValueError, match=message):
            load_sessions(path)

    @pytest.mark.parametrize(
        "step, message",
        [
            ({"query": "q", "impressions": ["d1"], "clicks": {}}, "'clicks' must be a list"),
            ({"query": "q", "impressions": ["d1"], "clicks": "d1"}, "'clicks' must be a list"),
        ]
        + [
            ({"query": "q", "impressions": ["d1"], "clicks": [{"doc": "d1", "dwell": dwell}]},
             "a click's 'dwell' must be a finite number >= 0, or null")
            for dwell in ["fast", "12", math.nan, math.inf, -math.inf, -3, -0.5, [1], {}, True,
                          False]
        ],
    )
    def test_malformed_clicks_and_dwell_rejected(self, tmp_path, step, message):
        path = self.write(
            tmp_path,
            {"sessions": [{"session_id": "s1", "topic_id": "t1", "steps": [step],
                           "current_query": "q"}]},
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: session 's1': {message}")):
            load_sessions(path)

    @pytest.mark.parametrize("steps", ["", "q", {}, {"query": "q"}, 0, True])
    def test_steps_must_be_a_list(self, tmp_path, steps):
        path = self.write(
            tmp_path,
            {"sessions": [{"session_id": "s1", "topic_id": "t1", "steps": steps,
                           "current_query": "q"}]},
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: session 's1': 'steps' must be a list")):
            load_sessions(path)

    @pytest.mark.parametrize("click", [{"doc": "d1"}, {"doc": "d1", "dwell": None},
                                       {"doc": "d1", "dwell": 0}, {"doc": "d1", "dwell": 3},
                                       {"doc": "d1", "dwell": 0.0}, {"doc": "d1", "dwell": 12.5},
                                       {"doc": "d1", "dwell": 10**400}])
    def test_valid_dwell_accepted(self, tmp_path, click):
        path = self.write(
            tmp_path,
            {"sessions": [{"session_id": "s1", "topic_id": "t1", "current_query": "q",
                           "steps": [{"query": "q", "impressions": ["d1"], "clicks": [click]}]}]},
        )
        assert load_sessions(path)[0].history[0].clicks == (Click("d1", click.get("dwell")),)

    def test_top_level_shape_enforced(self, tmp_path):
        path = tmp_path / "sessions.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_sessions(path)

    def test_custom_analyzer(self, tmp_path):
        path = self.write(
            tmp_path,
            {"sessions": [{"session_id": "s1", "topic_id": "t1", "current_query": "The Wall"}]},
        )
        raw = load_sessions(path, analyzer=whitespace_analyze)[0]
        # The default analyzer would have dropped the stopword "the".
        assert raw.current_query.tokens == ("the", "wall")
