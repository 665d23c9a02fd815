"""Differential test: every method's ranking against brute force.

Hypothesis draws small corpora and sessions. Each method's ranking from
score_session_full (the path behind score_session, which also returns the
model) is compared with scores rebuilt from the tests/oracle.py
primitives alone: query_ll for the first pass and query aggregation,
session_model for SRM-QC and SRM-RM1, and rm1_feedback_model plus an
interpolate-and-clip written here for RM3-QN and RM3-Q'. Required:

- every score agrees with brute force within 1e-9 relative to the larger
  of 1 and its magnitude (-inf exactly);
- the order follows the brute-force scores, except between scores within
  that tolerance of each other;
- structural ties (same length, same sorted (weight, tf, cf) over the
  matched terms of every scored query or model) score bit-equal and are
  ranked in doc_id order.

A cut that selects documents or terms (feedback top-m, clipping) is
ill-defined between two candidates within the tolerance, so examples with
such a near-tie at a cut are skipped.

A second test tunes each method over random grids twice, scoring with
plain score_session and with pipeline.StagedScorer, which reuses a
session's stages across grid points; the two must agree bit for bit.

A third scores one session at random lambda, gamma, clip and m points
under one shared Stages, as tune does, so the rerank reuses the
candidates' term matching and its rankings; each ranking must equal the
direct srm.rerank of the same candidates and model bit for bit, and a
model with a word the corpus lacks must leave every candidate at -inf. A
model that adds a word no earlier model held (FOREIGN, and a corpus term,
from a non-candidate document when there is one) must also rerank through
the kept matching bit for bit as directly. Its explicit examples hold twin
documents (one text under two ids), which tie and must stay in doc_id
order, and a history query equal to the current query, where lambda = 1
makes anchor_feedback return the feedback model itself.

Two more tests pin those cases: a kept matching made from candidates out
of doc_id order ranks tied twins in doc_id order, as the direct rerank
does (and a pair matched for a model the scorer refused at a tiny mu does
not stop the next model); a kept matching, which checks each term's mass
once per mu, fails with the direct rerank's error, naming the same term,
every time; and at lambda = 1 the memo keeps the feedback model under its own
key and the anchoring's, and later points score as a fresh memo would.

A last one walks a lambda x gamma grid under one shared Stages on a session
whose divergence is infinite at step 2 and finite at step 3, so a
divergence from a kept prior (shared across gamma) and one from a fresh
mixture (gamma's own) both run; rankings and traces must equal plain
scoring's.
"""

import math
from collections import Counter
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import oracle  # noqa: E402
from conftest import DIVERGENCE_EXAMPLE, instance_index, instance_session  # noqa: E402

from sessionsearch import pipeline, srm  # noqa: E402
from sessionsearch.evalkit import Qrels, grid_tune  # noqa: E402
from sessionsearch.lm import ZERO, TermDistribution, top_k_by_query_likelihood  # noqa: E402
from sessionsearch.pipeline import (  # noqa: E402
    METHODS,
    RunConfig,
    StagedScorer,
    score_session,
    score_session_full,
)
from sessionsearch.session import select_feedback_docs  # noqa: E402
from sessionsearch.srm import CandidateMatching, rerank  # noqa: E402
from sessionsearch.stages import Stages  # noqa: E402

TOLERANCE = 1e-9
NEG_INF = float("-inf")
UNSEEN = "zz"  # a query word no document contains


@st.composite
def sessions_over(draw, doc_ids, query):
    """The steps and current query of one session over the given documents."""
    steps = []
    for _ in range(draw(st.integers(0, 3))):
        impressions = draw(st.lists(st.sampled_from(doc_ids), unique=True))
        clicks = draw(st.lists(st.sampled_from(impressions), unique=True)) if impressions else []
        steps.append({"query": draw(query), "impressions": impressions, "clicks": clicks})
    return {"steps": steps, "current": draw(query)}


@st.composite
def instances(draw):
    vocab = [f"w{i}" for i in range(draw(st.integers(3, 7)))]
    token_lists = draw(st.lists(st.lists(st.sampled_from(vocab), min_size=1, max_size=7),
                                min_size=2, max_size=7))
    if draw(st.booleans()):
        # Add each document's mirror image under w0 <-> w1, so the two
        # words have equal cf and mirrored documents are structural ties.
        mirror = {"w0": "w1", "w1": "w0"}
        token_lists = token_lists[:4] + [[mirror.get(t, t) for t in tokens]
                                         for tokens in token_lists[:4]]
    docs = {f"d{i}": dict(Counter(tokens)) for i, tokens in enumerate(token_lists)}
    query = st.lists(st.sampled_from(vocab * 4 + [UNSEEN]), min_size=1, max_size=4)
    return {
        "docs": docs,
        **draw(sessions_over(sorted(docs), query)),
        "params": {
            "gamma": draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
            "lam": draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
            "m": draw(st.integers(1, 4)),
            "mu": draw(st.sampled_from([10.0, 100.0, 2500.0])),
        },
        "clip_terms": draw(st.sampled_from([2, 3, 100])),
        "decay": draw(st.sampled_from([0.5, 0.92, 1.0])),
        "depth": draw(st.sampled_from([1, 3, 2000])),
    }


def near(a, b):
    """Finite and within the tolerance of each other (equal included)."""
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= TOLERANCE * max(
        1.0, abs(a), abs(b))


def cut_is_near_tie(ordered_values, keep):
    """ordered_values sorted descending; keeping `keep` of them splits a near-tie."""
    return 0 < keep < len(ordered_values) and near(ordered_values[keep - 1], ordered_values[keep])


class BruteForce:
    def __init__(self, instance):
        self.instance = instance
        self.docs = instance["docs"]
        self.coll = oracle.build_collection(self.docs)
        self.mu = instance["params"]["mu"]
        steps = instance["steps"]
        self.queries = [step["query"] for step in steps] + [instance["current"]]

    def known(self, tokens):
        return [t for t in tokens if self.coll["cf"].get(t, 0) > 0]

    def ql(self, tokens, doc_id):
        return oracle.query_ll(tokens, self.docs[doc_id], self.coll["len"][doc_id],
                               self.coll, self.mu)

    def first_pass(self, tokens):
        """(doc_id, score) of every document holding a known token, best first."""
        known = self.known(tokens)
        scored = [(d, self.ql(known, d)) for d, counts in self.docs.items()
                  if not set(known).isdisjoint(counts)]
        return sorted(scored, key=lambda pair: (-pair[1], pair[0]))

    def cross_entropy(self, model, doc_id):
        total = 0.0
        for term, p in model.items():
            prob = oracle.dirichlet_prob(term, self.docs[doc_id], self.coll["len"][doc_id],
                                         self.coll, self.mu)
            if prob <= 0.0:
                return NEG_INF
            total += p * math.log(prob)
        return total

    def clipped(self, model, clip_terms):
        kept = sorted(((t, p) for t, p in model.items() if p > 0.0),
                      key=lambda item: (-item[1], item[0]))
        assume(not cut_is_near_tie([p for _, p in kept], clip_terms))
        if len(kept) <= clip_terms:
            return dict(kept)
        kept = kept[:clip_terms]
        mass = math.fsum(p for _, p in kept)
        return {t: p / mass for t, p in kept}

    def feedback_cuts_are_clear(self):
        """No pseudo-click selection of the session walk splits a near-tie."""
        steps = self.instance["steps"]
        n = len(steps) + 1
        m = self.instance["params"]["m"]
        for t in range(1, n + 1):
            visible = steps[: min(t, n - 1)]
            if any(step["clicks"] for step in visible):
                continue
            pool = list(dict.fromkeys(d for step in visible for d in step["impressions"]))
            need = [token for query in self.queries[:t] for token in query]
            scores = sorted((self.ql(need, d) for d in pool), reverse=True)
            if cut_is_near_tie(scores, m):
                return False
        return True

    def expected(self, method, candidates, config):
        """Brute-force score of each candidate under one method."""
        q_n = self.known(self.instance["current"])
        first = {d: self.ql(q_n, d) for d in candidates}
        if method == "none":
            return first
        if method == "qa-uniform":
            need = self.known([token for query in self.queries for token in query])
            return {d: self.ql(need, d) for d in candidates}
        if method == "qa-decay":
            n = len(self.queries)
            scores = {}
            for d in candidates:
                total = 0.0
                for t, query in enumerate(self.queries, start=1):
                    known = self.known(query)
                    if known:
                        total += config.decay ** (n - t) * self.ql(known, d)
                scores[d] = total
            return scores
        if method in ("srm-qc", "srm-rm1"):
            assume(self.feedback_cuts_are_clear())
            variant = oracle.QC if method == "srm-qc" else oracle.RM1
            instance = dict(self.instance, params=dict(self.instance["params"], variant=variant))
            model = self.clipped(oracle.session_model(instance), config.clip_terms)
        else:
            tokens = (self.instance["current"] if method == "rm3-qn"
                      else [token for query in self.queries for token in query])
            ranked = self.first_pass(tokens)
            assume(not cut_is_near_tie([s for _, s in ranked], config.m))
            feedback = [d for d, _ in ranked[: config.m]]
            query_model = oracle.query_model(tokens)
            if feedback:
                rm1 = oracle.rm1_feedback_model(tokens, feedback, self.docs, self.coll, self.mu)
                lam = config.lam
                expanded = {
                    term: (1.0 - lam) * query_model.get(term, 0.0) + lam * rm1.get(term, 0.0)
                    for term in set(query_model) | set(rm1)
                }
                model = self.clipped(expanded, config.clip_terms)
            else:
                model = query_model
        return {d: first[d] + self.cross_entropy(model, d) for d in candidates}

    def signature(self, doc_id, weighted_terms):
        """Length plus the sorted (weight, tf, cf) of every scored term the document holds."""
        counts = self.docs[doc_id]
        return (self.coll["len"][doc_id],) + tuple(
            tuple(sorted((w, counts[t], self.coll["cf"][t]) for t, w in weights.items()
                         if t in counts))
            for weights in weighted_terms
        )

    def scored_weights(self, method, config, model):
        """The (term -> weight) maps a method scores with, as the program weights them."""
        current = dict(Counter(self.known(self.instance["current"])))
        if method == "none":
            return [current]
        if method == "qa-uniform":
            return [dict(Counter(self.known([t for q in self.queries for t in q])))]
        if method == "qa-decay":
            n = len(self.queries)
            weights = {}
            for t, query in enumerate(self.queries, start=1):
                for term, count in Counter(self.known(query)).items():
                    weights[term] = weights.get(term, 0.0) + config.decay ** (n - t) * count
            return [weights]
        return [current, model.as_dict()]


def agree(got, want):
    if want == NEG_INF or got == NEG_INF:
        return got == want
    # Relative to at least 1: a score whose exact value is 0 (every
    # probability 1) comes out of the split within rounding of 0.
    return abs(got - want) <= TOLERANCE * max(1.0, abs(got), abs(want))


def below(a, b):
    """Brute-force score a is clearly below b."""
    if a == NEG_INF:
        return b != NEG_INF
    return b != NEG_INF and a < b - TOLERANCE * max(1.0, abs(a), abs(b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=instances(), method=st.sampled_from(METHODS))
def test_every_method_matches_brute_force(instance, method):
    params = instance["params"]
    config = RunConfig(method=method, lam=params["lam"], gamma=params["gamma"], m=params["m"],
                       mu=params["mu"], clip_terms=instance["clip_terms"],
                       decay=instance["decay"], depth=instance["depth"])
    brute = BruteForce(instance)
    index = instance_index(instance)
    session = instance_session(instance)
    result = score_session_full(session, index, config)
    ranking = result.ranking

    # Candidates: the brute-force top depth, up to near-ties at the cut.
    first = brute.first_pass(instance["current"])
    expected_set = {d for d, _ in first[: config.depth]}
    got_set = {d for d, _ in ranking}
    assert len(got_set) == len(ranking) == len(expected_set)
    if got_set != expected_set:
        cut = first[config.depth - 1][1]
        assert all(near(dict(first)[d], cut) for d in got_set ^ expected_set)

    if not ranking:
        return
    want = brute.expected(method, got_set, config)
    for doc_id, score in ranking:
        assert agree(score, want[doc_id]), (doc_id, score, want[doc_id])
    for (a, _), (b, _) in zip(ranking, ranking[1:]):
        assert not below(want[a], want[b]), (a, b, want[a], want[b])

    weights = brute.scored_weights(method, config, result.model)
    position = {doc_id: i for i, (doc_id, _) in enumerate(ranking)}
    score_of = dict(ranking)
    by_signature = {}
    for doc_id in sorted(got_set):
        by_signature.setdefault(brute.signature(doc_id, weights), []).append(doc_id)
    for tied in by_signature.values():
        assert len({score_of[d] for d in tied}) == 1, tied
        assert [position[d] for d in tied] == sorted(position[d] for d in tied), tied


# The tunable fields each method's scoring reads.
TUNED_BY = {
    "none": ("mu",),
    "qa-uniform": ("mu",),
    "qa-decay": ("mu", "decay"),
    "rm3-qn": ("m", "lam", "mu", "clip_terms"),
    "rm3-qprime": ("m", "lam", "mu", "clip_terms"),
    "srm-qc": ("m", "lam", "gamma", "mu", "clip_terms"),
    "srm-rm1": ("m", "lam", "gamma", "mu", "clip_terms"),
}
GRID_VALUES = {
    "m": [1, 2, 4],
    "lam": [0.0, 0.5, 1.0],
    "gamma": [0.0, 0.3, 1.0],
    "mu": [1.0, 10.0, 2500.0],
    "clip_terms": [2, 3, 100],
    "decay": [0.5, 0.92, 1.0],
}


@st.composite
def tune_instances(draw):
    instance = draw(instances())
    doc_ids = sorted(instance["docs"])
    vocab = sorted({term for counts in instance["docs"].values() for term in counts})
    query = st.lists(st.sampled_from(vocab * 4 + [UNSEEN]), min_size=1, max_size=4)
    sessions = [instance] + draw(st.lists(sessions_over(doc_ids, query), max_size=2))
    method = draw(st.sampled_from(METHODS))
    fields = draw(st.lists(st.sampled_from(TUNED_BY[method]), min_size=1, max_size=3,
                           unique=True))
    grids = {field: draw(st.lists(st.sampled_from(GRID_VALUES[field]), min_size=2,
                                  max_size=2, unique=True))
             for field in fields}
    return {
        "docs": instance["docs"],
        "sessions": sessions,
        "grades": {doc_id: draw(st.integers(0, 2)) for doc_id in doc_ids},
        "method": method,
        "depth": instance["depth"],
        "grids": grids,
    }


def tune_rankings(score_fn, sessions, qrels, index, base, grids):
    """grid_tune's best config and table, and every ranking with its scores
    that score_fn gave it, in the order grid_tune asked for them."""
    scored = []

    def recorded(session, index, config):
        ranking = score_fn(session, index, config)
        scored.append((session.session_id, config, ranking))
        return ranking

    return grid_tune(sessions, qrels, index, base, grids, recorded), scored


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tune=tune_instances())
def test_staged_tune_equals_plain_tune_bit_for_bit(tune):
    index = instance_index(tune)
    sessions = [instance_session(session, session_id=f"s{i}")
                for i, session in enumerate(tune["sessions"])]
    args = (sessions, Qrels({"t1": tune["grades"]}), index,
            RunConfig(method=tune["method"], depth=tune["depth"]), tune["grids"])
    assert tune_rankings(StagedScorer(), *args) == tune_rankings(score_session, *args)


@pytest.mark.parametrize("method", ["srm-qc", "srm-rm1", "rm3-qn", "rm3-qprime"])
def test_staged_tune_keys_feedback_selection_by_mu(method):
    # "w0" is rare in the collection. At mu = 1 the one-word dA is the best
    # match for "w0", at mu = 2500 the longer dB with three of them: the
    # pseudo-click top-1 changes with mu alone, and so does the top-2 of
    # the current query that RM3-QN expands from.
    instance = {"docs": {"dA": {"w0": 1}, "dB": {"w0": 3, "w1": 2, "w2": 2},
                         "dC": {"w1": 1, "w2": 1, "w3": 1}, "dD": {"w3": 40}}}
    index = instance_index(instance)
    session = instance_session(dict(instance, steps=[
        {"query": ["w0"], "impressions": ["dA", "dB"], "clicks": []}], current=["w0", "w1"]))
    picks = {mu: select_feedback_docs(session, 1, 1, mu, index).doc_ids for mu in (1.0, 2500.0)}
    assert picks == {1.0: ("dA",), 2500.0: ("dB",)}
    top2 = {mu: top_k_by_query_likelihood(session.current_query, index, mu, 2)[1][0]
            for mu in (1.0, 2500.0)}
    assert top2 == {1.0: "dA", 2500.0: "dC"}
    args = ([session], Qrels({"t1": {"dA": 1}}), index, RunConfig(method=method),
            {"m": [1, 2], "mu": [1.0, 2500.0]})
    assert tune_rankings(StagedScorer(), *args) == tune_rankings(score_session, *args)


RERANKED = ("srm-qc", "srm-rm1", "rm3-qn", "rm3-qprime")
FOREIGN = "foreign"  # in no document and no query


def grid_points():
    return st.fixed_dictionaries({
        "lam": st.sampled_from(GRID_VALUES["lam"]),
        "gamma": st.sampled_from(GRID_VALUES["gamma"]),
        "clip_terms": st.sampled_from(GRID_VALUES["clip_terms"]),
        "m": st.sampled_from(GRID_VALUES["m"]),
    })


def hexed(ranking):
    return [(doc_id, score.hex()) for doc_id, score in ranking]


def unheld_corpus_term(index, candidates, held):
    """A corpus term outside held, from a non-candidate document if one
    has such a term; None when every corpus term is held."""
    candidate_ids = {doc_id for doc_id, _ in candidates}
    for _, doc in sorted(index.doc_table.items(), key=lambda item: item[0] in candidate_ids):
        for term in sorted(doc.term_counts.keys() - held):
            return term
    return None


# The current query holds a word no document contains, so every model keeps
# a required term and every candidate scores -inf.
UNSEEN_EXAMPLE = {
    "docs": {"d0": {"w0": 2, "w1": 1}, "d1": {"w1": 1, "w2": 1}, "d2": {"w2": 3, "w0": 1}},
    "steps": [{"query": ["w1"], "impressions": ["d0", "d1"], "clicks": ["d0"]},
              {"query": ["w2", UNSEEN], "impressions": ["d1", "d2"], "clicks": []}],
    "current": ["w1", UNSEEN],
    "params": {"gamma": 0.3, "lam": 0.5, "m": 2, "mu": 100.0},
    "clip_terms": 100,
    "decay": 0.92,
    "depth": 2000,
}


# dA and dB hold the same text under two ids, so every model ties them.
TWIN_EXAMPLE = dict(UNSEEN_EXAMPLE, docs={
    "dA": {"w0": 2, "w1": 1}, "dB": {"w0": 2, "w1": 1}, "dC": {"w1": 1, "w2": 3}},
    steps=[{"query": ["w0"], "impressions": ["dA", "dC"], "clicks": ["dC"]}],
    current=["w0", "w1"])

# The one history query is the current query and has a click, so at
# lambda = 1 the anchoring weight is exactly 1 and anchor_feedback returns
# the feedback model itself: the memo keeps one object under two keys.
REPEAT_EXAMPLE = dict(UNSEEN_EXAMPLE, docs={
    "d0": {"w0": 2, "w1": 1}, "d1": {"w1": 2, "w2": 1}, "d2": {"w2": 3}},
    steps=[{"query": ["w0", "w1"], "impressions": ["d0", "d1"], "clicks": ["d0"]}],
    current=["w0", "w1"])
REPEAT_POINTS = [{"lam": 1.0, "gamma": 0.3, "clip_terms": 100, "m": 2},
                 {"lam": 0.5, "gamma": 0.3, "clip_terms": 100, "m": 2},
                 {"lam": 1.0, "gamma": 1.0, "clip_terms": 2, "m": 2}]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instance=instances(), method=st.sampled_from(RERANKED),
       points=st.lists(grid_points(), min_size=2, max_size=5))
@hypothesis.example(instance=TWIN_EXAMPLE, method="srm-qc",
                    points=[{"lam": 0.5, "gamma": 0.3, "clip_terms": 100, "m": 2},
                            {"lam": 0.8, "gamma": 0.0, "clip_terms": 2, "m": 2}])
@hypothesis.example(instance=REPEAT_EXAMPLE, method="srm-qc", points=REPEAT_POINTS)
@hypothesis.example(instance=REPEAT_EXAMPLE, method="srm-rm1", points=REPEAT_POINTS)
@hypothesis.example(instance=UNSEEN_EXAMPLE, method="srm-qc",
                    points=[{"lam": 0.5, "gamma": 0.3, "clip_terms": 100, "m": 2},
                            {"lam": 1.0, "gamma": 0.0, "clip_terms": 2, "m": 2}])
@hypothesis.example(instance=UNSEEN_EXAMPLE, method="rm3-qn",
                    points=[{"lam": 0.5, "gamma": 0.3, "clip_terms": 100, "m": 1},
                            {"lam": 0.0, "gamma": 0.3, "clip_terms": 3, "m": 1}])
def test_staged_rerank_equals_direct_rerank_bit_for_bit(instance, method, points):
    index = instance_index(instance)
    session = instance_session(instance)
    stages = Stages()
    held = {}  # per kept matching, the terms of the models reranked through it
    for point in points:
        config = RunConfig(method=method, mu=instance["params"]["mu"],
                           depth=instance["depth"], **point)
        with mock.patch.object(pipeline, "rerank", wraps=rerank) as spy:
            result = score_session_full(session, index, config, stages)
        if not spy.called:
            assert result.ranking == []
            continue
        candidates, model, _, mu, matching = spy.call_args.args
        assert matching is not None
        assert hexed(result.ranking) == hexed(rerank(candidates, model, index, mu))
        if any(not index.stats.collection_tf.get(term) for term in model.support()):
            assert all(score == NEG_INF for _, score in result.ranking)
        terms = held.setdefault(matching, set())
        terms.update(model.support())
        for word in (FOREIGN, unheld_corpus_term(index, candidates, terms)):
            if word is None or word in terms:
                continue
            widened = TermDistribution.from_weights({**model.as_dict(), word: 0.5})
            assert hexed(rerank(candidates, widened, index, mu, matching)) == hexed(
                rerank(candidates, widened, index, mu))
            terms.add(word)


def test_a_kept_matching_ranks_tied_candidates_in_doc_id_order():
    index = instance_index(TWIN_EXAMPLE)
    # Not in doc_id order: the twins dA and dB tie under every model.
    candidates = [("dB", -4.0), ("dC", -4.5), ("dA", -4.0)]
    matching = CandidateMatching(candidates, index)
    for weights, tied in (({"w0": 0.5, "w1": 0.5}, ["dA", "dB"]), ({"w1": 1.0}, ["dA", "dB"]),
                          ({"w0": 0.5, FOREIGN: 0.5}, ["dA", "dB", "dC"])):
        model = TermDistribution.from_weights(weights)
        kept = rerank(candidates, model, index, 10.0, matching)
        assert hexed(kept) == hexed(rerank(candidates, model, index, 10.0))
        assert [doc_id for doc_id, _ in kept if doc_id in tied] == tied
        assert len({score for doc_id, score in kept if doc_id in tied}) == 1
        assert rerank(candidates, model, index, 10.0, matching) is kept


def test_a_kept_matching_skips_a_pair_whose_background_mass_rounds_to_zero():
    # At the smallest mu, w1's mass mu * 1/8 rounds to 0 and w0's (7/8) does
    # not: the model holding w1 is refused, and its matched pair must not
    # stop a later model at that mu from scoring as the direct rerank does.
    index = instance_index({"docs": {"d0": {"w0": 4, "w1": 1}, "d1": {"w0": 3}}})
    candidates = [("d0", 0.0), ("d1", 0.0)]
    matching = CandidateMatching(candidates, index)
    mu = 5e-324
    with pytest.raises(ValueError, match="is too small"):
        rerank(candidates, TermDistribution.from_weights({"w1": 1.0}), index, mu, matching)
    model = TermDistribution.from_weights({"w0": 1.0})
    assert hexed(rerank(candidates, model, index, mu, matching)) == hexed(
        rerank(candidates, model, index, mu))


def test_a_kept_matching_fails_as_the_direct_rerank_every_time():
    # At the smallest mu the masses of w1 and w2 (1/9 each) round to 0 and
    # w0's (7/9) does not. Each model is scored twice, so the second call
    # finds its terms' logs, or their refusal, kept.
    index = instance_index({"docs": {"d0": {"w0": 4, "w1": 1, "w2": 1}, "d1": {"w0": 3}}})
    candidates = [("d0", 0.0), ("d1", 0.0)]
    matching = CandidateMatching(candidates, index)
    models = [ZERO] + [TermDistribution.from_weights(weights) for weights in (
        {"w0": 0.5, "w2": 0.5}, {"w0": 1.0}, {"w1": 0.5, "w2": 0.5}, {"w2": 0.5, "w1": 0.5},
        {FOREIGN: 0.5, "w1": 0.5}, {FOREIGN: 0.5, "w0": 0.5})]

    def outcome(model, mu, *matched):
        try:
            return hexed(rerank(candidates, model, index, mu, *matched))
        except ValueError as exc:
            return str(exc)

    for mu in (5e-324, 0.0, 10.0) * 2:
        for model in models:
            assert outcome(model, mu, matching) == outcome(model, mu)


@pytest.mark.parametrize("method", ["srm-qc", "srm-rm1"])
def test_an_anchored_model_that_is_its_feedback_model_keeps_one_object(monkeypatch, method):
    index = instance_index(REPEAT_EXAMPLE)
    session = instance_session(REPEAT_EXAMPLE)
    configs = [RunConfig(method=method, mu=REPEAT_EXAMPLE["params"]["mu"], **point)
               for point in REPEAT_POINTS]
    direct = [score_session_full(session, index, config) for config in configs]
    anchorings = []  # per point, (lambda, feedback model, anchored model) of each anchoring
    real = srm.anchor_feedback

    def recording(fm, q_t, q_n, lam, index):
        anchored = real(fm, q_t, q_n, lam, index)
        anchorings[-1].append((lam, fm, anchored))
        return anchored

    monkeypatch.setattr(srm, "anchor_feedback", recording)
    stages = Stages()
    for config, plain in zip(configs, direct):
        anchorings.append([])
        staged = score_session_full(session, index, config, stages)
        assert hexed(staged.ranking) == hexed(plain.ranking)
        assert staged.trace.to_dict() == plain.trace.to_dict()
        assert staged.model.as_dict() == plain.model.as_dict()
    first, second, third = anchorings
    assert first and {lam for lam, _, _ in first} == {1.0}
    assert all(anchored is fm for _, fm, anchored in first)
    assert second and {lam for lam, _, _ in second} == {0.5}
    assert all(anchored is not fm for _, fm, anchored in second)
    # The second lambda = 1 point finds every anchored model kept.
    assert third == []


@pytest.mark.parametrize("method", ["srm-qc", "srm-rm1"])
def test_a_divergence_kept_across_gamma_scores_as_a_fresh_one(method):
    index = instance_index(DIVERGENCE_EXAMPLE)
    session = instance_session(DIVERGENCE_EXAMPLE)
    stages = Stages()
    for lam in (0.0, 0.5, 1.0):
        for gamma in (0.0, 0.3, 1.0):
            config = RunConfig(method=method, lam=lam, gamma=gamma, mu=10.0, m=2)
            staged = score_session_full(session, index, config, stages)
            plain = score_session_full(session, index, config)
            assert hexed(staged.ranking) == hexed(plain.ranking)
            assert staged.trace.to_dict() == plain.trace.to_dict()
            kls = [record.kl for record in plain.trace.records]
            assert math.isinf(kls[1]) and math.isfinite(kls[2])
