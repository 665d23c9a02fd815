"""Output checks: run files, reports, tune tables and brute-force rankings.

The brute-force side is ``tests/oracle.py``, imported read-only. It works on
plain dicts of term counts, so the checks hand it the analyzed queries and
the document term counts of the index the program loaded. Impressions and
clicks on documents the index lacks (or that analyze to nothing) are
dropped first, as the program documents it does.

Scores computed two ways agree only up to float rounding, so an order is
accepted when it never puts a document ahead of one whose brute-force score
is higher by more than a relative 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

TOLERANCE = 1e-9


def rankings_digest(rankings) -> tuple[str, int]:
    """SHA-256 of (key, doc, score) rows in order, and the rankings holding a non-finite score."""
    digest = hashlib.sha256()
    nonfinite = 0
    for key, ranking in rankings.items():
        finite = True
        for doc_id, score in ranking:
            finite = finite and math.isfinite(score)
            digest.update(f"{key} {doc_id} {score!r}\n".encode())
        nonfinite += not finite
    return digest.hexdigest(), nonfinite


def order_violations(order, scores) -> int:
    """Adjacent pairs in `order` whose brute-force scores rise by more than the tolerance."""
    bad = 0
    for first, second in zip(order, order[1:]):
        a, b = scores[first], scores[second]
        if a < b - TOLERANCE * max(1.0, abs(a), abs(b)):
            bad += 1
    return bad


def top_depth_matches(candidates, scores, depth) -> bool:
    """The candidate set is the brute-force top-depth set, up to near-ties at the cut."""
    ranked = sorted(scores, key=lambda doc_id: (-scores[doc_id], doc_id))
    expected = set(ranked[:depth])
    got = set(candidates)
    if got == expected:
        return True
    if len(got) != len(expected) or not got <= set(scores):
        return False
    cut = scores[ranked[min(depth, len(ranked)) - 1]]
    return all(abs(scores[doc_id] - cut) <= TOLERANCE * max(1.0, abs(cut))
               for doc_id in got ^ expected)


class Oracle:
    """Brute-force scores for sessions of one generated workload."""

    def __init__(self, oracle_module, index, analyze, config):
        self.oracle = oracle_module
        self.analyze = analyze
        self.config = config
        self.docs = {doc_id: rec.term_counts for doc_id, rec in index.doc_table.items()}
        self.coll = oracle_module.build_collection(self.docs)

    def _usable(self, doc_id):
        return doc_id in self.docs and self.coll["len"][doc_id] > 0

    def _known(self, tokens):
        return [t for t in tokens if self.coll["cf"].get(t, 0) > 0]

    def instance(self, raw):
        """Oracle toy instance for a raw session, or None if it has an empty history query."""
        steps = []
        for step in raw["steps"]:
            query = list(self.analyze(step["query"]).tokens)
            if not query:
                return None
            steps.append({
                "query": query,
                "impressions": [d for d in step["impressions"] if self._usable(d)],
                "clicks": [c["doc"] for c in step["clicks"] if self._usable(c["doc"])],
            })
        c = self.config
        return {
            "docs": self.docs,
            "steps": steps,
            "current": list(self.analyze(raw["current_query"]).tokens),
            "params": {"gamma": c.gamma, "lam": c.lam, "m": c.m, "mu": c.mu, "variant": "qc"},
        }

    def _ql(self, tokens, doc_id):
        return self.oracle.query_ll(tokens, self.docs[doc_id], self.coll["len"][doc_id],
                                    self.coll, self.config.mu)

    def first_pass(self, instance):
        """Query log likelihood of every document matching a known current-query term."""
        known = self._known(instance["current"])
        terms = set(known)
        return {doc_id: self._ql(known, doc_id) for doc_id, counts in self.docs.items()
                if not terms.isdisjoint(counts)}

    def session_scores(self, instance, first_pass, candidates):
        """Query likelihood plus cross entropy under the clipped session model."""
        model = {t: p for t, p in self.oracle.session_model(instance).items() if p > 0.0}
        kept = sorted(model.items(), key=lambda item: (-item[1], item[0]))[:self.config.clip_terms]
        mass = math.fsum(p for _, p in kept)
        kept = [(t, p / mass) for t, p in kept]
        scores = {}
        for doc_id in candidates:
            counts, length = self.docs[doc_id], self.coll["len"][doc_id]
            ce = 0.0
            for term, p in kept:
                ce += p * math.log(self.oracle.dirichlet_prob(term, counts, length, self.coll,
                                                              self.config.mu))
            scores[doc_id] = first_pass[doc_id] + ce
        return scores

    def qa_decay_scores(self, instance, candidates):
        """Recency-decayed sum of per-query log likelihoods over the whole session."""
        queries = [step["query"] for step in instance["steps"]] + [instance["current"]]
        n = len(queries)
        scores = {}
        for doc_id in candidates:
            total = 0.0
            for t, query in enumerate(queries, start=1):
                known = self._known(query)
                if known:
                    total += self.config.decay ** (n - t) * self._ql(known, doc_id)
            scores[doc_id] = total
        return scores


def check_rankings(oracle: Oracle, raw_sessions, rankings, method):
    """Compare the program's rankings with brute force on the given sessions.

    Returns (sessions checked, sessions that failed, whether a deliberately
    perturbed order failed the same check; None if none could be built).
    """
    checked = failures = 0
    perturbed_caught = None
    for raw in raw_sessions:
        instance = oracle.instance(raw)
        if instance is None:
            continue
        order = [doc_id for doc_id, _ in rankings[raw["session_id"]]]
        first_pass = oracle.first_pass(instance)
        checked += 1
        if not top_depth_matches(order, first_pass, oracle.config.depth):
            failures += 1
            continue
        if method == "qa-decay":
            scores = oracle.qa_decay_scores(instance, order)
        else:
            scores = oracle.session_scores(instance, first_pass, order)
        failures += order_violations(order, scores) > 0
        if perturbed_caught is None:
            perturbed_caught = perturbed_order_fails(order, scores)
    return checked, failures, perturbed_caught


def perturbed_order_fails(order, scores) -> bool | None:
    """Swap the top document with the first clearly worse one; the check must object."""
    top = scores[order[0]]
    for i in range(1, len(order)):
        if top - scores[order[i]] > 1e-6 * max(1.0, abs(top)):
            swapped = list(order)
            swapped[0], swapped[i] = swapped[i], swapped[0]
            return order_violations(swapped, scores) > 0
    return None


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
