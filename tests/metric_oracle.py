"""Brute-force references for the ranking metrics, from their definitions.

Nothing here imports from the package under test or shares its shortcuts:
each precision is counted over its whole prefix, each stopping probability
is an explicit product over the ranks above it, and an ideal ranking is the
best of every ordering of the judged documents rather than a sort by grade.
Agreement with `sessionsearch.evalkit` is therefore evidence that the fast
code computes what the definitions say.

A ranking is a list of distinct doc ids; grades map judged doc ids to
integer grades, and a doc that is not judged has grade 0.
"""

import itertools
import math


def average_precision(ranking, grades):
    """Mean over the relevant docs (grade > 0) of the precision at the rank
    where each is retrieved; a relevant doc never retrieved adds 0."""
    relevant = {doc for doc, grade in grades.items() if grade > 0}
    if not relevant:
        return 0.0
    total = 0.0
    for rank in range(1, len(ranking) + 1):
        if ranking[rank - 1] in relevant:
            total += sum(1 for doc in ranking[:rank] if doc in relevant) / rank
    return total / len(relevant)


def mrr(ranking, grades):
    """One over the rank of the first relevant doc (grade > 0) retrieved;
    0 when none is."""
    ranks = [rank for rank in range(1, len(ranking) + 1) if grades.get(ranking[rank - 1], 0) > 0]
    return 1 / ranks[0] if ranks else 0.0


def dcg_at_k(ranking, grades, k):
    """Discounted cumulative gain at k (Järvelin & Kekäläinen, TOIS 2002),
    with the gain 2^grade - 1 and the log2(rank + 1) discount of evalkit."""
    return sum(
        (2 ** grades.get(doc, 0) - 1) / math.log2(rank + 1)
        for rank, doc in enumerate(ranking[:k], start=1)
    )


def err_at_k(ranking, grades, k, g_max):
    """Expected reciprocal rank at k (Chapelle et al., CIKM 2009).

    A user scans down the ranking and stops at a doc of grade g with
    probability (2^g - 1) / 2^g_max; ERR is the expected 1/rank of the stop.
    """

    def satisfies(doc):
        return (2 ** grades.get(doc, 0) - 1) / 2 ** g_max

    total = 0.0
    for rank in range(1, min(k, len(ranking)) + 1):
        stop_here = satisfies(ranking[rank - 1])
        for above in ranking[: rank - 1]:
            stop_here *= 1 - satisfies(above)
        total += stop_here / rank
    return total


def best_ordering(metric, grades):
    """The highest value of metric(ordering) over all orderings of the judged docs."""
    return max(metric(list(order)) for order in itertools.permutations(grades))


def ndcg_at_k(ranking, grades, k):
    """DCG at k over the DCG at k of the best ordering; 0 if nothing is relevant."""
    ideal = best_ordering(lambda order: dcg_at_k(order, grades, k), grades)
    return dcg_at_k(ranking, grades, k) / ideal if ideal > 0 else 0.0


def nerr_at_k(ranking, grades, k, g_max):
    """ERR at k over the ERR at k of the best ordering, as evalkit normalizes
    it; 0 if nothing is relevant."""
    ideal = best_ordering(lambda order: err_at_k(order, grades, k, g_max), grades)
    return err_at_k(ranking, grades, k, g_max) / ideal if ideal > 0 else 0.0
