"""Graded evaluation: qrels, ranking metrics, run files, and grid tuning.

Natural log is used everywhere else in the toolkit; the DCG discount is the
customary log2. Metric functions take a ranking (doc ids in rank order) and
a topic's grade map, and return values in [0, 1].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

RankedDocs = Sequence[str]

# Highest qrels grade. Gains are 2^grade - 1: three docs at grade 1023
# overflow the ideal DCG and make nDCG NaN; at 64 no topic size can.
MAX_GRADE = 64


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments keyed by topic."""

    grades_by_topic: Mapping[str, Mapping[str, int]]

    @classmethod
    def from_trec_file(cls, path: str | Path) -> "Qrels":
        """Parse whitespace-separated "topic_id 0 doc_id grade" lines.

        Negative grades (spam judgments) are clamped to 0. Malformed lines
        and grades above MAX_GRADE raise ValueError naming the line.
        """
        grades: dict[str, dict[str, int]] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise ValueError(
                        f"{path}: line {lineno}: expected 4 columns, got {len(parts)}"
                    )
                topic_id, _, doc_id, grade_str = parts
                try:
                    grade = int(grade_str)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}: line {lineno}: grade {grade_str!r} is not an integer"
                    ) from exc
                if grade > MAX_GRADE:
                    raise ValueError(f"{path}: line {lineno}: grade {grade} is above {MAX_GRADE}")
                grades.setdefault(topic_id, {})[doc_id] = max(0, grade)
        return cls(grades)

    def for_topic(self, topic_id: str) -> Mapping[str, int]:
        try:
            return self.grades_by_topic[topic_id]
        except KeyError:
            raise ValueError(f"unknown topic {topic_id!r} in qrels") from None

    def max_grade(self) -> int:
        top = 0
        for grades in self.grades_by_topic.values():
            for grade in grades.values():
                top = max(top, grade)
        return top


def _gain(grade: int) -> float:
    return (2.0 ** grade) - 1.0


def ndcg_at_k(ranking: RankedDocs, grades: Mapping[str, int], k: int) -> float:
    """Normalized discounted cumulative gain at cutoff k.

    Gain is 2^grade - 1 with a log2(rank+1) discount; the ideal ranking is
    all judged docs sorted by grade, truncated at k. Topics with no relevant
    docs score 0.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    dcg = 0.0
    for rank, doc_id in enumerate(ranking[:k], start=1):
        grade = grades.get(doc_id, 0)
        if grade > 0:
            dcg += _gain(grade) / math.log2(rank + 1)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not ideal:
        return 0.0
    idcg = sum(
        _gain(grade) / math.log2(rank + 1)
        for rank, grade in enumerate(ideal[:k], start=1)
    )
    return dcg / idcg


def _err_at_k(graded: Sequence[int], k: int, g_max: int) -> float:
    err = 0.0
    not_satisfied = 1.0
    denom = 2.0 ** g_max
    for rank, grade in enumerate(graded[:k], start=1):
        stop = _gain(grade) / denom
        err += not_satisfied * stop / rank
        not_satisfied *= 1.0 - stop
    return err


def nerr_at_k(
    ranking: RankedDocs, grades: Mapping[str, int], k: int, g_max: int
) -> float:
    """Expected reciprocal rank at k, normalized by the ideal ERR at k."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if g_max < max(grades.values(), default=0):
        raise ValueError(f"g_max {g_max} is below the highest grade in qrels")
    observed = [grades.get(doc_id, 0) for doc_id in ranking]
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    ideal_err = _err_at_k(ideal, k, g_max) if ideal else 0.0
    if ideal_err <= 0.0:
        return 0.0
    return _err_at_k(observed, k, g_max) / ideal_err


def mrr(ranking: RankedDocs, grades: Mapping[str, int]) -> float:
    """Reciprocal rank of the first doc with grade > 0; 0 if none ranked."""
    for rank, doc_id in enumerate(ranking, start=1):
        if grades.get(doc_id, 0) > 0:
            return 1.0 / rank
    return 0.0


def average_precision(ranking: RankedDocs, grades: Mapping[str, int]) -> float:
    """Binary-relevance average precision against all judged relevant docs."""
    total_relevant = sum(1 for grade in grades.values() if grade > 0)
    if total_relevant == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, doc_id in enumerate(ranking, start=1):
        if grades.get(doc_id, 0) > 0:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / total_relevant


def session_metrics(
    ranking: RankedDocs, grades: Mapping[str, int], k: int, depth: int, g_max: int
) -> dict[str, float]:
    """The report's per-session metric bundle."""
    return {
        f"ndcg@{k}": ndcg_at_k(ranking, grades, k),
        "ndcg": ndcg_at_k(ranking, grades, depth),
        f"nerr@{k}": nerr_at_k(ranking, grades, k, g_max),
        "mrr": mrr(ranking, grades),
        "map": average_precision(ranking, grades),
    }


def build_report(
    per_session: Mapping[str, Mapping[str, float]],
    skipped: Sequence[str],
    config: Mapping,
    metadata: Mapping,
) -> dict:
    """Assemble a report, averaging each metric over the evaluated sessions.

    Returns the report as written: "config", "metadata", "per_session",
    "mean" (empty when no session was evaluated) and "skipped".
    """
    mean: dict[str, float] = {}
    if per_session:
        keys = next(iter(per_session.values())).keys()
        count = len(per_session)
        for key in keys:
            mean[key] = math.fsum(metrics[key] for metrics in per_session.values()) / count
    return {
        "config": dict(config),
        "metadata": dict(metadata),
        "per_session": {sid: dict(metrics) for sid, metrics in per_session.items()},
        "mean": mean,
        "skipped": list(skipped),
    }


def write_run_file(
    path: str | Path, rankings: Mapping[str, Sequence[tuple[str, float]]], tag: str
) -> None:
    """Write rankings as 6-column TREC run lines: key Q0 doc rank score tag."""
    lines = []
    for key, ranking in rankings.items():
        for rank, (doc_id, score) in enumerate(ranking, start=1):
            lines.append(f"{key} Q0 {doc_id} {rank} {score!r} {tag}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def parse_run_file(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Read a 6-column TREC run file back into per-key rankings.

    Lines are grouped by the first column and ordered by the rank column;
    duplicate docs under one key or malformed lines raise ValueError.
    """
    rows: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(
                    f"{path}: line {lineno}: expected 6 columns, got {len(parts)}"
                )
            key, _, doc_id, rank_str, score_str, _ = parts
            try:
                rank = int(rank_str)
                score = float(score_str)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad rank or score") from exc
            rows.setdefault(key, []).append((rank, doc_id, score))
    rankings: dict[str, list[tuple[str, float]]] = {}
    for key, entries in rows.items():
        entries.sort(key=lambda row: row[0])
        seen = set()
        ranking = []
        for _, doc_id, score in entries:
            if doc_id in seen:
                raise ValueError(f"{path}: duplicate doc {doc_id!r} under key {key!r}")
            seen.add(doc_id)
            ranking.append((doc_id, score))
        rankings[key] = ranking
    return rankings


# RunConfig fields a grid may vary, in the order grid points are visited.
TUNABLE_FIELDS = ("m", "lam", "gamma", "mu", "decay", "clip_terms")


def grid_tune(
    sessions: Sequence,
    qrels: Qrels,
    index,
    base_config,
    grids: Mapping[str, Sequence],
    score_fn: Callable,
) -> tuple[object, list[dict]]:
    """Exhaustive grid search maximizing mean average precision.

    grids maps RunConfig field names to candidate values. Points are visited
    in ascending (m, lambda, gamma, ...) order and a point must be strictly
    better to displace the incumbent, so ties resolve toward smaller m, then
    smaller lambda, then smaller gamma. Returns the winning config and the
    full score table.
    """
    if not grids or any(len(values) == 0 for values in grids.values()):
        raise ValueError("grid search needs at least one value for every grid")
    unknown = set(grids) - set(TUNABLE_FIELDS)
    if unknown:
        raise ValueError(f"cannot tune over unknown parameters: {sorted(unknown)}")
    keys = [key for key in TUNABLE_FIELDS if key in grids]
    value_lists = [sorted(grids[key]) for key in keys]

    best_config = None
    best_map = -1.0
    table: list[dict] = []
    for point in itertools.product(*value_lists):
        config = replace(base_config, **dict(zip(keys, point)))
        mean_map = _mean_average_precision(sessions, qrels, index, config, score_fn)
        table.append({"params": dict(zip(keys, point)), "map": mean_map})
        if mean_map > best_map:
            best_map = mean_map
            best_config = config
    return best_config, table


def _mean_average_precision(sessions, qrels, index, config, score_fn) -> float:
    values = []
    for session in sessions:
        if not session.current_query.tokens:
            continue
        ranking = [doc_id for doc_id, _ in score_fn(session, index, config)]
        values.append(average_precision(ranking, qrels.for_topic(session.topic_id)))
    if not values:
        return 0.0
    return math.fsum(values) / len(values)
