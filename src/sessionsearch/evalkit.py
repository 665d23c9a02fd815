"""Graded evaluation: qrels, ranking metrics, run files, and grid tuning.

Natural log is used everywhere else in the toolkit; the DCG discount is the
customary log2. Metric functions take a ranking (doc ids in rank order) and
a topic's grade map, and return values in [0, 1]. Run files are written a
key at a time and read back through per-key maps, so neither direction
builds a copy of the whole file.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .inputs import InputError, open_text, shown_ids
from .pipeline import TUNABLE_FIELDS

RankedDocs = Sequence[str]

# Highest qrels grade. Gains are 2^grade - 1: three docs at grade 1023
# overflow the ideal DCG and make nDCG NaN; at 64 no topic size can.
MAX_GRADE = 64

# The error line of a qrels or run-file line that has too few or too many columns.
_COLUMNS = "expected {expected} columns, got {got}"

# int() would also read "1_0" as 10 and non-ASCII digits such as a
# fullwidth "1"; grades are plain ASCII integers.
_GRADE = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments keyed by topic."""

    grades_by_topic: Mapping[str, Mapping[str, int]]

    @classmethod
    def from_trec_file(cls, path: str | Path) -> "Qrels":
        """Parse whitespace-separated "topic_id 0 doc_id grade" lines.

        Grades are ASCII integers; negative ones (spam judgments) are
        clamped to 0. Malformed lines, grades above MAX_GRADE and a second,
        different grade for the same (topic, doc) raise ValueError naming
        the line; a repeated identical judgment is accepted.
        """
        grades: dict[str, dict[str, int]] = {}
        # (grade as written, line) of each judgment, to name a conflict.
        judged: dict[tuple[str, str], tuple[int, int]] = {}
        with open_text(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise InputError(_COLUMNS, path, lineno, expected=4, got=len(parts))
                topic_id, _, doc_id, grade_str = parts
                try:  # int() also refuses more digits than sys.get_int_max_str_digits()
                    grade = int(grade_str) if _GRADE.fullmatch(grade_str) else None
                except ValueError:
                    grade = None
                if grade is None:
                    raise InputError("grade {grade} is not an integer", path, lineno,
                                     grade=grade_str)
                if grade > MAX_GRADE:
                    raise InputError("grade {grade} is above {most}", path, lineno, grade=grade,
                                     most=MAX_GRADE)
                first_grade, first_line = judged.setdefault((topic_id, doc_id), (grade, lineno))
                if first_grade != grade:
                    raise InputError("topic {topic} doc {doc} has grade {grade}, but line "
                                     "{first} gave it grade {first_grade}", path, lineno,
                                     topic=topic_id, doc=doc_id, grade=grade, first=first_line,
                                     first_grade=first_grade)
                grades.setdefault(topic_id, {})[doc_id] = max(0, grade)
        return cls(grades)

    def for_topic(self, topic_id: str) -> Mapping[str, int]:
        try:
            return self.grades_by_topic[topic_id]
        except KeyError:
            raise InputError("unknown topic {topic} in qrels", topic=topic_id) from None

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
        raise InputError("k must be positive, got {k}", k=k)
    dcg = 0.0
    for rank, doc_id in enumerate(ranking[:k], start=1):
        grade = grades.get(doc_id, 0)
        if grade > 0:
            dcg += _gain(grade) / math.log2(rank + 1)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not ideal:
        return 0.0
    idcg = 0.0
    for rank, grade in enumerate(ideal[:k], start=1):
        idcg += _gain(grade) / math.log2(rank + 1)
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
        raise InputError("k must be positive, got {k}", k=k)
    if g_max < max(grades.values(), default=0):
        raise InputError("g_max {g_max} is below the highest grade in qrels", g_max=g_max)
    observed = [grades.get(doc_id, 0) for doc_id in ranking[:k]]
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
    """Write rankings as 6-column TREC run lines: key Q0 doc rank score tag.

    The file is written one key's lines at a time, so no copy of the whole
    file is ever built.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for key, ranking in rankings.items():
            handle.write("".join(f"{key} Q0 {doc_id} {rank} {score!r} {tag}\n"
                                 for rank, (doc_id, score) in enumerate(ranking, start=1)))


def parse_run_file(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Read a 6-column TREC run file back into per-key rankings.

    Lines are grouped by the first column and ordered by the rank column,
    a positive ASCII integer. A rank or a doc that repeats under one key,
    or a malformed line, raises ValueError naming the line (and, for a
    repeat, the first line); the first such line in the file wins.

    While it reads, it holds per key a {rank: (doc_id, score)} map, whose
    pairs become the ranking, and a {doc_id: line} map; each key's maps
    are released once its ranking is built.
    """
    # key -> ({rank: (doc_id, score)}, {doc_id: line}). Each accepted line
    # holds a new rank and a new doc, so a rank's first line is its doc's.
    keys: dict[str, tuple[dict[int, tuple[str, float]], dict[str, int]]] = {}
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise InputError(_COLUMNS, path, lineno, expected=6, got=len(parts))
            key, _, doc_id, rank_str, score_str, _ = parts
            try:  # ASCII digits only, as for grades, and no more than int() reads
                rank = int(rank_str) if rank_str.isascii() and rank_str.isdigit() else 0
            except ValueError:
                rank = 0
            if rank < 1:
                raise InputError("rank {rank} is not a positive integer", path, lineno,
                                 rank=rank_str)
            try:
                score = float(score_str)
            except ValueError as exc:
                raise InputError("bad score {score}", path, lineno, score=score_str) from exc
            ranked, doc_lines = keys.get(key) or keys.setdefault(key, ({}, {}))
            if rank in ranked:
                raise InputError("repeated rank {rank} under key {key} (first on line {first})",
                                 path, lineno, rank=rank, key=key,
                                 first=doc_lines[ranked[rank][0]])
            first = doc_lines.setdefault(doc_id, lineno)
            if first != lineno:
                raise InputError("duplicate doc {doc} under key {key} (first on line {first})",
                                 path, lineno, doc=doc_id, key=key, first=first)
            ranked[rank] = (doc_id, score)
    rankings: dict[str, list[tuple[str, float]]] = {}
    for key in list(keys):
        ranked, _ = keys.pop(key)
        rankings[key] = list(map(ranked.__getitem__, sorted(ranked)))
    return rankings


def distinct_grid_values(label: str, values: Sequence, path=None) -> Sequence:
    """values, unless one repeats (a repeated grid value repeats a grid point):
    label names the grid, in the config file at path when given."""
    seen = set()
    for value in values:
        if value in seen:
            raise InputError("{label!s}: duplicate grid value {value}", path, label=label,
                             value=value)
        seen.add(value)
    return values


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

    A value repeated within one grid raises ValueError before anything is
    scored.

    Sessions are scored session-major: score_fn(session, index, config)
    sees every point of one session before the next session, so a scorer
    may reuse the session's stages across points (pipeline.StagedScorer).
    Each point's MAP still adds its sessions' APs in session order. When
    score_fn returns the very list it returned at an earlier point of the
    same session (a ranking the scorer kept), that list is taken as
    unchanged and its AP is reused.
    """
    if not grids or any(len(values) == 0 for values in grids.values()):
        raise ValueError("grid search needs at least one value for every grid")
    unknown = set(grids) - set(TUNABLE_FIELDS)
    if unknown:
        raise InputError("cannot tune over unknown parameters: {names!s}",
                         names=shown_ids(sorted(unknown)))
    keys = [key for key in TUNABLE_FIELDS if key in grids]
    value_lists = [sorted(distinct_grid_values(f"{key!r} grid", grids[key])) for key in keys]

    points = [dict(zip(keys, point)) for point in itertools.product(*value_lists)]
    configs = [replace(base_config, **params) for params in points]
    # aps[i]: the AP of every scored session at point i, in session order.
    aps: list[list[float]] = [[] for _ in points]
    for session in sessions:
        if not session.current_query.tokens:
            continue
        grades = qrels.for_topic(session.topic_id)
        # (ranking, AP) per distinct list score_fn returned for this session,
        # held until the next session.
        scored: list[tuple[object, float]] = []
        for values, config in zip(aps, configs):
            ranked = score_fn(session, index, config)
            ap = next((ap for seen, ap in scored if seen is ranked), None)
            if ap is None:
                ap = average_precision([doc_id for doc_id, _ in ranked], grades)
                scored.append((ranked, ap))
            values.append(ap)

    best_config = None
    best_map = -1.0
    table: list[dict] = []
    for params, config, values in zip(points, configs, aps):
        mean_map = math.fsum(values) / len(values) if values else 0.0
        table.append({"params": params, "map": mean_map})
        if mean_map > best_map:
            best_map = mean_map
            best_config = config
    return best_config, table
