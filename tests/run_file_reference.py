"""Frozen reference copy of the run-file writer and parser, for differential
tests.

The code below is evalkit.write_run_file and evalkit.parse_run_file as they
stood before the writer went one key at a time and the parser kept per-key
maps: the writer builds the whole file as one string, and the parser keeps
whole-file maps keyed by (key, rank) and (key, doc) tuples. evalkit's pair
must write the same bytes and return the same rankings, or raise the same
error, for every input. Do not optimize or restyle it; its value is that it
is the old code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from sessionsearch.inputs import open_text, shown


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

    Lines are grouped by the first column and ordered by the rank column,
    a positive ASCII integer. A rank or a doc that repeats under one key,
    or a malformed line, raises ValueError naming the line (and, for a
    repeat, the first line).
    """
    rows: dict[str, list[tuple[int, str, float]]] = {}
    rank_lines: dict[tuple[str, int], int] = {}
    doc_lines: dict[tuple[str, str], int] = {}
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(
                    f"{path}: line {lineno}: expected 6 columns, got {len(parts)}"
                )
            key, _, doc_id, rank_str, score_str, _ = parts
            try:  # ASCII digits only, as for grades, and no more than int() reads
                rank = int(rank_str) if rank_str.isascii() and rank_str.isdigit() else 0
            except ValueError:
                rank = 0
            if rank < 1:
                raise ValueError(
                    f"{path}: line {lineno}: rank {shown(rank_str)} is not a positive integer"
                )
            try:
                score = float(score_str)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad score {shown(score_str)}") from exc
            first = rank_lines.setdefault((key, rank), lineno)
            if first != lineno:
                raise ValueError(f"{path}: line {lineno}: repeated rank {rank} under key "
                                 f"{shown(key)} (first on line {first})")
            first = doc_lines.setdefault((key, doc_id), lineno)
            if first != lineno:
                raise ValueError(f"{path}: line {lineno}: duplicate doc {shown(doc_id)} under key "
                                 f"{shown(key)} (first on line {first})")
            rows.setdefault(key, []).append((rank, doc_id, score))
    rankings: dict[str, list[tuple[str, float]]] = {}
    for key, entries in rows.items():
        entries.sort(key=lambda row: row[0])
        rankings[key] = [(doc_id, score) for _, doc_id, score in entries]
    return rankings
