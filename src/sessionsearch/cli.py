"""Command-line entry point: index, run, tune, and eval subcommands.

All outputs are deterministic for a given set of inputs and arguments, so
repeating an invocation reproduces its files byte for byte. Parameter
precedence is CLI flag over config file over built-in default, and the
effective configuration is embedded in every report. `run` and `tune` load
the sessions first, then the index snapshot with the cyclic collector
paused, derive its statistics and the postings of the sessions' query
terms only, and keep everything loaded by then frozen (gc.freeze) until the
command ends.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import logging
import sys
from pathlib import Path

from . import evalkit, pipeline
from .index import InvertedIndex, build_index, read_corpus_jsonl
from .inputs import InputError, load_json, shown_ids
from .session import load_sessions

logger = logging.getLogger("sessionsearch")

_TYPES = {name: type(value) for name, value in dataclasses.asdict(pipeline.RunConfig()).items()}
_FLAGS = {"method": "--method", **{p.field: p.flag for p in pipeline.PARAMS}}
_CONFIG_KEYS = {**{name: name for name in _TYPES}, **{p.flag[2:]: p.field for p in pipeline.PARAMS}}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _require_file(path: str, role: str) -> Path:
    resolved = Path(path)
    if not resolved.is_file():
        raise InputError("{role!s} file not found: {path}", path, role=role)
    return resolved


def _coerce(where: str, field_name: str, value, text: bool = False, path=None):
    """value as the field's type: a flag's text through int() or float(), or a
    config file's JSON value, which must already be of the field's kind.
    where names the flag, or the field of the config file at path."""
    kind = _TYPES[field_name]
    if text or kind is str:
        if isinstance(value, str):
            with contextlib.suppress(ValueError):  # int()'s digit limit too
                return kind(value)
    # type(), not isinstance(): JSON true and false load as bool, not int.
    elif type(value) is int or type(value) is float and (kind is float or value.is_integer()):
        try:
            return kind(value)
        except OverflowError:  # a JSON integer past the float range
            raise InputError("{where!s} is out of float range", path, where=where) from None
    noun = "an integer" if kind is int and (text or type(value) is float) else "a number"
    raise InputError("{where!s} must be {noun!s}, got {value}", path, where=where,
                     noun="a string" if kind is str else noun, value=value)


def _grid(where: str, field_name: str, value, text: bool = False, path=None) -> list:
    """A flag's comma-separated text or a config file's JSON list as the grid
    of one field: each item through _coerce, at least one, none repeated."""
    items = [item for item in value.split(",") if item.strip()] if text else value
    if not items:
        raise InputError("{where!s} has no grid values", path, where=where)
    return evalkit.distinct_grid_values(
        where, [_coerce(where, field_name, v, text, path) for v in items], path)


def _load_config_file(path: str, allow_grids: bool) -> tuple[dict, dict]:
    """Read a JSON config; returns (scalar values, grid lists)."""
    raw = load_json(_require_file(path, "config"))
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object", path)
    scalars: dict = {}
    grids: dict = {}
    for key, value in raw.items():
        field_name = _CONFIG_KEYS.get(key)
        if field_name is None:
            raise InputError("unknown config field {key}", path, key=key)
        where = f"field {key!r}"  # a known key: its repr is short
        if isinstance(value, list):
            if not allow_grids:
                raise InputError("{where!s} is a list; grids are for tune only", path, where=where)
            if field_name not in pipeline.TUNABLE_FIELDS:
                raise InputError("{where!s} cannot be tuned over", path, where=where)
            grids[field_name] = _grid(where, field_name, value, path=path)
        else:
            scalars[field_name] = _coerce(where, field_name, value, path=path)
    return scalars, grids


def _effective_config(args, file_scalars: dict) -> pipeline.RunConfig:
    values = dict(file_scalars)
    for field_name, flag in _FLAGS.items():
        text = getattr(args, field_name, None)
        if text is not None:
            values[field_name] = _coerce(flag, field_name, text, text=True)
    return pipeline.RunConfig(**values)


def _add_param_flags(parser: argparse.ArgumentParser, grids: bool) -> None:
    """Add --method, a flag per pipeline.PARAMS row and --config, all kept as
    text; with grids, each tunable field's flag takes a list as grid_<field>."""
    parser.add_argument("--method", metavar="{" + ",".join(pipeline.METHODS) + "}",
                        help="scoring method (default none: plain query likelihood)")
    for p in pipeline.PARAMS:
        if grids and p.methods:
            parser.add_argument(p.flag, dest=f"grid_{p.field}", metavar="V1,V2,...",
                                help=f"grid values: {p.help}")
        else:
            parser.add_argument(p.flag, dest=p.field, help=p.help)
    parser.add_argument("--config", help="JSON config; list-valued fields become grids"
                        if grids else "JSON file with parameter values")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sessionsearch",
        description="Index a corpus, replay search sessions, re-rank, and evaluate.",
    )
    sub = parser.add_subparsers(dest="command")

    p_index = sub.add_parser("index", help="build an index snapshot from a JSONL corpus")
    p_index.add_argument("--corpus", required=True, help="JSONL file with id and text fields")
    p_index.add_argument("--out", required=True, help="where to write the index snapshot")
    p_index.set_defaults(func=cmd_index)

    p_run = sub.add_parser("run", help="score sessions and write a run file")
    p_run.add_argument("--index", required=True, help="index snapshot from the index command")
    p_run.add_argument("--sessions", required=True, help="sessions JSON file")
    p_run.add_argument("--qrels", default=None, help="TREC qrels for the report metrics")
    p_run.add_argument("--out", required=True, help="run file to write (TREC 6-column)")
    p_run.add_argument("--report", default=None, help="metrics report JSON to write")
    p_run.add_argument("--dump-model", default=None, metavar="DIR",
                       help="write each session's term model JSON here (model methods)")
    p_run.add_argument("--dump-trace", default=None, metavar="DIR",
                       help="write each session's step trace JSON here (srm methods)")
    _add_param_flags(p_run, grids=False)
    p_run.set_defaults(func=cmd_run)

    p_tune = sub.add_parser("tune", help="grid-search parameters to maximize MAP")
    p_tune.add_argument("--index", required=True)
    p_tune.add_argument("--sessions", required=True, help="training sessions JSON file")
    p_tune.add_argument("--qrels", required=True)
    p_tune.add_argument("--out", default=None, help="where to write the best-params JSON")
    _add_param_flags(p_tune, grids=True)
    p_tune.set_defaults(func=cmd_tune)

    p_eval = sub.add_parser("eval", help="score an existing run file against qrels")
    p_eval.add_argument("--run", required=True, help="run file keyed by session id")
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--sessions", required=True,
                        help="sessions JSON file (maps session ids to topics)")
    p_eval.add_argument("--report", default=None, help="metrics report JSON to write")
    for field_name in ("k", "depth"):  # the metrics' cutoff and nDCG's ideal depth
        p_eval.add_argument(_FLAGS[field_name])
    p_eval.set_defaults(func=cmd_eval)

    return parser


def cmd_index(args) -> int:
    corpus_path = _require_file(args.corpus, "corpus")
    docs = list(read_corpus_jsonl(corpus_path))
    if not docs:
        logger.warning("corpus %s is empty; writing an empty index", args.corpus)
    index = build_index(docs)
    del docs  # the texts: saving and counting read the index only
    index.save(args.out)
    # Counted from the document table, so the postings are never derived.
    terms = set().union(*(rec.term_counts for rec in index.doc_table.values()))
    print(f"indexed {len(index.doc_table)} documents, {len(terms)} distinct terms -> {args.out}")
    return 0


def _load_qrels(path: str, sessions) -> evalkit.Qrels:
    """Read qrels and require the topic of every given session that has a
    current query (sessions without one are never scored)."""
    qrels = evalkit.Qrels.from_trec_file(_require_file(path, "qrels"))
    for session in sessions:
        if session.current_query.tokens and session.topic_id not in qrels.grades_by_topic:
            raise InputError("unknown topic {topic} of session {session}", path,
                             topic=session.topic_id, session=session.session_id)
    return qrels


@contextlib.contextmanager
def _loaded_index(path: str, sessions):
    """Load the snapshot at path with the cyclic collector paused, derive
    its lengths, statistics and the postings of every term of the sessions'
    queries, and keep every object tracked by then (sessions, qrels, index)
    frozen until the block exits, so the collector walks none of them while
    the command runs.

    Those are the only postings a method reads: the first pass, query
    aggregation and RM3's feedback pass score the session's queries term at
    a time, and every other term is scored from the count maps.

    The caller's collector is left as found: a disabled one stays disabled,
    and a caller that already holds frozen objects gets no freeze, so its
    objects stay frozen.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        index = InvertedIndex.load(_require_file(path, "index"))
        # Derives the statistics and lengths first: Postings reads the dfs.
        index.postings.gather(term for session in sessions
                              for query in session.queries for term in query.tokens)
        freeze = not gc.get_freeze_count()
        if freeze:
            gc.freeze()
    finally:
        if was_enabled:
            gc.enable()
    try:
        yield index
    finally:
        if freeze:
            gc.unfreeze()


def _report(path, ordered, qrels, skipped, config: dict, metadata: dict) -> None:
    """Score (session_id, topic_id, doc ids in rank order) triples against
    qrels when given, print the mean when any session was scored, and write
    the report to path when given."""
    per_session = {}
    metadata = {**metadata, "ndcg_ideal_depth": config["depth"]}
    if qrels is not None:
        g_max = metadata["max_grade"] = qrels.max_grade()
        for session_id, topic_id, doc_ids in ordered:
            per_session[session_id] = evalkit.session_metrics(
                doc_ids, qrels.for_topic(topic_id), config["k"], config["depth"], g_max
            )
    report = evalkit.build_report(per_session, skipped, config, metadata)
    if report["mean"]:
        print("mean: " + json.dumps(report["mean"], sort_keys=True))
    if path:
        _write_json(Path(path), report)
        print(f"wrote {path}")


def cmd_run(args) -> int:
    file_scalars, _ = _load_config_file(args.config, allow_grids=False) if args.config else ({}, {})
    config = _effective_config(args, file_scalars)
    sessions = load_sessions(_require_file(args.sessions, "sessions"))
    qrels = _load_qrels(args.qrels, sessions) if args.qrels else None
    with _loaded_index(args.index, sessions) as index:
        results, skipped = pipeline.run_sessions(sessions, index, config)
        rankings = {result.session_id: result.ranking for result in results}
        evalkit.write_run_file(args.out, rankings, tag=config.method)
        print(f"wrote {args.out} ({len(results)} sessions scored, {len(skipped)} skipped)")

        if args.dump_model:
            model_dir = Path(args.dump_model)
            model_dir.mkdir(parents=True, exist_ok=True)
            for result in results:
                if result.model is not None:
                    path = model_dir / f"{result.session_id}.model.json"
                    _write_json(path, result.model.as_dict())
        if args.dump_trace:
            trace_dir = Path(args.dump_trace)
            trace_dir.mkdir(parents=True, exist_ok=True)
            for result in results:
                if result.trace is not None:
                    path = trace_dir / f"{result.session_id}.trace.json"
                    _write_json(path, result.trace.to_dict())

        ordered = [(r.session_id, r.topic_id, [doc_id for doc_id, _ in r.ranking]) for r in results]
        _report(args.report, ordered, qrels, skipped, config.to_dict(), {"run_tag": config.method})
        return 0


def cmd_tune(args) -> int:
    file_scalars, grids = (
        _load_config_file(args.config, allow_grids=True) if args.config else ({}, {})
    )
    grid_flags = [(p.flag, p.field) for p in pipeline.PARAMS if p.methods]
    for flag, field_name in grid_flags:
        raw = getattr(args, f"grid_{field_name}")
        if raw is not None:
            grids[field_name] = _grid(flag, field_name, raw, text=True)
    if not grids:
        raise InputError("no grid given; pass value lists via {flags!s} or list-valued config "
                         "fields", flags="/".join(f for f, _ in grid_flags))
    base = _effective_config(args, file_scalars)
    # RunConfig range-checks each grid value here, before any input is read.
    for field_name, values in grids.items():
        for value in values:
            dataclasses.replace(base, **{field_name: value})
    for field_name in sorted(p.field for p in pipeline.PARAMS
                             if p.field in grids and base.method not in p.methods):
        logger.warning("method %s does not read %s: every value of its grid scores alike",
                       base.method, field_name)
    sessions = load_sessions(_require_file(args.sessions, "sessions"))
    if not any(session.current_query.tokens for session in sessions):
        raise InputError("no sessions with an analyzable current query to tune on", args.sessions)
    qrels = _load_qrels(args.qrels, sessions)
    with _loaded_index(args.index, sessions) as index:
        best, table = evalkit.grid_tune(
            sessions, qrels, index, base, grids, score_fn=pipeline.StagedScorer()
        )
        payload = {
            "best": best.to_dict(),
            "best_map": max(row["map"] for row in table),
            "grid": sorted(grids),
            "table": table,
        }
        print(json.dumps(payload["best"], sort_keys=True))
        if args.out:
            _write_json(Path(args.out), payload)
            print(f"wrote {args.out}")
        return 0


def cmd_eval(args) -> int:
    # --k and --depth are converted and range-checked before any input is read.
    config = _effective_config(args, {})
    rankings = evalkit.parse_run_file(_require_file(args.run, "run"))
    sessions = load_sessions(_require_file(args.sessions, "sessions"))
    # run scores every session whose current query has terms, one that
    # matches no document as an empty ranking without a run-file line. The
    # sessions file cannot serve an id that is absent or has no such query.
    scored = [s for s in sessions if s.current_query.tokens]
    unknown = sorted(set(rankings) - {s.session_id for s in scored})
    if unknown:
        raise InputError("ids no session can serve: {ids!s}", args.run, ids=shown_ids(unknown))
    qrels = _load_qrels(args.qrels, scored)

    ordered = [
        (s.session_id, s.topic_id, [doc_id for doc_id, _ in rankings.get(s.session_id, ())])
        for s in scored
    ]
    skipped = [s.session_id for s in sessions if not s.current_query.tokens]
    _report(args.report, ordered, qrels, skipped, {"k": config.k, "depth": config.depth}, {})
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None and exc.filename2 is None:
            # str(exc)'s text, with a path that InputError can cut.
            exc = InputError("[Errno {errno}] {reason!s}: {path!r}", exc.filename,
                             errno=exc.errno, reason=exc.strerror)
        print(exc.line() if isinstance(exc, InputError) else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
