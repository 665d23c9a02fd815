"""Measuring process: runs one workload's CLI commands in-process.

Started fresh by run.py for every measurement, so its peak RSS belongs to
this workload alone. ``python3 probe.py JOB`` reads the job (JSON: the
command lines to run, output files to hash, repeat policy, trace flag and
where to write) and writes one JSON result: per repeat the exit codes,
times, per-unit times, output SHA-256 and, when traced, per-layer metrics;
plus peak RSS.

Light probes are installed with tracing off as well: a timestamp at the
first call into the command's unit loop (the end of set-up), a timer around
each unit (document or session), a reference to the rankings handed to the
run-file writer, and the speed samples described in ``Speed``. With tracing
on, the wrappers built from spans.py add spans around every layer and no
speed samples are taken.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from sessionsearch import baselines, cli, evalkit, index, pipeline, session, srm  # noqa: E402

import spans as tracing  # noqa: E402
from checks import rankings_digest  # noqa: E402


# The speed reference: fixed work shaped like the program's inner loops
# (dictionary lookups of string keys and logarithms of smoothed counts),
# about REFERENCE_S long when the machine runs at full speed (the fastest of
# 3000 runs on a 2-vCPU x86-64 VM, Python 3.11). Interpreted work of this
# shape slows with the neighbours as the program does; a loop of integer
# arithmetic slowed less, and scaling by it left two to seven times the
# spread on scoring and index-building work. The reference runs
# between units of work, never inside one, at least every SAMPLE_EVERY_S.
REFERENCE_S = 0.72e-3
SAMPLE_EVERY_S = 0.05
_REF_RNG = random.Random("sessionsearch-bench:reference")
_REF_DOCS = [{f"t{_REF_RNG.randrange(3000)}": _REF_RNG.randrange(1, 4) for _ in range(30)}
             for _ in range(120)]
_REF_MODEL = [(f"t{_REF_RNG.randrange(3000)}", _REF_RNG.random() / 40) for _ in range(25)]
_REF_CF = {f"t{i}": (i % 50 + 1) / 100000 for i in range(3000)}


def reference_loop() -> float:
    total = 0.0
    log = math.log
    for counts in _REF_DOCS:
        for term, p in _REF_MODEL:
            total += p * log((counts.get(term, 0) + 2500.0 * _REF_CF[term]) / 2560.0)
    return total


class Speed:
    """Timeline of reference-loop samples, to time work at a fixed speed.

    On a shared machine the same interpreted work runs up to twice as slow
    for seconds or minutes at a time, in CPU time as much as in wall time,
    so the fastest or median of a few repeats still moves with the
    neighbours. The reference slows with them. Work between two samples is
    scaled by REFERENCE_S over the median time of the four nearest samples
    (two on each side, which outvotes one sample hit by an interrupt);
    this gives its time at full speed. Time spent in the samples themselves
    is left out. Disabled (traced runs), times are plain wall time.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.starts: list[float] = []
        self.ends: list[float] = []

    def reset(self):
        self.starts.clear()
        self.ends.clear()

    def sample(self):
        if self.enabled:
            start = time.perf_counter()
            reference_loop()
            self.starts.append(start)
            self.ends.append(time.perf_counter())

    def maybe_sample(self):
        if self.enabled and time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def _scale(self, gap: int) -> float:
        near = sorted(self.ends[i] - self.starts[i]
                      for i in range(max(0, gap - 1), min(len(self.ends), gap + 3)))
        return 2.0 * REFERENCE_S / (near[(len(near) - 1) // 2] + near[len(near) // 2])

    def elapsed(self, a: float, b: float, calibrated: bool = True) -> float:
        """Time from a to b outside the samples, scaled to full speed if calibrated."""
        if not self.enabled:
            return b - a
        total = 0.0
        # Gap j runs from the end of sample j to the start of sample j + 1.
        for j in range(max(0, bisect.bisect_right(self.ends, a) - 1), len(self.ends) - 1):
            lo, hi = max(a, self.ends[j]), min(b, self.starts[j + 1])
            if lo >= b:
                break
            if hi > lo:
                total += (hi - lo) * (self._scale(j) if calibrated else 1.0)
        return total

    def slowdown(self) -> float:
        """Median sample time over REFERENCE_S."""
        times = sorted(e - s for s, e in zip(self.starts, self.ends))
        return times[len(times) // 2] / REFERENCE_S if times else 1.0


class SetupDone(Exception):
    """Raised at the first unit of work of a set-up-only run."""


class Probes:
    """Set-up mark, unit intervals and captured rankings of one command."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.reset()

    def reset(self, setup_only: bool = False):
        self.mark = None
        self.setup_only = setup_only
        self.units: list[tuple[float, float]] = []
        self.rankings = None

    def entered(self):
        if self.mark is None:
            self.mark = time.perf_counter()
            self.speed.sample()
        if self.setup_only:
            raise SetupDone()


def install_probes(kind: str, probes: Probes) -> None:
    clock = time.perf_counter
    if kind == "index":
        real_build = cli.build_index

        def timed_docs(docs):
            last = None
            for doc in docs:
                now = clock()
                if last is not None:
                    probes.units.append((last, now))
                probes.speed.maybe_sample()
                last = clock()
                yield doc
            if last is not None:
                probes.units.append((last, clock()))

        def build_index(docs, *args, **kwargs):
            probes.entered()
            return real_build(timed_docs(docs), *args, **kwargs)

        cli.build_index = build_index
        return

    entry_owner, entry_name = (pipeline, "run_sessions") if kind == "run" else (evalkit, "grid_tune")
    real_entry = getattr(entry_owner, entry_name)

    def entry(*args, **kwargs):
        probes.entered()
        return real_entry(*args, **kwargs)

    setattr(entry_owner, entry_name, entry)

    real_full = pipeline.score_session_full

    def score_session_full(*args, **kwargs):
        probes.speed.maybe_sample()
        start = clock()
        result = real_full(*args, **kwargs)
        probes.units.append((start, clock()))
        return result

    pipeline.score_session_full = score_session_full

    real_write = evalkit.write_run_file

    def write_run_file(path, rankings, tag):
        probes.rankings = rankings
        return real_write(path, rankings, tag)

    evalkit.write_run_file = write_run_file


class TraceState:
    """Per-command counters that a stage cache would key on."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.first_pass_keys = set()
        self.feedback_keys = set()
        self.terms = set()


def install_tracing(tracer: tracing.Tracer, state: TraceState) -> None:
    span, leaf = tracing.wrap_span, tracing.wrap_leaf

    def analyzed(args, result):
        state.terms.update(result.tokens)
        return {"tokens": len(result.tokens)}

    traced_analyze = leaf(tracer, "analysis.analyze", index.build_index.__defaults__[0],
                          analyzed)
    index.build_index.__defaults__ = (traced_analyze,)
    session.load_sessions.__defaults__ = (traced_analyze,)

    def index_shape(idx):
        return {"terms": len(idx.postings),
                "postings": sum(len(p) for p in idx.postings.values())}

    def built(args, result):
        return dict(index_shape(result), docs=result.stats.num_docs)

    def loaded(args, result):
        return dict(index_shape(result), snapshot_bytes=Path(args[-1]).stat().st_size)

    def saved(args, result):
        return {"snapshot_bytes": Path(args[-1]).stat().st_size}

    cli.build_index = span(tracer, "index.build", cli.build_index, built)
    real_load = index.InvertedIndex.__dict__["load"].__func__
    index.InvertedIndex.load = classmethod(span(tracer, "index.load", real_load, loaded))
    index.InvertedIndex.save = span(tracer, "index.save", index.InvertedIndex.save, saved)
    real_read = cli.read_corpus_jsonl

    def read_corpus_jsonl(path):
        lines = real_read(path)
        while True:
            start = time.perf_counter()
            try:
                item = next(lines)
            except StopIteration:
                tracer.leaf("index.read_corpus", start, time.perf_counter())
                return
            tracer.leaf("index.read_corpus", start, time.perf_counter())
            yield item

    cli.read_corpus_jsonl = read_corpus_jsonl

    cli.load_sessions = span(tracer, "session.load", cli.load_sessions)
    real_qrels = evalkit.Qrels.__dict__["from_trec_file"].__func__
    evalkit.Qrels.from_trec_file = classmethod(span(tracer, "evalkit.qrels", real_qrels))

    def ran(args, result):
        results, skipped = result
        return {"sessions": len(results), "skipped": len(skipped)}

    pipeline.run_sessions = span(tracer, "pipeline.run", pipeline.run_sessions, ran)
    pipeline.score_session_full = span(tracer, "pipeline.session",
                                       pipeline.score_session_full, session_arg=True)

    def first_pass(args, result):
        query, idx, mu, k = args
        matched = len(result)
        if matched >= k:
            docs = set()
            for term in set(query.tokens):
                docs.update(doc_id for doc_id, _ in idx.postings.get(term, ()))
            matched = len(docs)
        key = (query.tokens, mu, k)
        repeat = key in state.first_pass_keys
        state.first_pass_keys.add(key)
        return {"returned": len(result), "matched": matched,
                "capped": int(matched > k), "repeat": int(repeat)}

    pipeline.top_k_by_query_likelihood = span(
        tracer, "lm.first_pass", pipeline.top_k_by_query_likelihood, first_pass)

    def feedback(args, result):
        sess, t, m, mu = args[:4]
        key = (sess.session_id, t, m, mu)
        repeat = key in state.feedback_keys
        state.feedback_keys.add(key)
        source = "empty" if not result.doc_ids else result.source.value
        return {"source": source, "repeat": int(repeat)}

    srm.select_feedback_docs = span(tracer, "session.select_feedback",
                                    srm.select_feedback_docs, feedback)

    def model(args, result):
        return {"model_terms": len(result[0])}

    pipeline.build_session_model = span(tracer, "srm.build_model",
                                        pipeline.build_session_model, model)
    srm.feedback_model = span(tracer, "srm.feedback_model", srm.feedback_model)
    srm.rm1_style_feedback_model = span(tracer, "srm.feedback_model",
                                        srm.rm1_style_feedback_model)
    srm.anchor_feedback = span(tracer, "srm.anchor", srm.anchor_feedback)

    def reranked(args, result):
        candidates, model_dist = args[:2]
        return {"term_evals": len(candidates) * len(model_dist)}

    pipeline.rerank = span(tracer, "srm.rerank", pipeline.rerank, reranked)
    pipeline.qa_score = leaf(tracer, "baselines.qa_score", baselines.qa_score)

    evalkit.write_run_file = span(tracer, "evalkit.write_run", evalkit.write_run_file)
    evalkit.parse_run_file = span(tracer, "evalkit.parse_run", evalkit.parse_run_file)
    evalkit.session_metrics = span(tracer, "evalkit.metrics", evalkit.session_metrics)
    evalkit.average_precision = span(tracer, "evalkit.metrics", evalkit.average_precision)
    evalkit.build_report = span(tracer, "evalkit.metrics", evalkit.build_report)

    def tuned(args, result):
        sessions = args[0]
        table = result[1]
        return {"grid_points": len(table), "session_slots": len(sessions) * len(table)}

    evalkit.grid_tune = span(tracer, "evalkit.grid", evalkit.grid_tune, tuned)


def file_sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv, tracer):
    """Run one CLI command; return (exit code, start, end)."""
    root = tracer.open("cli.command") if tracer else None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    except Exception as exc:  # a crash is a failed operation, not a harness error
        print(f"command {argv[0]} raised {exc!r}", file=sys.stderr)
        code = -1
    end = time.perf_counter()
    if tracer:
        tracer.close(root)
    return code, start, end


# Each module's total self time. Every span name starts with one of these
# modules, so together they add up to the traced command time.
MODULE_SELF_TIME = {
    "analysis": "analysis.busy_s",
    "index": "index.self_s",
    "lm": "lm.first_pass_s",
    "session": "session.self_s",
    "srm": "srm.self_s",
    "baselines": "baselines.qa_score_s",
    "pipeline": "pipeline.self_s",
    "evalkit": "evalkit.self_s",
    "cli": "cli.self_s",
    "trace": "trace.self_s",
}
# Self time of single span names inside modules that record several.
SPAN_SELF_TIME = {
    "index.read_corpus_s": "index.read_corpus",
    "index.build_s": "index.build",
    "index.save_s": "index.save",
    "index.load_s": "index.load",
    "session.load_s": "session.load",
    "session.select_feedback_s": "session.select_feedback",
    "srm.build_model_s": "srm.build_model",
    "srm.feedback_model_s": "srm.feedback_model",
    "srm.anchor_s": "srm.anchor",
    "srm.rerank_s": "srm.rerank",
    "evalkit.parse_run_s": "evalkit.parse_run",
    "evalkit.metrics_s": "evalkit.metrics",
    "evalkit.write_run_s": "evalkit.write_run",
    "evalkit.qrels_s": "evalkit.qrels",
    "evalkit.grid_s": "evalkit.grid",
}


def layer_metrics(tracer: tracing.Tracer, first: int, state: TraceState) -> dict:
    """Per-layer metrics of the spans recorded since index `first`."""
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i in range(first, len(tracer.spans)):
        by_name.setdefault(tracer.spans[i][tracing.NAME], []).append(i)

    def spans(name):
        return [tracer.spans[i] for i in by_name.get(name, ())]

    def total(name, field):
        return sum((s[tracing.COUNTS] or {}).get(field, 0) for s in spans(name))

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {metric: sum(own[i] for i in by_name.get(name, ()))
           for metric, name in SPAN_SELF_TIME.items()}
    for module, metric in MODULE_SELF_TIME.items():
        out[metric] = sum(own[i] for name, idx in by_name.items()
                          if name.split(".")[0] == module for i in idx)

    tokens = total("analysis.analyze", "tokens")
    out["analysis.calls"] = total("analysis.analyze", "calls")
    out["analysis.tokens"] = tokens
    out["analysis.distinct_token_share"] = share(len(state.terms), tokens)

    shaped = spans("index.build") + spans("index.load")
    out["index.terms"] = shaped[-1][tracing.COUNTS]["terms"] if shaped else 0
    out["index.postings"] = shaped[-1][tracing.COUNTS]["postings"] if shaped else 0
    sized = spans("index.save") + spans("index.load")
    out["index.snapshot_bytes"] = sized[-1][tracing.COUNTS]["snapshot_bytes"] if sized else 0

    calls = len(spans("lm.first_pass"))
    out["lm.first_pass_calls"] = calls
    out["lm.first_pass_matched"] = total("lm.first_pass", "matched")
    out["lm.first_pass_returned"] = total("lm.first_pass", "returned")
    out["lm.depth_capped_share"] = share(total("lm.first_pass", "capped"), calls)
    out["lm.first_pass_repeat_share"] = share(total("lm.first_pass", "repeat"), calls)

    feedback = spans("session.select_feedback")
    out["session.select_feedback_calls"] = len(feedback)
    out["session.select_feedback_repeat_share"] = share(
        total("session.select_feedback", "repeat"), len(feedback))
    for source in ("clicks", "pseudo", "empty"):
        out[f"session.feedback_{source}"] = sum(
            s[tracing.COUNTS]["source"] == source for s in feedback)

    models = spans("srm.build_model")
    out["srm.rerank_calls"] = len(spans("srm.rerank"))
    out["srm.rerank_term_evals"] = total("srm.rerank", "term_evals")
    out["srm.feedback_model_calls"] = len(spans("srm.feedback_model"))
    out["srm.model_terms_mean"] = share(total("srm.build_model", "model_terms"), len(models))

    out["baselines.qa_score_calls"] = total("baselines.qa_score", "calls")

    scored = len(spans("pipeline.session"))
    grid_slots = total("evalkit.grid", "session_slots")
    out["pipeline.sessions"] = scored
    out["pipeline.skipped"] = total("pipeline.run", "skipped") + (
        grid_slots - scored if grid_slots else 0)
    out["evalkit.grid_points"] = total("evalkit.grid", "grid_points")
    out["evalkit.grid_scorings"] = scored if grid_slots else 0

    out["trace.command_s"] = sum(s[tracing.BUSY] for s in spans("cli.command"))
    out["trace.spans"] = len(tracer.spans) - first
    return out


def self_times_add_up(layers: dict) -> bool:
    """The module self times account for the traced command time."""
    covered = math.fsum(layers[metric] for metric in MODULE_SELF_TIME.values())
    return abs(covered - layers["trace.command_s"]) <= 1e-6 * layers["trace.command_s"]


def run_rep(job, probes: Probes, tracer, state) -> dict:
    gc.collect()
    if state:
        state.reset()
    first = len(tracer.spans) if tracer else 0
    speed = probes.speed
    speed.reset()
    probes.reset()
    speed.sample()
    code, start, end = run_cli(job["main"], tracer)
    speed.sample()
    mark = probes.mark
    rep = {
        "exit": code,
        "command_s": speed.elapsed(start, end),
        "wall_s": speed.elapsed(start, end, calibrated=False),
        "setup_s": speed.elapsed(start, mark) if mark else None,
        "work_s": speed.elapsed(mark, end) if mark else None,
        "units": len(probes.units),
        "unit_s": [speed.elapsed(a, b) for a, b in probes.units],
    }
    if probes.rankings is not None:
        rep["rankings_sha256"], rep["nonfinite_scores"] = rankings_digest(probes.rankings)
        probes.rankings = None
    rep["after"] = []
    for argv in job["after"]:
        code, start, end = run_cli(argv, tracer)
        speed.sample()
        rep["after"].append({"exit": code, "command_s": speed.elapsed(start, end),
                             "wall_s": speed.elapsed(start, end, calibrated=False)})
    rep["slowdown"] = speed.slowdown()
    rep["outputs"] = {Path(p).name: file_sha256(Path(p)) for p in job["outputs"]}
    if tracer:
        rep["layers"] = layer_metrics(tracer, first, state)
        rep["self_times_add_up"] = self_times_add_up(rep["layers"])
    return rep


def setup_only_run(job, probes: Probes) -> float | None:
    """Set-up time of the main command, stopped at its first unit of work."""
    gc.collect()
    probes.reset(setup_only=True)
    probes.speed.reset()
    probes.speed.sample()
    code, start, _ = run_cli(job["main"], None)
    return probes.speed.elapsed(start, probes.mark) if code == 0 and probes.mark else None


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    probes = Probes(Speed(enabled=not job["trace"]))
    install_probes(job["kind"], probes)
    tracer = state = None
    if job["trace"]:
        tracer, state = tracing.Tracer(), TraceState()
        install_tracing(tracer, state)

    # Set-up is one long step with no unit boundaries inside for speed
    # samples to split, so each sample of it scales less well than the
    # units do. Before each repeat, set-up-only runs (the command stopped at
    # its first unit) add job["setup_runs"] samples to the repeat's own.
    reps, setup = [], []
    started = time.perf_counter()
    while len(reps) < job["min_reps"] or time.perf_counter() - started < job["seconds"]:
        for _ in range(0 if tracer else job["setup_runs"]):
            setup.append(setup_only_run(job, probes))
        reps.append(run_rep(job, probes, tracer, state))
        setup.append(reps[-1]["setup_s"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    Path(job["result"]).write_text(
        json.dumps({"reps": reps, "setup_s": setup, "peak_rss_mb": peak_rss_mb}),
        encoding="utf-8")
    if tracer:
        with open(job["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
