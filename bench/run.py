"""sessionsearch benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload replay-srm --seed 1 --seconds 10 --trace 0

Run from anywhere; paths are resolved from this file. Standard library only.
Steps:

1. Generate the workload's inputs from the seed (gen.py) and, for the
   replay and tune workloads, index the corpus with the real ``index``
   command.
2. Start a fresh measuring process (probe.py) that runs the workload's CLI
   commands in-process, one after another, until --seconds have passed and
   at least three times, each repeat preceded by two runs of set-up alone.
   Times are scaled to full machine speed by a reference loop sampled
   between units of work (probe.Speed).
   With --trace 1, a second fresh process repeats the commands with spans
   around every layer, and the first one gives the untraced baseline for
   the tracing overhead.
3. Check the outputs (checks.py): exit codes, run files that parse back to
   the rankings the program held, finite scores, eval reproducing run's
   report, brute-force rankings from tests/oracle.py on a depth-capped, a
   pseudo-click, an empty-feedback and an ordinary session, every tune table
   row, index contents, and byte-identical outputs across the
   repeats and across earlier runs of the same program, seed and inputs.
4. Print each metric by name with its unit, then, as the last line, the
   JSON object {"correct", "attempted", "failed", "metrics"}.

Everything is written under bench/work/: inputs of the current run (removed
at the end), and in bench/work/results/ the full result of every run
(environment, input and output SHA-256, property shares, all metrics) and,
for traced runs, the spans.

Timing is wall clock with a warm page cache on whatever else the machine is
running; nothing drops caches or traces the whole system. Commands run one
at a time in a closed loop: the next starts when the previous one ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
RESULTS = WORK / "results"
DEADLINE_S = 170.0
MIN_REPS = 3
SETUP_RUNS = 2
# Sessions compared with brute force: one depth-capped, one with pseudo-click
# feedback, one with a step whose feedback is empty, and one ordinary.
ORACLE_KINDS = ("capped", "pseudo", "empty", "ordinary")
LAMBDAS = "0.3,0.5,0.7"
GAMMAS = "0.3,0.5,0.7"
GRID_POINTS = len(LAMBDAS.split(",")) * len(GAMMAS.split(","))

# Why each workload exists is in BENCHMARK.json. Sizes keep one run, with
# input generation and checks, near 20 s on two quiet cores and under 40 s
# when a shared machine runs 1.8x slower, and give
# every workload at least 200 units so that ten lie beyond the 95th
# percentile (replay: 240 sessions less 6 skipped; tune: 23 scored x 9).
WORKLOADS = {
    "ingest": {"kind": "index", "docs": 10000, "sessions": 0},
    "replay-srm": {"kind": "run", "docs": 10000, "sessions": 240, "method": "srm-qc"},
    "replay-qa": {"kind": "run", "docs": 10000, "sessions": 240, "method": "qa-decay"},
    "tune-srm": {"kind": "tune", "docs": 10000, "sessions": 24, "method": "srm-qc"},
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def program_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sessionsearch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """One benchmark run: inputs, measuring processes, checks and results."""

    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.started = time.monotonic()
        self.name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.dir = WORK / self.name
        self.checks: list[tuple[str, bool]] = []
        self.operations = 0
        self.failed_ops = 0
        self.extra: dict = {}
        self.properties: dict = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    # -- inputs ----------------------------------------------------------
    def prepare(self):
        import gen
        from sessionsearch import cli

        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        spec = self.spec
        self.designed = gen.generate(self.args.seed, spec["docs"], spec["sessions"], self.dir)
        self.corpus = self.dir / "corpus.jsonl"
        self.sessions = self.dir / "sessions.json"
        self.qrels = self.dir / "qrels.txt"
        self.inputs_sha = {p.name: sha256_file(p) for p in (self.corpus, self.sessions, self.qrels)}
        if spec["kind"] == "index":
            self.snapshot = self.dir / "ingest.idx"
            return
        self.snapshot = self.dir / "corpus.idx"
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["index", "--corpus", str(self.corpus), "--out", str(self.snapshot)])
        if code != 0:
            raise RuntimeError("indexing the replay corpus failed")

    def job(self, traced: bool) -> dict:
        d, spec = self.dir, self.spec
        common = {"kind": spec["kind"], "trace": traced, "seconds": self.args.seconds,
                  "min_reps": MIN_REPS, "setup_runs": SETUP_RUNS}
        if spec["kind"] == "index":
            main = ["index", "--corpus", str(self.corpus), "--out", str(self.snapshot)]
            return dict(common, main=main, after=[], outputs=[str(self.snapshot)])
        if spec["kind"] == "run":
            run, report, ev = d / "run.txt", d / "report.json", d / "eval.json"
            main = ["run", "--index", str(self.snapshot), "--sessions", str(self.sessions),
                    "--qrels", str(self.qrels), "--out", str(run), "--report", str(report),
                    "--method", spec["method"]]
            after = [["eval", "--run", str(run), "--qrels", str(self.qrels),
                      "--sessions", str(self.sessions), "--report", str(ev)]]
            return dict(common, main=main, after=after, outputs=[str(run), str(report), str(ev)])
        best = d / "best.json"
        main = ["tune", "--index", str(self.snapshot), "--sessions", str(self.sessions),
                "--qrels", str(self.qrels), "--method", spec["method"], "--lambda", LAMBDAS,
                "--gamma", GAMMAS, "--out", str(best)]
        return dict(common, main=main, after=[], outputs=[str(best)])

    def measure(self, traced: bool) -> dict:
        tag = "traced" if traced else "timed"
        job = dict(self.job(traced), result=str(self.dir / f"{tag}.json"),
                   spans=str(RESULTS / f"{self.name}.spans.jsonl"))
        job_path = self.dir / f"{tag}-job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        with open(self.dir / f"{tag}.log", "w", encoding="utf-8") as log:
            subprocess.run([sys.executable, "-B", str(BENCH / "probe.py"), str(job_path)],
                           stdout=log, stderr=log, cwd=ROOT, check=True,
                           timeout=max(1.0, remaining))
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        for rep in result["reps"]:
            commands = [rep] + rep["after"]
            self.operations += len(commands) + rep["units"]
            self.failed_ops += sum(c["exit"] != 0 for c in commands) + rep.get(
                "nonfinite_scores", 0)
        return result

    # -- checks ----------------------------------------------------------
    def check_repeats(self, results: list[dict]) -> dict:
        """Every repeat, traced or not, wrote the same bytes; so did earlier runs."""
        reps = [rep for result in results for rep in result["reps"]]
        outputs = reps[0]["outputs"]
        self.check("outputs written", all(v is not None for v in outputs.values()))
        self.check("outputs identical across repeats", all(r["outputs"] == outputs for r in reps))
        digests = {r.get("rankings_sha256") for r in reps}
        self.check("rankings identical across repeats", len(digests) == 1)
        key = f"{self.args.workload}:{self.args.seed}:{program_sha256()}:" + ":".join(
            sorted(self.inputs_sha.values()))
        history_path = RESULTS / "hashes.json"
        history = json.loads(history_path.read_text()) if history_path.is_file() else {}
        earlier = history.setdefault(key, outputs)
        self.check("outputs identical to earlier runs of this seed", earlier == outputs)
        tmp = history_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(history, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(history_path)
        return outputs

    def check_outputs(self, reps: list[dict]) -> None:
        from sessionsearch import evalkit
        from sessionsearch.index import InvertedIndex

        import checks

        kind = self.spec["kind"]
        index = InvertedIndex.load(self.snapshot)
        if kind == "index":
            self.check_ingest(index)
            return
        raw_sessions = json.loads(self.sessions.read_text(encoding="utf-8"))["sessions"]
        kinds = self.record_input_properties(index, raw_sessions)
        rng = random.Random(f"oracle:{self.args.seed}")
        if kind == "run":
            run_path = self.dir / "run.txt"
            parsed = evalkit.parse_run_file(run_path)
            digest, nonfinite = checks.rankings_digest(parsed)
            self.check("run file parses back to the in-memory rankings",
                       digest == reps[0]["rankings_sha256"])
            self.check("run file scores finite", nonfinite == 0)
            report = checks.read_json(self.dir / "report.json")
            evaluated = checks.read_json(self.dir / "eval.json")
            self.check("eval reproduces run's report",
                       evaluated["mean"] == report["mean"]
                       and evaluated["per_session"] == report["per_session"])
            self.check("report means finite", checks.all_finite(report["mean"].values()))
            self.check("skipped exactly the stopword-only queries",
                       sorted(report["skipped"]) == sorted(self.designed["empty_current_ids"]))
            self.check("every other session ranked",
                       len(parsed) + len(report["skipped"]) == len(raw_sessions))
            # Self-test: one score moved by one ulp must change the digest.
            first = next(iter(parsed))
            doc_id, score = parsed[first][0]
            perturbed = dict(parsed)
            perturbed[first] = [(doc_id, math.nextafter(score, math.inf))] + parsed[first][1:]
            self.check("self-test: a perturbed score is detected",
                       checks.rankings_digest(perturbed)[0] != reps[0]["rankings_sha256"])
            rankings = parsed
            self.extra["map"] = report["mean"]["map"]
            self.extra["ndcg_at_10"] = report["mean"]["ndcg@10"]
            config = self.config()
        else:
            rankings, config = self.check_tune(index, raw_sessions)
        self.check_oracle(index, raw_sessions, kinds, rankings, config, rng)

    def config(self, **overrides):
        from sessionsearch import pipeline

        return pipeline.RunConfig(method=self.spec["method"], **overrides)

    def check_oracle(self, index, raw_sessions, kinds, rankings, config, rng):
        """Brute force on one session of each kind, drawn by the seed."""
        import oracle as oracle_module

        import checks
        from sessionsearch.analysis import analyze

        sample = []
        for kind in ORACLE_KINDS:
            pool = sorted(sid for sid, k in kinds.items()
                          if kind in k and sid in rankings and sid not in sample)
            if pool:
                sample.append(rng.choice(pool))
        self.check("oracle sample has a session of every kind", len(sample) == len(ORACLE_KINDS))
        chosen = [raw for raw in raw_sessions if raw["session_id"] in sample]
        brute = checks.Oracle(oracle_module, index, analyze, config)
        checked, failures, perturbed = checks.check_rankings(brute, chosen, rankings,
                                                             config.method)
        self.properties["oracle_sessions_checked"] = sample
        self.check("every sampled session checked", checked == len(sample))
        self.check("rankings match the brute-force oracle", failures == 0)
        self.check("self-test: a perturbed ranking fails the oracle check", perturbed is True)

    def check_tune(self, index, raw_sessions):
        from sessionsearch import evalkit, pipeline
        from sessionsearch.session import load_sessions

        import checks

        best = checks.read_json(self.dir / "best.json")
        table = best["table"]
        grid = {(lam, gam) for lam in map(float, LAMBDAS.split(","))
                for gam in map(float, GAMMAS.split(","))}
        self.check("tune table covers the grid",
                   {(row["params"]["lam"], row["params"]["gamma"]) for row in table} == grid
                   and len(table) == len(grid))
        maps = [row["map"] for row in table]
        self.check("tune MAP values finite and in [0, 1]",
                   checks.all_finite(maps) and all(0.0 <= v <= 1.0 for v in maps))
        winner = max(range(len(table)), key=lambda i: (maps[i], -i))
        self.check("tune best is the first highest MAP",
                   best["best_map"] == maps[winner]
                   and best["best"]["lam"] == table[winner]["params"]["lam"]
                   and best["best"]["gamma"] == table[winner]["params"]["gamma"])
        self.extra["map"] = best["best_map"]
        # Every row's MAP, recomputed session by session. Points run in the
        # reverse of tune's order, so a cache in the program that ignored a
        # parameter would hand these points other work than it handed tune.
        qrels = evalkit.Qrels.from_trec_file(self.qrels)
        sessions = [sess for sess in load_sessions(self.sessions) if sess.current_query.tokens]
        rows_ok, best_rankings = True, None
        for row in reversed(table):
            config = self.config(lam=row["params"]["lam"], gamma=row["params"]["gamma"])
            rankings = {sess.session_id: pipeline.score_session(sess, index, config)
                        for sess in sessions}
            values = [evalkit.average_precision([d for d, _ in rankings[sess.session_id]],
                                                qrels.for_topic(sess.topic_id))
                      for sess in sessions]
            rows_ok = rows_ok and math.fsum(values) / len(values) == row["map"]
            if row is table[winner]:
                best_rankings, best_config = rankings, config
        self.check("every tune row's MAP reproduced by scoring each session", rows_ok)
        self.check("tune rankings finite", checks.all_finite(
            score for ranking in best_rankings.values() for _, score in ranking))
        return best_rankings, best_config

    def check_ingest(self, index):
        from collections import Counter

        from sessionsearch.analysis import analyze

        docs = [json.loads(line) for line in self.corpus.read_text(encoding="utf-8").splitlines()]
        self.check("snapshot holds every document", index.stats.num_docs == len(docs))
        rng = random.Random(f"ingest:{self.args.seed}")
        sample = rng.sample(docs, 50)
        self.check("sampled documents hold their analyzed term counts", all(
            dict(index.doc(d["id"]).term_counts) == dict(Counter(analyze(d["text"]).tokens))
            for d in sample))
        import oracle

        coll = oracle.build_collection(
            {doc_id: rec.term_counts for doc_id, rec in index.doc_table.items()})
        self.check("document lengths match their term counts", all(
            rec.length == coll["len"][doc_id] for doc_id, rec in index.doc_table.items()))
        self.check("collection statistics match a brute-force recount",
                   index.stats.total_tokens == coll["total"]
                   and dict(index.stats.collection_tf) == coll["cf"]
                   and dict(index.stats.doc_freq) == coll["df"])
        self.check("postings match the document table", len(index.postings) == len(coll["cf"])
                   and all(len(index.postings[t]) == coll["df"][t]
                           and sum(c for _, c in index.postings[t]) == coll["cf"][t]
                           for t in coll["cf"]))
        self.properties["distinct_token_share"] = len(coll["cf"]) / coll["total"]

    def record_input_properties(self, index, raw_sessions) -> dict:
        """Shares of the input properties the program's costs depend on.

        Returns the kinds of each served session: "capped" when its first
        pass matches more documents than the depth keeps, "pseudo" and
        "empty" when a step's feedback comes from pseudo-clicks or from
        nothing, "ordinary" when none of these hold.
        """
        from sessionsearch.analysis import analyze
        from sessionsearch.lm import known_terms_only
        from sessionsearch.session import load_sessions, select_feedback_docs

        config = self.config()
        kinds = {}
        sources = {"clicks": 0, "pseudo": 0, "empty": 0}
        for sess in load_sessions(self.sessions):
            query = known_terms_only(sess.current_query, index.stats)
            if not sess.current_query.tokens:
                continue
            matched = set()
            for term in set(query.tokens):
                matched.update(doc_id for doc_id, _ in index.postings[term])
            own = {"capped"} if len(matched) > config.depth else set()
            for t in range(1, len(sess.history) + 2):
                q_t = sess.history[t - 1].query if t <= len(sess.history) else sess.current_query
                if not q_t.tokens:
                    continue
                feedback = select_feedback_docs(sess, t, config.m, config.mu, index)
                source = "empty" if not feedback.doc_ids else feedback.source.value
                sources[source] += 1
                if source != "clicks":
                    own.add(source)
            kinds[sess.session_id] = own or {"ordinary"}
        steps = sum(sources.values())
        self.properties.update({
            "sessions": len(raw_sessions),
            "skipped": len(raw_sessions) - len(kinds),
            "depth_capped_share": sum("capped" in k for k in kinds.values()) / len(kinds),
            **{f"feedback_{k}_share": v / steps for k, v in sources.items()},
            "stopword_only_history_queries": sum(
                not analyze(step["query"]).tokens for raw in raw_sessions for step in raw["steps"]),
        })
        return kinds

    # -- metrics ---------------------------------------------------------
    def end_to_end(self, timed: dict) -> dict:
        # Times are at full machine speed (probe.Speed) and each is the
        # median over the repeats.
        reps = timed["reps"]
        kind = self.spec["kind"]
        served = self.spec["sessions"] - len(self.designed["empty_current_ids"])
        # Units come from the inputs, not from the probes, so a program that
        # reaches them by other calls (a staged tune, say) is counted alike.
        expected = {"index": self.spec["docs"], "run": served, "tune": served * GRID_POINTS}
        self.check("set-up measured in every sample", all(s is not None for s in timed["setup_s"]))
        metrics = {
            "setup_s": statistics.median(s or math.nan for s in timed["setup_s"]),
            "command_s": statistics.median(r["command_s"] for r in reps),
            "units_per_s": expected[kind] / statistics.median(r["work_s"] or math.nan
                                                              for r in reps),
            "peak_rss_mb": timed["peak_rss_mb"],
            "snapshot_bytes_per_corpus_byte":
                self.snapshot.stat().st_size / self.corpus.stat().st_size,
        }
        # Users run each command in a fresh process; repeats share one, so
        # work kept from an earlier repeat would time what users never get.
        most = max(r["units"] for r in reps)
        self.check("every repeat did the same units", all(r["units"] == most for r in reps))
        units = [statistics.median(times) for times in zip(*(r["unit_s"] for r in reps))]
        unit = "doc" if kind == "index" else "session"
        self.extra["index_docs_per_s" if kind == "index" else "sessions_per_s"] = metrics[
            "units_per_s"]
        if units:
            self.extra[f"{unit}_ms_p50"] = 1000.0 * statistics.median(units)
        # A percentile is reported only with ten or more samples beyond it.
        if len(units) - math.ceil(0.95 * len(units)) >= 10:
            self.extra[f"{unit}_ms_p95"] = 1000.0 * percentile(units, 0.95)
        self.extra["unit_samples"] = len(units)
        self.extra["repeats"] = len(reps)
        self.extra["command_wall_s"] = statistics.median(r["wall_s"] for r in reps)
        self.extra["slowdown"] = statistics.median(r["slowdown"] for r in reps)
        if kind == "run":
            self.extra["eval_s"] = statistics.median(r["after"][0]["command_s"] for r in reps)
        if kind == "tune":
            self.extra["grid_points_per_s"] = metrics["units_per_s"] / served
        return metrics

    def per_layer(self, timed: dict, traced: dict) -> dict:
        layers = [rep["layers"] for rep in traced["reps"]]
        self.check("module self times add up to the traced command time",
                   all(rep["self_times_add_up"] for rep in traced["reps"]))
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}

        def sequence_s(rep):
            return rep["wall_s"] + sum(a["wall_s"] for a in rep["after"])

        untraced = statistics.median(sequence_s(r) for r in timed["reps"])
        metrics["trace.overhead_share"] = (
            statistics.median(sequence_s(r) for r in traced["reps"]) / untraced - 1.0)
        return metrics

    def environment(self) -> dict:
        return {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "limits": "wall clock scaled to full speed by a reference loop (untraced runs); "
                      "warm page cache; no cache dropping; no system-wide "
                      "tracing; one command at a time (closed loop) on a machine that may be "
                      "shared; peak_rss_mb is ru_maxrss of a fresh measuring process",
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "sessionsearch" / "cli.py",
              ROOT / "tests" / "oracle.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RESULTS.mkdir(parents=True, exist_ok=True)

    run = Run(args)
    try:
        run.prepare()
        timed = run.measure(traced=False)
        traced = run.measure(traced=True) if args.trace else None
        outputs = run.check_repeats([timed] + ([traced] if traced else []))
        run.check_outputs(timed["reps"])
        e2e = run.end_to_end(timed)
        layers = run.per_layer(timed, traced) if traced else {}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    chosen = declared["per_layer"] if args.trace else declared["end_to_end"]
    values = layers if args.trace else e2e
    absent = [m["name"] for m in chosen if m["name"] not in values]
    if absent:
        raise RuntimeError(f"metrics not measured: {absent}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    failed_checks = sum(not ok for _, ok in run.checks)
    attempted = run.operations + len(run.checks)
    failed = run.failed_ops + failed_checks
    run.extra["failed_ratio"] = failed / attempted
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": run.environment(),
        "designed": run.designed,
        "properties": run.properties,
        "inputs_sha256": run.inputs_sha,
        "outputs_sha256": outputs,
        "program_sha256": program_sha256(),
        "checks": [{"name": name, "ok": ok} for name, ok in run.checks],
        "end_to_end": e2e,
        "workload_metrics": run.extra,
        "per_layer": layers,
    }
    (RESULTS / f"{run.name}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    for name, ok in run.checks:
        if not ok:
            print(f"check failed: {name}")
    for name, entry in metrics.items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    for name, value in sorted(run.extra.items()):
        print(f"{args.workload} [{name}] {value:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
