"""End-to-end command-line behavior through the real argument parser."""

import argparse
import dataclasses
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sessionsearch import cli, evalkit, pipeline
from sessionsearch.analysis import analyze
from sessionsearch.cli import _build_parser, main
from sessionsearch.evalkit import parse_run_file
from sessionsearch.index import InvertedIndex, Postings
from sessionsearch.lm import top_k_by_query_likelihood
from sessionsearch.pipeline import RunConfig
from sessionsearch.session import load_sessions

CORPUS_DOCS = [
    {"id": "d1", "text": "jazz club downtown jazz music"},
    {"id": "d2", "text": "rock club loud rock music"},
    {"id": "d3", "text": "quiet jazz records shop"},
]

SESSIONS = {
    "sessions": [
        {
            "session_id": "s1",
            "topic_id": "t1",
            "steps": [
                {
                    "query": "jazz",
                    "impressions": ["d1", "d3"],
                    "clicks": [{"doc": "d1"}],
                }
            ],
            "current_query": "jazz club",
        },
        {
            "session_id": "s2",
            "topic_id": "t1",
            "steps": [],
            "current_query": "the",
        },
    ]
}

QRELS_TEXT = "t1 0 d1 2\nt1 0 d3 1\n"


def write_corpus(tmp_path, docs=None):
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(doc) for doc in (CORPUS_DOCS if docs is None else docs)]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def write_sessions(tmp_path, payload=None, name="sessions.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload if payload is not None else SESSIONS), encoding="utf-8")
    return path


def write_qrels(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text(QRELS_TEXT, encoding="utf-8")
    return path


def run_declared_script(args, cwd):
    """Run the `sessionsearch` console script as pyproject.toml declares it.

    Starts a fresh interpreter on the code an installer's generated wrapper
    runs for the `[project.scripts]` entry, with the package directory from
    `[tool.setuptools.packages.find]` first on its path, so no install and
    no particular working directory is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    scripts = pyproject["project"].get("scripts", {})
    assert "sessionsearch" in scripts, "pyproject.toml declares no sessionsearch script"
    module, _, attr = scripts["sessionsearch"].partition(":")
    find = pyproject["tool"]["setuptools"]["packages"]["find"]
    path = [str(root / where) for where in find["where"]]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60, cwd=cwd, env=env,
    )


@pytest.fixture
def workspace(tmp_path):
    corpus = write_corpus(tmp_path)
    index = tmp_path / "snapshot.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(index)]) == 0
    return {
        "dir": tmp_path,
        "index": index,
        "sessions": write_sessions(tmp_path),
        "qrels": write_qrels(tmp_path),
    }


class TestIndexCommand:
    def test_reports_counts_and_writes_snapshot(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "snapshot.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == f"indexed 3 documents, 9 distinct terms -> {out}\n"
        assert out.is_file()
        index = InvertedIndex.load(out)
        assert index.stats.num_docs == 3

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        rc = main(["index", "--corpus", str(missing), "--out", str(tmp_path / "x.idx")])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d1", "text": "ok"}\nnot json\n', encoding="utf-8")
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "x.idx")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_doc_id_rejected(self, tmp_path, capsys):
        docs = [CORPUS_DOCS[0], CORPUS_DOCS[0]]
        corpus = write_corpus(tmp_path, docs)
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "x.idx")])
        assert rc == 2
        assert "d1" in capsys.readouterr().err

    # "d\ud800" is a lone surrogate, which a JSON escape gives and UTF-8 cannot encode.
    @pytest.mark.parametrize("doc_id", ["", "d 4", "d\t4", "d4\n", "d\u20034", "d\ud800"])
    def test_doc_id_a_run_file_cannot_hold_rejected(self, tmp_path, capsys, doc_id):
        corpus = write_corpus(tmp_path, [CORPUS_DOCS[0], {"id": doc_id, "text": "jazz"}])
        out = tmp_path / "x.idx"
        rc = main(["index", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "corpus.jsonl: line 2" in err[0] and repr(doc_id) in err[0]
        assert not out.exists()

    def test_empty_corpus_warns_but_succeeds(self, tmp_path, capsys, caplog):
        corpus = write_corpus(tmp_path, [])
        out = tmp_path / "empty.idx"
        with caplog.at_level("WARNING", logger="sessionsearch"):
            rc = main(["index", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 0
        assert "empty" in caplog.text
        assert capsys.readouterr().out == f"indexed 0 documents, 0 distinct terms -> {out}\n"
        assert out.is_file()

    def test_derives_no_postings_or_stats(self, tmp_path, monkeypatch):
        # The counts come from the document table; the snapshot holds only it.
        built = []

        def build_index(docs):
            built.append(real_build(docs))
            return built[-1]

        real_build = cli.build_index
        monkeypatch.setattr(cli, "build_index", build_index)
        corpus = write_corpus(tmp_path)
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "x.idx")]) == 0
        (index,) = built
        assert not {"postings", "stats", "lengths"} & vars(index).keys()


def test_loaded_index_is_derived_before_the_block(workspace, monkeypatch):
    # The statistics, lengths and the postings of the sessions' query terms
    # are derived inside the collector pause and before the freeze, not at
    # the first read while sessions are scored; no other term's postings are.
    states = []
    real_gather = Postings.gather

    def gather(postings, terms):
        states.append((gc.isenabled(), gc.get_freeze_count()))
        real_gather(postings, terms)

    monkeypatch.setattr(Postings, "gather", gather)
    frozen = gc.get_freeze_count()
    sessions = load_sessions(workspace["sessions"])
    with cli._loaded_index(str(workspace["index"]), sessions) as index:
        assert {"postings", "stats", "lengths"} <= vars(index).keys()
        assert index.postings._views.keys() == {"jazz", "club"}
    assert states == [(False, frozen)]


# Two sessions whose queries hold five of the corpus's nine terms, and a
# history query word ("saxophone") the corpus lacks.
VOCABULARY_SESSIONS = {"sessions": [
    {"session_id": "s1", "topic_id": "t1", "current_query": "jazz club",
     "steps": [{"query": "jazz saxophone", "impressions": ["d1", "d3"],
                "clicks": [{"doc": "d1"}]}]},
    {"session_id": "s2", "topic_id": "t1", "current_query": "quiet records",
     "steps": [{"query": "shop", "impressions": ["d3"]}]},
]}


@pytest.mark.parametrize("command", ["run", "tune"])
@pytest.mark.parametrize("method", pipeline.METHODS)
def test_commands_derive_only_the_postings_of_the_sessions_query_terms(
    workspace, monkeypatch, command, method
):
    loaded = []
    real_load = InvertedIndex.load
    monkeypatch.setattr(InvertedIndex, "load",
                        lambda path: loaded.append(real_load(path)) or loaded[-1])
    d = workspace["dir"]
    sessions = write_sessions(d, VOCABULARY_SESSIONS)
    inputs = ["--index", str(workspace["index"]), "--sessions", str(sessions),
              "--qrels", str(workspace["qrels"]), "--method", method]
    if command == "run":
        argv = ["run", *inputs, "--out", str(d / "run.txt"), "--m", "2"]
    else:
        argv = ["tune", *inputs, "--mu", "10,2500", "--m", "1,2"]
    assert main(argv) == 0
    (index,) = loaded
    (lacking,) = analyze("saxophone").tokens
    assert lacking not in index.stats.doc_freq
    vocabulary = {"jazz", "club", "quiet", "record", "shop"}
    assert index.postings._views.keys() == vocabulary
    assert index.postings.get(lacking, ()) == ()
    assert index.postings._views.keys() == vocabulary


class TestRunCommand:
    @pytest.mark.parametrize("mu, head", [("5e-324", "mu=5e-324 is too small: "),
                                          ("1.7e308", "mu=1.7e+308 is too large: ")])
    def test_mu_whose_background_mass_is_0_or_inf_fails_cleanly(self, workspace, capsys, mu, head):
        # mu * cf / |C| rounds to 0.0 (a log of it fails) or overflows (every
        # score would be inf, ranking by doc id): both name mu instead.
        out = workspace["dir"] / "run.txt"
        for method in pipeline.METHODS:
            rc = main([
                "run", "--index", str(workspace["index"]),
                "--sessions", str(workspace["sessions"]), "--out", str(out),
                "--method", method, "--mu", mu,
            ])
            assert rc == 2
            err = capsys.readouterr().err
            tail = r"mu \* P\('\w+'\|C\) is (0\.0|inf)\n"
            assert re.fullmatch(re.escape(f"error: {head}") + tail, err), (method, err)
            assert not out.exists()

    def test_default_method_is_plain_query_likelihood(self, workspace, capsys):
        out = workspace["dir"] / "run.txt"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]), "--out", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "1 sessions scored, 1 skipped" in stdout
        rankings = parse_run_file(out)
        assert set(rankings) == {"s1"}
        index = InvertedIndex.load(workspace["index"])
        expected = top_k_by_query_likelihood(analyze("jazz club"), index, 2500.0, 2000)
        assert rankings["s1"] == expected
        assert out.read_text(encoding="utf-8").split("\n")[0].endswith(" none")

    def test_repeat_invocations_are_byte_identical(self, workspace):
        argv_tail = [
            "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--method", "srm-qc",
        ]
        files = []
        for label in ("a", "b"):
            out = workspace["dir"] / f"run_{label}.txt"
            report = workspace["dir"] / f"report_{label}.json"
            rc = main(["run", *argv_tail, "--out", str(out), "--report", str(report)])
            assert rc == 0
            files.append((out.read_bytes(), report.read_bytes()))
        assert files[0] == files[1]

    def test_every_method_produces_a_ranking(self, workspace):
        for method in ("none", "srm-qc", "srm-rm1", "rm3-qn", "rm3-qprime", "qa-uniform", "qa-decay"):
            out = workspace["dir"] / f"run_{method}.txt"
            rc = main([
                "run", "--index", str(workspace["index"]),
                "--sessions", str(workspace["sessions"]),
                "--out", str(out), "--method", method,
            ])
            assert rc == 0
            rankings = parse_run_file(out)
            assert rankings["s1"], method
            line = out.read_text(encoding="utf-8").split("\n")[0]
            assert line.endswith(f" {method}")

    def test_empty_query_session_is_skipped_and_reported(self, workspace):
        out = workspace["dir"] / "run.txt"
        report = workspace["dir"] / "report.json"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--out", str(out), "--report", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["skipped"] == ["s2"]
        assert set(payload["per_session"]) == {"s1"}
        assert all(0.0 <= v <= 1.0 for v in payload["mean"].values())

    def test_duplicate_session_ids_rejected(self, workspace, capsys):
        doubled = {"sessions": [SESSIONS["sessions"][0], SESSIONS["sessions"][0]]}
        sessions = write_sessions(workspace["dir"], doubled, name="dup.json")
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(sessions), "--out", str(workspace["dir"] / "x.txt"),
        ])
        assert rc == 2
        assert "duplicate session ids" in capsys.readouterr().err

    def test_missing_qrels_file_writes_no_run_file(self, workspace, capsys):
        out = workspace["dir"] / "run.txt"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["dir"] / "nope.txt"), "--out", str(out),
        ])
        assert rc == 2
        assert "nope.txt" in capsys.readouterr().err
        assert not out.exists()

    def test_unsorted_snapshot_rejected(self, workspace, capsys):
        snapshot = json.loads(workspace["index"].read_text(encoding="utf-8"))
        snapshot["docs"] = dict(reversed(snapshot["docs"].items()))
        workspace["index"].write_text(json.dumps(snapshot), encoding="utf-8")
        out = workspace["dir"] / "run.txt"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]), "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "snapshot.idx" in err[0] and "doc_id order" in err[0]
        assert not out.exists()

    def test_snapshot_doc_id_with_whitespace_rejected(self, workspace, capsys):
        snapshot = json.loads(workspace["index"].read_text(encoding="utf-8"))
        snapshot["docs"] = {("d 1" if doc_id == "d1" else doc_id): entry
                            for doc_id, entry in snapshot["docs"].items()}
        workspace["index"].write_text(json.dumps(snapshot), encoding="utf-8")
        out = workspace["dir"] / "run.txt"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]), "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "snapshot.idx" in err[0] and "'d 1'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("session_id", ["", "s 1", "s1\t", "../escaped", "a/b", "a\\b",
                                            ".", "..", "s\ud800"])
    def test_session_id_unfit_for_output_files_rejected(self, workspace, capsys, session_id):
        payload = json.loads(json.dumps(SESSIONS))
        payload["sessions"][0]["session_id"] = session_id
        sessions = write_sessions(workspace["dir"], payload, name="bad_id.json")
        before = sorted(workspace["dir"].rglob("*"))
        rc = main([
            "run", "--index", str(workspace["index"]), "--sessions", str(sessions),
            "--qrels", str(workspace["qrels"]), "--method", "srm-qc",
            "--out", str(workspace["dir"] / "run.txt"),
            "--report", str(workspace["dir"] / "report.json"),
            "--dump-model", str(workspace["dir"] / "models"),
            "--dump-trace", str(workspace["dir"] / "traces"),
        ])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith(f"bad_id.json: session {session_id!r}: "
                               "'session_id' must be a file name without whitespace")
        assert sorted(workspace["dir"].rglob("*")) == before

    def test_missing_topic_writes_no_run_file(self, workspace, capsys):
        qrels = workspace["dir"] / "other_qrels.txt"
        qrels.write_text("t2 0 d1 1\n", encoding="utf-8")
        out = workspace["dir"] / "run.txt"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(qrels), "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'t1'" in err and "'s1'" in err
        assert not out.exists()

    def test_skipped_session_needs_no_topic(self, workspace):
        # s2's current query is a stopword, so it is never scored.
        payload = json.loads(json.dumps(SESSIONS))
        payload["sessions"][1]["topic_id"] = "t9"
        sessions = write_sessions(workspace["dir"], payload, name="t9.json")
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(sessions), "--qrels", str(workspace["qrels"]),
            "--out", str(workspace["dir"] / "run.txt"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("command", ["run", "tune"])
    def test_bad_sessions_reported_before_index_load(self, workspace, capsys, command):
        bad = write_sessions(workspace["dir"], {"sessions": [
            {"session_id": "s1", "topic_id": "t1", "steps": [{"query": 5}],
             "current_query": "jazz"}]}, name="bad.json")
        rc = main([
            command, "--index", str(workspace["dir"] / "absent.idx"),
            "--sessions", str(bad), "--qrels", str(workspace["qrels"]),
            "--out", str(workspace["dir"] / "out.txt"), "--m", "5",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "'query' must be a string" in err
        assert "absent.idx" not in err

    def test_nan_dwell_rejected(self, workspace, capsys, monkeypatch):
        # Python's json reads NaN; it was once kept as the click's dwell.
        payload = json.loads(json.dumps(SESSIONS))
        payload["sessions"][0]["steps"][0]["clicks"][0]["dwell"] = float("nan")
        # A short relative path keeps the line whole (a long one is cut).
        bad = write_sessions(workspace["dir"], payload, name="bad.json").name
        monkeypatch.chdir(workspace["dir"])
        out = workspace["dir"] / "run.txt"
        rc = main([
            "run", "--index", str(workspace["index"]), "--sessions", bad,
            "--qrels", str(workspace["qrels"]), "--out", str(out), "--method", "srm-qc",
        ])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: session 's1': a click's 'dwell' must be a finite number"
                       " >= 0, or null"], err
        assert not out.exists()

    def test_dump_model_and_trace(self, workspace):
        models = workspace["dir"] / "models"
        traces = workspace["dir"] / "traces"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--out", str(workspace["dir"] / "run.txt"),
            "--method", "srm-qc",
            "--dump-model", str(models), "--dump-trace", str(traces),
        ])
        assert rc == 0
        model = json.loads((models / "s1.model.json").read_text(encoding="utf-8"))
        assert sum(model.values()) == pytest.approx(1.0, abs=1e-9)
        trace = json.loads((traces / "s1.trace.json").read_text(encoding="utf-8"))
        assert [record["step"] for record in trace["records"]] == [1, 2]

    def test_plain_methods_dump_no_model(self, workspace):
        models = workspace["dir"] / "models"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--out", str(workspace["dir"] / "run.txt"),
            "--method", "none", "--dump-model", str(models),
        ])
        assert rc == 0
        assert list(models.glob("*.json")) == []

    def test_flag_overrides_config_file_overrides_default(self, workspace):
        config = workspace["dir"] / "params.json"
        config.write_text(json.dumps({"lambda": 0.9, "gamma": 0.7, "clip": 50}), encoding="utf-8")
        report = workspace["dir"] / "report.json"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--out", str(workspace["dir"] / "run.txt"),
            "--report", str(report),
            "--method", "srm-qc", "--config", str(config), "--gamma", "0.3",
        ])
        assert rc == 0
        effective = json.loads(report.read_text(encoding="utf-8"))["config"]
        assert effective["lam"] == 0.9
        assert effective["gamma"] == 0.3
        assert effective["clip_terms"] == 50
        assert effective["mu"] == 2500.0

    def test_unknown_config_field_rejected(self, workspace, capsys):
        config = workspace["dir"] / "params.json"
        config.write_text(json.dumps({"boost": 2}), encoding="utf-8")
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--out", str(workspace["dir"] / "run.txt"), "--config", str(config),
        ])
        assert rc == 2
        assert "boost" in capsys.readouterr().err

    def test_list_valued_config_field_rejected_outside_tune(self, workspace, capsys):
        config = workspace["dir"] / "params.json"
        config.write_text(json.dumps({"lambda": [0.1, 0.5]}), encoding="utf-8")
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--out", str(workspace["dir"] / "run.txt"), "--config", str(config),
        ])
        assert rc == 2
        assert "tune" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--mu", "nan"], "mu"),
            (["--mu", "inf"], "mu"),
            (["--mu", "0"], "mu"),
            (["--mu", "0", "--method", "srm-qc"], "mu"),
            (["--gamma", "5"], "gamma"),
            (["--lambda", "-0.1"], "lam"),
            (["--lambda", "nan"], "lam"),
            (["--m", "0", "--method", "srm-qc"], "m"),
            (["--clip", "0", "--method", "srm-qc"], "clip_terms"),
            (["--decay", "0", "--method", "qa-decay"], "decay"),
            (["--decay", "1.5"], "decay"),
            (["--k", "0"], "k"),
            (["--depth", "0"], "depth"),
        ],
    )
    def test_out_of_range_parameter_rejected_before_scoring(self, workspace, capsys,
                                                              flags, field):
        out = workspace["dir"] / "run.txt"
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]), "--out", str(out), *flags,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be"), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, field",
        [({"mu": 0}, "mu"), ({"lambda": 1.5}, "lam"), ({"clip": 0}, "clip_terms")],
    )
    def test_out_of_range_config_value_rejected(self, workspace, capsys, config, field):
        path = workspace["dir"] / "params.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        rc = main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--out", str(workspace["dir"] / "run.txt"), "--config", str(path),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")


class TestTuneCommand:
    def test_single_point_grid_returns_that_point(self, workspace, capsys):
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--method", "rm3-qn", "--lambda", "0.4",
        ])
        assert rc == 0
        best = json.loads(capsys.readouterr().out.strip().split("\n")[0])
        assert best["lam"] == 0.4
        assert best["method"] == "rm3-qn"

    def test_tie_resolves_to_smallest_value(self, workspace, capsys):
        # Plain QL ignores m entirely, so every grid point ties.
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--method", "none", "--m", "10,5,20",
        ])
        assert rc == 0
        best = json.loads(capsys.readouterr().out.strip().split("\n")[0])
        assert best["m"] == 5

    def test_writes_table_and_is_reproducible(self, workspace):
        outputs = []
        for label in ("a", "b"):
            out = workspace["dir"] / f"tune_{label}.json"
            rc = main([
                "tune", "--index", str(workspace["index"]),
                "--sessions", str(workspace["sessions"]),
                "--qrels", str(workspace["qrels"]),
                "--method", "srm-qc", "--lambda", "0.2,0.8", "--gamma", "0.3,0.7",
                "--out", str(out),
            ])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["grid"] == ["gamma", "lam"]
        assert len(payload["table"]) == 4
        assert payload["best_map"] == max(row["map"] for row in payload["table"])

    def test_config_lists_become_grids(self, workspace, capsys):
        config = workspace["dir"] / "grid.json"
        config.write_text(
            json.dumps({"method": "rm3-qn", "lambda": [0.3], "mu": 500}), encoding="utf-8"
        )
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]), "--config", str(config),
        ])
        assert rc == 0
        best = json.loads(capsys.readouterr().out.strip().split("\n")[0])
        assert best["lam"] == 0.3
        assert best["mu"] == 500.0
        assert best["method"] == "rm3-qn"

    def test_no_grid_rejected(self, workspace, capsys):
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
        ])
        assert rc == 2
        assert "no grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--gamma", "0.5,2"], "gamma"),
            (["--mu", "100,nan"], "mu"),
            (["--m", "0,5"], "m"),
            (["--lambda", "0.5", "--decay", "0"], "decay"),
        ],
    )
    def test_bad_grid_value_reported_before_index_load(self, workspace, capsys, flags, field):
        # The index does not exist: the grid must be checked before it is read.
        rc = main([
            "tune", "--index", str(workspace["dir"] / "absent.idx"),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]), *flags,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be"), err
        assert "absent.idx" not in err

    @pytest.mark.parametrize(
        "flags, config, label",
        [
            (["--lambda", "0.3,0.30"], None, "--lambda: duplicate grid value 0.3"),
            (["--m", "5,10,5"], None, "--m: duplicate grid value 5"),
            ([], {"gamma": [0.5, 0.5]}, "field 'gamma': duplicate grid value 0.5"),
            ([], {"clip": [10, 10.0]}, "field 'clip': duplicate grid value 10"),
            (["--m", ",".join(["9" * 4300] * 2)], None,
             "--m: duplicate grid value " + "9" * 40 + "…"),
        ],
        ids=["flag-float", "flag-int", "config-float", "config-int", "flag-long"],
    )
    def test_duplicate_grid_value_rejected_before_reading(
        self, workspace, capsys, flags, config, label
    ):
        # No input exists: the grid must be checked before any is read.
        absent = workspace["dir"] / "absent"
        if config is not None:
            path = workspace["dir"] / "grid.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            flags = [*flags, "--config", str(path)]
        rc = main([
            "tune", "--index", str(absent / "x.idx"), "--sessions", str(absent / "s.json"),
            "--qrels", str(absent / "q.txt"), *flags,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert label in err
        assert "absent" not in err

    def test_conflicting_qrels_grades_rejected(self, workspace, capsys, monkeypatch):
        qrels = "conflict_qrels.txt"  # relative and short, so the line keeps it whole
        (workspace["dir"] / qrels).write_text(QRELS_TEXT + "t1 0 d1 0\n", encoding="utf-8")
        monkeypatch.chdir(workspace["dir"])
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", qrels, "--lambda", "0.5",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {qrels}: line 3: ") and err.count("\n") == 1, err
        assert "line 1" in err and "'t1'" in err and "'d1'" in err

    def test_non_integer_grid_value_names_flag(self, workspace, capsys):
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]), "--m", "5,1.5",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: --m must be an integer, got '1.5'\n"

    def test_missing_topic_rejected_before_scoring(self, workspace, capsys, monkeypatch):
        scored = []
        monkeypatch.setattr(pipeline, "score_session_full", lambda *args: scored.append(args))
        qrels = workspace["dir"] / "other_qrels.txt"
        qrels.write_text("t2 0 d1 1\n", encoding="utf-8")
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(qrels), "--lambda", "0.5",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'t1'" in err and "'s1'" in err
        assert scored == []

    def test_duplicate_session_ids_rejected(self, workspace, capsys):
        doubled = {"sessions": [SESSIONS["sessions"][0], SESSIONS["sessions"][0]]}
        sessions = write_sessions(workspace["dir"], doubled, name="dup.json")
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(sessions),
            "--qrels", str(workspace["qrels"]), "--method", "none", "--m", "5",
        ])
        assert rc == 2
        assert "duplicate session ids: 1 ('s1')" in capsys.readouterr().err

    def test_no_servable_session_rejected_before_qrels_and_index(
        self, workspace, capsys, monkeypatch
    ):
        stopwords = write_sessions(
            workspace["dir"], {"sessions": [SESSIONS["sessions"][1]]}, name="stopwords.json"
        ).name  # relative and short, so the line keeps it whole
        monkeypatch.chdir(workspace["dir"])
        absent = workspace["dir"] / "absent"
        rc = main([
            "tune", "--index", str(absent / "x.idx"), "--sessions", stopwords,
            "--qrels", str(absent / "q.txt"), "--lambda", "0.5",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {stopwords}: no sessions with an analyzable current query "
                       "to tune on\n")

    def test_grid_over_a_field_the_method_ignores_warns(self, workspace, caplog):
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--method", "qa-uniform", "--decay", "0.5,0.9", "--mu", "100,500",
        ])
        assert rc == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["method qa-uniform does not read decay: "
                            "every value of its grid scores alike"]
        caplog.clear()
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--method", "none", "--lambda", "0.3,0.5", "--gamma", "0.3,0.5", "--m", "3,5",
        ])
        assert rc == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"method none does not read {field}: every value of its grid "
                            "scores alike" for field in ("gamma", "lam", "m")]

    def test_no_sessions_rejected(self, workspace, capsys):
        empty = write_sessions(workspace["dir"], {"sessions": []}, name="empty.json")
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(empty),
            "--qrels", str(workspace["qrels"]), "--lambda", "0.5",
        ])
        assert rc == 2
        assert "no sessions" in capsys.readouterr().err


class TestEvalCommand:
    def run_and_eval(self, workspace, method="srm-qc"):
        run_path = workspace["dir"] / "run.txt"
        run_report = workspace["dir"] / "run_report.json"
        assert main([
            "run", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--out", str(run_path), "--report", str(run_report),
            "--method", method,
        ]) == 0
        eval_report = workspace["dir"] / "eval_report.json"
        assert main([
            "eval", "--run", str(run_path),
            "--qrels", str(workspace["qrels"]),
            "--sessions", str(workspace["sessions"]),
            "--report", str(eval_report),
        ]) == 0
        return (
            json.loads(run_report.read_text(encoding="utf-8")),
            json.loads(eval_report.read_text(encoding="utf-8")),
        )

    def test_eval_of_emitted_run_reproduces_metrics_exactly(self, workspace):
        # s3's current query has terms, but no document holds them: run
        # scores it as an empty ranking and writes no line for it.
        no_match = {"session_id": "s3", "topic_id": "t1", "steps": [], "current_query": "zebra"}
        with_no_match = write_sessions(
            workspace["dir"], {"sessions": [*SESSIONS["sessions"], no_match]}, name="zebra.json"
        )
        for sessions in (workspace["sessions"], with_no_match):
            run_payload, eval_payload = self.run_and_eval({**workspace, "sessions": sessions})
            assert eval_payload["per_session"] == run_payload["per_session"]
            assert eval_payload["mean"] == run_payload["mean"]
            assert eval_payload["skipped"] == run_payload["skipped"]

    def test_unknown_session_id_rejected(self, workspace, capsys):
        run_path = workspace["dir"] / "run.txt"
        run_path.write_text("ghost Q0 d1 1 -1.0 t\n", encoding="utf-8")
        rc = main([
            "eval", "--run", str(run_path),
            "--qrels", str(workspace["qrels"]),
            "--sessions", str(workspace["sessions"]),
        ])
        assert rc == 2
        assert "ghost" in capsys.readouterr().err

    def test_duplicate_session_ids_rejected(self, workspace, capsys):
        run_path = workspace["dir"] / "run.txt"
        run_path.write_text("s1 Q0 d1 1 -1.0 t\n", encoding="utf-8")
        doubled = {"sessions": [SESSIONS["sessions"][0], SESSIONS["sessions"][0]]}
        sessions = write_sessions(workspace["dir"], doubled, name="dup.json")
        rc = main([
            "eval", "--run", str(run_path),
            "--qrels", str(workspace["qrels"]), "--sessions", str(sessions),
        ])
        assert rc == 2
        assert "duplicate session ids: 1 ('s1')" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [(["--k", "0"], "k"), (["--depth", "0"], "depth"),
                                              (["--k", "-3"], "k")])
    def test_out_of_range_cutoff_rejected_before_reading(self, workspace, capsys, flags, field):
        rc = main([
            "eval", "--run", str(workspace["dir"] / "absent.txt"),
            "--qrels", str(workspace["qrels"]),
            "--sessions", str(workspace["sessions"]), *flags,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be"), err
        assert "absent.txt" not in err

    def test_missing_topic_names_qrels_and_session(self, workspace, capsys):
        run_path = workspace["dir"] / "run.txt"
        run_path.write_text("s1 Q0 d1 1 -1.0 t\n", encoding="utf-8")
        qrels = workspace["dir"] / "other_qrels.txt"
        qrels.write_text("t2 0 d1 1\n", encoding="utf-8")
        report = workspace["dir"] / "report.json"
        rc = main([
            "eval", "--run", str(run_path), "--qrels", str(qrels),
            "--sessions", str(workspace["sessions"]), "--report", str(report),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "other_qrels.txt" in err and "'t1'" in err and "'s1'" in err
        assert not report.exists()

    def test_missing_file_exits_with_error(self, workspace, capsys):
        rc = main([
            "eval", "--run", str(workspace["dir"] / "absent.txt"),
            "--qrels", str(workspace["qrels"]),
            "--sessions", str(workspace["sessions"]),
        ])
        assert rc == 2
        assert "absent.txt" in capsys.readouterr().err


class TestBadInputFiles:
    """A malformed input file stops the command with exit 2 and one
    `error:` line naming the file, before anything is written."""

    DEEP = ("[" * 10000 + "]" * 10000).encode()
    SYNTAX = b'{"sessions":\n}'
    NOT_UTF8 = b"\xff\n"

    def error_line(self, workspace, capsys, role, content, command="run"):
        """Run the command that reads role from a file holding content (for
        the sessions, snapshot, qrels and config, command: run or tune); check
        it exits 2 and writes nothing, and return its one error line."""
        d = workspace["dir"]
        inputs = {
            "corpus": write_corpus(d),
            "snapshot": workspace["index"],
            "sessions": workspace["sessions"],
            "qrels": workspace["qrels"],
            "config": d / "config.json",
            "run": d / "given_run.txt",
        }
        inputs["config"].write_text("{}", encoding="utf-8")
        inputs["run"].write_text("s1 Q0 d1 1 -1.0 t\n", encoding="utf-8")
        bad = inputs[role] = d / f"bad_{role}"
        bad.write_bytes(content)
        before = sorted(d.rglob("*"))
        if role == "corpus":
            argv = ["index", "--corpus", str(bad), "--out", str(d / "new.idx")]
        elif role == "run":
            argv = ["eval", "--run", str(bad), "--qrels", str(inputs["qrels"]),
                    "--sessions", str(inputs["sessions"]), "--report", str(d / "report.json")]
        else:
            argv = [command, "--index", str(inputs["snapshot"]),
                    "--sessions", str(inputs["sessions"]), "--qrels", str(inputs["qrels"]),
                    "--config", str(inputs["config"]), "--out", str(d / "run.txt")]
            if command == "run":
                argv += ["--report", str(d / "report.json")]
        assert main(argv) == 2
        assert sorted(d.rglob("*")) == before
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return err[0]

    @pytest.mark.parametrize("role", ["sessions", "snapshot", "config", "corpus"])
    def test_too_deeply_nested_json_names_file(self, workspace, capsys, role):
        # The corpus is read line by line; its second line is the bad one.
        content = b'{"id": "d1", "text": "jazz"}\n' + self.DEEP if role == "corpus" else self.DEEP
        where = "bad_corpus: line 2" if role == "corpus" else f"bad_{role}"
        err = self.error_line(workspace, capsys, role, content)
        assert f"{where}: invalid JSON: nested too deeply" in err

    @pytest.mark.parametrize("role", ["sessions", "snapshot", "config"])
    def test_json_syntax_error_names_file(self, workspace, capsys, role):
        err = self.error_line(workspace, capsys, role, self.SYNTAX)
        assert f"bad_{role}: invalid JSON: Expecting value: line 2" in err

    @pytest.mark.parametrize("role", ["sessions", "qrels", "run", "corpus", "snapshot", "config"])
    def test_byte_that_is_not_utf8_names_file(self, workspace, capsys, role):
        err = self.error_line(workspace, capsys, role, self.NOT_UTF8)
        assert f"bad_{role}: not UTF-8 text: cannot decode byte 0xff" in err

    # Past int()'s 4,300-digit limit, and past the float range.
    LONG, HUGE = "1" + "0" * 5000, "1" + "0" * 400
    STEPS = '[{"query": "jazz", "impressions": ["d1"], "clicks": [{"doc": "d1"}]}]'

    @staticmethod
    def session_file(steps=STEPS, rest=', "current_query": "jazz club"'):
        session = '{"session_id": "s1", "topic_id": "t1", "steps": ' + steps + rest + "}"
        return '{"sessions": [' + session + "]}"

    @staticmethod
    def snapshot_file(entry):
        return '{"magic": "sessionsearch-index", "version": 2, "docs": {"d1": ' + entry + "}}"

    # (id, role, command, content, what the line names right after the file)
    FIELD_CASES = [
        ("step-not-an-object", "sessions", "run", session_file('[["q"]]'),
         "session 's1': each item of 'steps' must be an object"),
        ("click-without-doc", "sessions", "run",
         session_file('[{"query": "jazz", "impressions": ["d1"], "clicks": [{"dwell": 1}]}]'),
         "session 's1': missing 'doc'"),
        ("session-not-an-object", "sessions", "run", '{"sessions": [["s1"]]}',
         "session #0: not a JSON object"),
        ("doc-not-an-object", "snapshot", "run", snapshot_file("[1]"),
         "doc 'd1': not a JSON object"),
        ("step-without-query", "sessions", "run", session_file('[{"impressions": ["d1"]}]'),
         "session 's1': missing 'query'"),
        ("session-without-current-query", "sessions", "run", session_file(rest=""),
         "session 's1': missing 'current_query'"),
        ("long-dwell", "sessions", "run", session_file(
            '[{"query": "jazz", "impressions": ["d1"], "clicks": [{"doc": "d1", "dwell": '
            + LONG + "}]}]"), "invalid JSON: an integer has more than 4300 digits"),
        # A doc of one count: the count, and so the length, past int()'s limit.
        ("long-length", "snapshot", "run", snapshot_file('{"a": ' + LONG + "}"),
         "invalid JSON: an integer has more than 4300 digits"),
        ("long-config-value", "config", "run", '{"mu": ' + LONG + "}",
         "invalid JSON: an integer has more than 4300 digits"),
        ("long-corpus-value", "corpus", "index", '{"id": "d1", "text": "a"}\n{"n": ' + LONG + "}",
         "line 2: invalid JSON: an integer has more than 4300 digits"),
        ("long-grade", "qrels", "run", "t1 0 d1 " + LONG + "\n",
         "line 1: grade '100000000000000000000000000000000000000… is not an integer"),
        ("long-rank", "run", "eval", "s1 Q0 d1 " + LONG + " -1.0 t\n",
         "line 1: rank '100000000000000000000000000000000000000… is not a positive integer"),
        # Values int() reads, each shown cut where the line names it.
        ("long-repeated-rank", "run", "eval", "".join(
            f"s1 Q0 d{i} 1{'0' * 4000} -1.0 t\n" for i in (1, 2)),
         "line 2: repeated rank 1" + "0" * 39 + "… under key 's1' (first on line 1)"),
        ("long-grade-above-the-maximum", "qrels", "run", "t1 0 d1 1" + "0" * 4000 + "\n",
         "line 1: grade 1" + "0" * 39 + "… is above 64"),
        ("long-conflicting-grade", "qrels", "run", "t1 0 d1 -1\nt1 0 d1 -1" + "0" * 4000 + "\n",
         "line 2: topic 't1' doc 'd1' has grade -1" + "0" * 38
         + "…, but line 1 gave it grade -1"),
        ("long-config-string", "config", "run", '{"mu": "' + "x" * 100 + '"}',
         "field 'mu' must be a number, got '" + "x" * 39 + "…"),
        ("long-score", "run", "eval", "s1 Q0 d1 1 " + "x" * 100 + " t\n",
         "line 1: bad score '" + "x" * 39 + "…"),
        ("huge-config-value", "config", "run", '{"mu": ' + HUGE + "}",
         "field 'mu' is out of float range"),
        ("huge-config-value-tune", "config", "tune", '{"mu": ' + HUGE + ', "lam": [0.5]}',
         "field 'mu' is out of float range"),
        ("huge-grid-value", "config", "tune", '{"lam": [0.5, ' + HUGE + "]}",
         "field 'lam' is out of float range"),
        ("huge-count", "snapshot", "run",
         snapshot_file('{"a": ' + HUGE + "}"),
         "doc 'd1': counts sum to more than 2**53"),
    ]

    @pytest.mark.parametrize("role, command, content, named",
                             [pytest.param(*case[1:], id=case[0]) for case in FIELD_CASES])
    def test_bad_field_named_in_one_line_without_python_text(
        self, workspace, capsys, role, command, content, named
    ):
        err = self.error_line(workspace, capsys, role, content.encode(), command)
        assert f"bad_{role}: {named}" in err, err
        for python_text in ("KeyError(", "TypeError(", "indices must be",
                            "object has no attribute", "Exceeds the limit", "Traceback"):
            assert python_text not in err, err

    def test_version_1_snapshot_asks_for_a_rebuild(self, workspace, capsys):
        # The format-1 layout: each doc an object of its counts and its length.
        content = (b'{"magic": "sessionsearch-index", "version": 1, '
                   b'"docs": {"d1": {"counts": {"jazz": 1}, "length": 1}}}')
        err = self.error_line(workspace, capsys, "snapshot", content)
        assert err.endswith("bad_snapshot: snapshot version 1 is not 2; "
                            "rebuild it with the index command"), err

    def test_repeated_doc_id_names_file_and_both_lines(self, workspace, capsys):
        docs = [CORPUS_DOCS[0], CORPUS_DOCS[1], {"id": "d1", "text": "other"}]
        content = "".join(json.dumps(doc) + "\n" for doc in docs).encode()
        err = self.error_line(workspace, capsys, "corpus", content)
        assert "bad_corpus: line 3: duplicate doc id 'd1' (first on line 1)" in err

    def test_repeated_rank_in_run_file_names_key_and_both_lines(self, workspace, capsys):
        content = b"s1 Q0 d1 1 -1.0 t\ns1 Q0 d2 1 -2.0 t\n"
        err = self.error_line(workspace, capsys, "run", content)
        assert "bad_run: line 2: repeated rank 1 under key 's1' (first on line 1)" in err


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The caller's cyclic-collector setting at entry. Afterwards the
    setting is restored, and a freeze a failing test left behind undone."""
    was_enabled, was_frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    if gc.get_freeze_count() and not was_frozen:
        gc.unfreeze()
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("command", ["run", "tune"])
class TestCollectorScope:
    """run and tune load the snapshot with the collector paused and keep
    what they loaded frozen while they score. The caller's collector comes
    back as it was found, however the command ends."""

    SCORING = {"run": (pipeline, "run_sessions"), "tune": (evalkit, "grid_tune")}

    def argv(self, workspace, command, out):
        argv = [
            command, "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]),
            "--method", "srm-qc", "--out", str(out),
        ]
        return argv + (["--lambda", "0.3,0.5"] if command == "tune" else [])

    def wrap_scoring(self, monkeypatch, command, replacement):
        owner, name = self.SCORING[command]
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: replacement(real, *args, **kw))

    def test_scoring_runs_frozen_and_success_restores(
        self, workspace, monkeypatch, collector, command
    ):
        seen = []

        def scoring(real, *args, **kw):
            seen.append((gc.isenabled(), gc.get_freeze_count()))
            return real(*args, **kw)

        self.wrap_scoring(monkeypatch, command, scoring)
        before = (gc.isenabled(), gc.get_freeze_count())
        assert main(self.argv(workspace, command, workspace["dir"] / "out")) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before
        ((enabled, frozen),) = seen
        assert enabled is collector
        if collector:
            assert frozen > 0

    def test_error_exit_after_the_load_restores(self, workspace, capsys, collector, command):
        before = (gc.isenabled(), gc.get_freeze_count())
        out = workspace["dir"] / "missing" / "out"
        assert main(self.argv(workspace, command, out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_exception_escaping_main_restores(self, workspace, monkeypatch, collector, command):
        def scoring(real, *args, **kw):
            raise RuntimeError("stop at the first unit")

        self.wrap_scoring(monkeypatch, command, scoring)
        before = (gc.isenabled(), gc.get_freeze_count())
        with pytest.raises(RuntimeError, match="first unit"):
            main(self.argv(workspace, command, workspace["dir"] / "out"))
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_callers_freeze_is_kept(self, workspace, monkeypatch, collector, command):
        # The command takes no freeze of its own and undoes none of the
        # caller's: the frozen count never rises above the caller's (a few
        # frozen objects may die meanwhile), and the caller's sentinel stays
        # outside every generation the collector walks.
        seen = []

        def scoring(real, *args, **kw):
            seen.append(gc.get_freeze_count())
            return real(*args, **kw)

        self.wrap_scoring(monkeypatch, command, scoring)
        argv = self.argv(workspace, command, workspace["dir"] / "out")
        sentinel = []
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert main(argv) == 0
            assert gc.isenabled() is collector
            assert 0 < seen[0] <= frozen
            assert 0 < gc.get_freeze_count() <= frozen
            assert not any(obj is sentinel for obj in gc.get_objects())
        finally:
            gc.unfreeze()


class TestParameterFlags:
    """Every RunConfig parameter is reachable from run and tune, and eval
    scores with RunConfig's own k and depth unless told otherwise."""

    def subparser(self, name):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices[name]

    def dests(self, name):
        return {action.dest for action in self.subparser(name)._actions}

    def test_run_and_tune_have_a_flag_for_every_field(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)} - {"method"}
        assert fields <= self.dests("run")
        tune = {dest.removeprefix("grid_") for dest in self.dests("tune")}
        assert fields <= tune

    def test_eval_defaults_match_run_config(self):
        args = self.subparser("eval").parse_args(["--run", "r", "--qrels", "q", "--sessions", "s"])
        assert (args.k, args.depth) == (None, None)
        config = cli._effective_config(args, {})
        assert (config.k, config.depth) == (RunConfig().k, RunConfig().depth)

    def test_no_parameter_flag_converts_or_restricts_its_text(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        for name in ("run", "tune", "eval"):
            actions = [a for a in self.subparser(name)._actions
                       if a.dest.removeprefix("grid_") in fields]
            assert actions
            assert all(a.type is None and a.choices is None for a in actions), name

    def test_params_has_one_row_per_numeric_field(self):
        defaults = RunConfig()
        numeric = [f.name for f in dataclasses.fields(RunConfig)
                   if type(getattr(defaults, f.name)) in (int, float)]
        assert sorted(p.field for p in pipeline.PARAMS) == sorted(numeric)

    @pytest.mark.parametrize("param", pipeline.PARAMS, ids=lambda p: p.field)
    def test_each_row_parses_on_run_tune_and_in_a_config_file(self, param, tmp_path):
        kind = type(getattr(RunConfig(), param.field))
        run = self.subparser("run").parse_args(
            ["--index", "i", "--sessions", "s", "--out", "o", param.flag, "1"])
        assert getattr(run, param.field) == "1"
        value = getattr(cli._effective_config(run, {}), param.field)
        assert value == 1 and type(value) is kind
        tune = self.subparser("tune").parse_args(
            ["--index", "i", "--sessions", "s", "--qrels", "q", param.flag, "1"])
        if param.methods:
            assert getattr(tune, f"grid_{param.field}") == "1"
            (value,) = cli._grid(param.flag, param.field, "1", text=True)
        else:
            assert getattr(tune, param.field) == "1"
            value = getattr(cli._effective_config(tune, {}), param.field)
        assert value == 1 and type(value) is kind
        for key in (param.flag[2:], param.field):
            path = tmp_path / "params.json"
            path.write_text(json.dumps({key: 1}), encoding="utf-8")
            assert cli._load_config_file(str(path), allow_grids=False) == ({param.field: 1}, {})

    def test_grid_fields_each_method_reads(self):
        # The map the rows replaced, as it stood.
        rm3_fields = frozenset({"m", "lam", "mu", "clip_terms"})
        method_fields = {
            "none": frozenset({"mu"}),
            "srm-qc": rm3_fields | {"gamma"},
            "srm-rm1": rm3_fields | {"gamma"},
            "rm3-qn": rm3_fields,
            "rm3-qprime": rm3_fields,
            "qa-uniform": frozenset({"mu"}),
            "qa-decay": frozenset({"mu", "decay"}),
        }
        assert pipeline.METHODS == tuple(method_fields)
        assert {method: {p.field for p in pipeline.PARAMS if method in p.methods}
                for method in pipeline.METHODS} == method_fields
        assert pipeline.TUNABLE_FIELDS == ("m", "lam", "gamma", "mu", "decay", "clip_terms")

    @pytest.mark.parametrize("mu", [10**400, math.nan, math.inf])
    def test_mu_past_float_range_gets_the_range_message(self, mu):
        with pytest.raises(ValueError, match=r"^mu must be finite and > 0, got "):
            RunConfig(mu=mu)

    @pytest.mark.parametrize("kwargs, message", [
        ({"depth": 2.5}, "depth must be an integer, got 2.5"),
        ({"method": "rm3-qn", "m": 1.5}, "m must be an integer, got 1.5"),
        ({"clip_terms": 2.0}, "clip_terms must be an integer, got 2.0"),
        ({"k": True}, "k must be an integer, got True"),
    ], ids=["depth", "m", "clip_terms", "k"])
    def test_integer_field_takes_only_an_int(self, kwargs, message):
        with pytest.raises(ValueError) as caught:
            RunConfig(**kwargs)
        assert str(caught.value) == message

    def test_long_bad_value_is_cut_in_the_message(self):
        with pytest.raises(ValueError) as caught:
            RunConfig(mu=-10**100)
        assert str(caught.value) == "mu must be finite and > 0, got -1" + "0" * 38 + "…"

    def test_int_past_the_digit_limit_is_shown_by_its_bit_length(self):
        with pytest.raises(ValueError) as caught:
            RunConfig(mu=-10**5000)
        assert str(caught.value) == "mu must be finite and > 0, got <negative int of 16610 bits>"

    def test_unknown_method_is_cut_in_the_message(self):
        with pytest.raises(ValueError) as caught:
            RunConfig(method="x" * 100)
        assert str(caught.value) == (
            "unknown method '" + "x" * 39 + "… (the run command's --help lists the methods)")

    LONG = "1" + "0" * 5000
    CUT = "'1" + "0" * 38 + "…"

    @pytest.mark.parametrize("argv, config, line", [
        (["run", "--m", "1.5"], None, "--m must be an integer, got '1.5'"),
        (["run", "--mu", "x"], None, "--mu must be a number, got 'x'"),
        (["run", "--clip", LONG], None, "--clip must be an integer, got " + CUT),
        (["run", "--method", "bogus"], None,
         "unknown method 'bogus' (the run command's --help lists the methods)"),
        (["run"], {"m": 1.5}, "field 'm' must be an integer, got 1.5"),
        (["run"], {"x" * 50: 1}, "unknown config field '" + "x" * 39 + "…"),
        (["tune", "--m", "5", "--k", "1.5"], None, "--k must be an integer, got '1.5'"),
        (["tune", "--m", "5", "--depth", "x"], None, "--depth must be an integer, got 'x'"),
        (["tune", "--m", "5", "--k", LONG], None, "--k must be an integer, got " + CUT),
        (["tune", "--m", "5,1.5,x"], None, "--m must be an integer, got '1.5'"),
        (["tune", "--lambda", "0.5,x"], None, "--lambda must be a number, got 'x'"),
        (["tune", "--clip", "5," + LONG], None, "--clip must be an integer, got " + CUT),
        (["tune", "--m", " , "], None, "--m has no grid values"),
        (["tune"], {"gamma": []}, "field 'gamma' has no grid values"),
        (["tune"], {"lambda": [0.5, None]}, "field 'lambda' must be a number, got None"),
        (["tune", "--method", "bogus", "--m", "5"], None,
         "unknown method 'bogus' (the run command's --help lists the methods)"),
        (["eval", "--k", "1.5"], None, "--k must be an integer, got '1.5'"),
        (["eval", "--depth", "x"], None, "--depth must be an integer, got 'x'"),
        (["eval", "--depth", LONG], None, "--depth must be an integer, got " + CUT),
    ])
    def test_bad_value_gets_one_error_line_naming_it(
        self, tmp_path, capsys, monkeypatch, argv, config, line
    ):
        # No input exists: every value must be checked before any is read.
        absent = tmp_path / "absent"
        files = {"run": ["--index", "i", "--sessions", "s", "--out", "o"],
                 "tune": ["--index", "i", "--sessions", "s", "--qrels", "q"],
                 "eval": ["--run", "r", "--sessions", "s", "--qrels", "q"]}[argv[0]]
        argv = [*argv, *[str(absent / a) if a[0] != "-" else a for a in files]]
        if config is not None:
            # A short relative path keeps the line whole (a long one is cut).
            (tmp_path / "params.json").write_text(json.dumps(config), encoding="utf-8")
            monkeypatch.chdir(tmp_path)
            argv += ["--config", "params.json"]
            line = f"params.json: {line}"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_readme_parameter_table_matches_params(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(--[a-z]+)` \| `(\w+)` \| ([^|]+?) \|", readme, flags=re.M)
        defaults = RunConfig()
        listed = {(flag, field, type(getattr(defaults, field))(default))
                  for flag, field, default in rows}
        assert len(rows) == len(listed)
        assert listed == {(p.flag, p.field, getattr(defaults, p.field)) for p in pipeline.PARAMS}


class TestTopLevel:
    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_console_script_is_installed(self, tmp_path):
        proc = run_declared_script(["--help"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "index" in proc.stdout and "eval" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("sessionsearch") is None,
        reason="no sessionsearch executable on PATH (package not installed)",
    )
    def test_installed_script_matches_declared_entry_point(self, tmp_path):
        declared = run_declared_script(["--help"], cwd=tmp_path)
        installed = subprocess.run(
            [shutil.which("sessionsearch"), "--help"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
        )
        assert installed.returncode == 0, installed.stderr
        assert installed.stdout == declared.stdout
