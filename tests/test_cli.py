"""End-to-end command-line behavior through the real argument parser."""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sessionsearch import pipeline
from sessionsearch.analysis import analyze
from sessionsearch.cli import _build_parser, main
from sessionsearch.evalkit import parse_run_file
from sessionsearch.index import InvertedIndex
from sessionsearch.lm import top_k_by_query_likelihood
from sessionsearch.pipeline import RunConfig

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
        assert "indexed 3 documents" in stdout
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

    def test_empty_corpus_warns_but_succeeds(self, tmp_path, capsys, caplog):
        corpus = write_corpus(tmp_path, [])
        out = tmp_path / "empty.idx"
        with caplog.at_level("WARNING", logger="sessionsearch"):
            rc = main(["index", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 0
        assert "empty" in caplog.text
        assert "indexed 0 documents" in capsys.readouterr().out
        assert out.is_file()


class TestRunCommand:
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

    def test_non_integer_grid_value_names_flag(self, workspace, capsys):
        rc = main([
            "tune", "--index", str(workspace["index"]),
            "--sessions", str(workspace["sessions"]),
            "--qrels", str(workspace["qrels"]), "--m", "5,1.5",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --m:")

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
        assert "duplicate session ids: ['s1']" in capsys.readouterr().err

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
        run_payload, eval_payload = self.run_and_eval(workspace)
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
        assert "duplicate session ids: ['s1']" in capsys.readouterr().err

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
        assert (args.k, args.depth) == (RunConfig().k, RunConfig().depth)


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
