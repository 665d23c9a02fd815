"""Byte-identity guard: the index snapshot, the run file of every method, and
the tune output of three grids, on one generated input.

The input comes from the benchmark's own generator (bench/gen.py, loaded
read-only and without writing bytecode): seed 7, 400 documents, 36
sessions. The snapshot that the index command writes, each method's run
file and each grid's best-params JSON are compared with the SHA-256
recorded for each, so a change to analysis or to the snapshot layout fails
here even when no ranking moves, and a change that moves a ranking or the
last digit of any score fails here, however it was meant. Two of
the grids vary mu, so a stage or table that one mu wrongly reuses at
another shows here. A change that alters scores on purpose records
the new digests and says in CHANGES.md which digits moved and why.

The digests are tied to this interpreter (CPython 3.11, whose float repr
the run file prints) and to the platform's libm, whose log() sets the last
bits of every score; another platform may differ in those bits.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sessionsearch.cli import main
from sessionsearch.pipeline import METHODS

GEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "gen.py"

INDEX_SHA256 = "88781a0773b6c97a514df2da569ca8fe414bde349d46cfd8e197667426c7b8b1"

RUN_SHA256 = {
    "none": "132b8cfd59020efb8d7d36473fb3f83bcf9d69f9cf1e4d9adc32b30a11f7e676",
    "srm-qc": "3e3937d28dab5ad4b45523d4b548b98c6b6a65a432b882d0e56e165e7103ae8b",
    "srm-rm1": "11b4445e0667ba47b16313ccd0ee6e4d81d4d8fb8ba9183ca4e77ab8ffe3292c",
    "rm3-qn": "bb6e8b66c81681f05abfafa5b69b705dbfaa3d8cc741d458c544364f79f71956",
    "rm3-qprime": "77d4847bc19ac6dd02b1eb715d683ebf7ab89b053524221f4af74264f9546938",
    "qa-uniform": "52b6b2980d35eef6ccb0de145d12f3ffb0aeccb64304d5d646e2e34270ba051c",
    "qa-decay": "e2e3bad669ce3ca5d8033770967e714c20716dc6143f2b82e225a19be557a038",
}

# tune grids, each with the best.json SHA-256 it writes.
TUNE_GRIDS = {
    "srm-qc": (["--lambda", "0.2,0.5,0.8", "--gamma", "0.3,0.7"],
               "116f67376b54808b12f45a66cbbd556a54ba2460d8ec2a1ee84f0abf40c15f48"),
    "rm3-qn": (["--lambda", "0.3,0.6", "--mu", "500,2500"],
               "ce681bc732e78085db943e9e697ece2c9ac7b59e02ee186699268dddfb8710a7"),
    "qa-decay": (["--decay", "0.5,0.92", "--mu", "500,2500"],
                 "23b9133383a7fa61bc2f42d10ff9e2d9fe7a7afd95655b8294f4cca662c614d3"),
}


def load_generator():
    spec = importlib.util.spec_from_file_location("sessionsearch_bench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    load_generator().generate(7, 400, 36, root)
    assert main(["index", "--corpus", str(root / "corpus.jsonl"),
                 "--out", str(root / "index.json")]) == 0
    return root


def test_index_snapshot_is_byte_identical(generated):
    digest = hashlib.sha256((generated / "index.json").read_bytes()).hexdigest()
    assert digest == INDEX_SHA256


def test_every_method_is_covered():
    assert sorted(RUN_SHA256) == sorted(METHODS)


@pytest.mark.parametrize("method", sorted(RUN_SHA256))
def test_run_file_is_byte_identical(generated, method):
    out = generated / f"run.{method}.txt"
    assert main(["run", "--index", str(generated / "index.json"),
                 "--sessions", str(generated / "sessions.json"),
                 "--method", method, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SHA256[method]


@pytest.mark.parametrize("method", sorted(TUNE_GRIDS))
def test_tune_output_is_byte_identical(generated, method):
    flags, digest = TUNE_GRIDS[method]
    out = generated / f"best.{method}.json"
    assert main(["tune", "--index", str(generated / "index.json"),
                 "--sessions", str(generated / "sessions.json"),
                 "--qrels", str(generated / "qrels.txt"),
                 "--method", method, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_qa_uniform_reports_the_decay_it_applies(generated):
    # qa-uniform weighs every query the same whatever --decay says, so its
    # report and its tune output state decay 1.0, and its run file is the
    # recorded one.
    out, report, best = (generated / name for name in
                         ("run.qa-uniform.decay.txt", "report.qa-uniform.json",
                          "best.qa-uniform.json"))
    assert main(["run", "--index", str(generated / "index.json"),
                 "--sessions", str(generated / "sessions.json"),
                 "--qrels", str(generated / "qrels.txt"), "--method", "qa-uniform",
                 "--decay", "0.5", "--out", str(out), "--report", str(report)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SHA256["qa-uniform"]
    assert json.loads(report.read_text(encoding="utf-8"))["config"]["decay"] == 1.0
    assert main(["tune", "--index", str(generated / "index.json"),
                 "--sessions", str(generated / "sessions.json"),
                 "--qrels", str(generated / "qrels.txt"), "--method", "qa-uniform",
                 "--mu", "500,2500", "--out", str(best)]) == 0
    assert json.loads(best.read_text(encoding="utf-8"))["best"]["decay"] == 1.0
