"""Byte-identity guard: the index snapshot, the run file of every method, the
model and trace dumps of two methods, the metrics report of one, and the
tune output of five grids, on one generated input.

The input comes from the benchmark's own generator (bench/gen.py, loaded
read-only and without writing bytecode): seed 7, 400 documents, 36
sessions. The snapshot that the index command writes, each method's run
file, the --dump-model and --dump-trace directories and each grid's
best-params JSON are compared with the SHA-256 recorded for each, so a
change to analysis or to the snapshot layout fails here even when no
ranking moves, a change to a model or to a trace's top terms fails here
even when the run file holds, and a change that moves a ranking or the
last digit of any score fails here, however it was meant. Two of
the grids vary mu, so a stage or table that one mu wrongly reuses at
another shows here; the others vary lambda with gamma or clip, so a
rerank shared across those points that keeps a stale model shows here. A change that alters scores on purpose records
the new digests and says in CHANGES.md which digits moved and why.

The digests are tied to this interpreter (CPython 3.11, whose float repr
the run file prints) and to the platform's libm, whose log() sets the last
bits of every score; another platform may differ in those bits.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sessionsearch.cli import main
from sessionsearch.pipeline import METHODS

GEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "gen.py"

INDEX_SHA256 = "7ab39fdcbe1759a35774a70be6a676d54a0ddb5a0c4f6b01a109a4763a4d2aa2"

RUN_SHA256 = {
    "none": "132b8cfd59020efb8d7d36473fb3f83bcf9d69f9cf1e4d9adc32b30a11f7e676",
    "srm-qc": "3e3937d28dab5ad4b45523d4b548b98c6b6a65a432b882d0e56e165e7103ae8b",
    "srm-rm1": "11b4445e0667ba47b16313ccd0ee6e4d81d4d8fb8ba9183ca4e77ab8ffe3292c",
    "rm3-qn": "bb6e8b66c81681f05abfafa5b69b705dbfaa3d8cc741d458c544364f79f71956",
    "rm3-qprime": "77d4847bc19ac6dd02b1eb715d683ebf7ab89b053524221f4af74264f9546938",
    "qa-uniform": "52b6b2980d35eef6ccb0de145d12f3ffb0aeccb64304d5d646e2e34270ba051c",
    "qa-decay": "e2e3bad669ce3ca5d8033770967e714c20716dc6143f2b82e225a19be557a038",
}

# run --dump-model / --dump-trace directories: one SHA-256 per directory over
# its files, see directory_digest. rm3-qprime keeps no trace.
DUMP_SHA256 = {
    "srm-qc": {
        "--dump-model": "67b5870b20374e2f69aa441bbb0376ef643c873628589e7d8a8302805b294c78",
        "--dump-trace": "bda0e60d2d5ecdec56d506b3fd2540dd4c6583025f9b9e6fb4ad5d3978563dc9",
    },
    "rm3-qprime": {
        "--dump-model": "62f182bddd8bab51327290dadf5bfccd397c6e7fa4ab69a28e8ce4ecd78c81f6",
    },
}

# run --qrels --report: the report's per-session and mean metrics.
REPORT_SHA256 = {
    "srm-qc": "3b0dd14605a8cdd9294e9104f5e03a20960c4e9149f02ff537837e50262b14d5",
}

# tune grids, each with the best.json SHA-256 it writes.
TUNE_GRIDS = {
    "srm-qc": (["--lambda", "0.2,0.5,0.8", "--gamma", "0.3,0.7"],
               "116f67376b54808b12f45a66cbbd556a54ba2460d8ec2a1ee84f0abf40c15f48"),
    "srm-rm1": (["--lambda", "0.2,0.5,0.8", "--gamma", "0.3,0.7"],
                "1550ca03e9d07456a66f287356fef3e32fd44a0527496c18d1372f81beec7da6"),
    "rm3-qprime": (["--lambda", "0.3,0.6,0.9", "--clip", "5,100"],
                   "b5844dcd011f794b535ddf1beb682ae21dfc622d3f9742d847089a12f9e31b0a"),
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


def directory_digest(path):
    """SHA-256 over the (file name, bytes) pairs of a directory, sorted by
    name, each written as the UTF-8 name, a NUL, the byte count (8 bytes,
    big-endian) and the bytes."""
    digest = hashlib.sha256()
    for name, data in sorted((entry.name, entry.read_bytes()) for entry in path.iterdir()):
        digest.update(name.encode("utf-8") + b"\0" + len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


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


@pytest.mark.parametrize("method", sorted(DUMP_SHA256))
def test_model_and_trace_dumps_are_byte_identical(generated, method):
    out = generated / f"run.{method}.dumped.txt"
    dirs = {flag: generated / f"{method}{flag}" for flag in DUMP_SHA256[method]}
    flags = [arg for flag, path in dirs.items() for arg in (flag, str(path))]
    assert main(["run", "--index", str(generated / "index.json"),
                 "--sessions", str(generated / "sessions.json"),
                 "--method", method, "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SHA256[method]
    assert {flag: directory_digest(path) for flag, path in dirs.items()} == DUMP_SHA256[method]


@pytest.mark.parametrize("method", sorted(REPORT_SHA256))
def test_metrics_report_is_byte_identical(generated, method):
    out, report = generated / f"run.{method}.reported.txt", generated / f"report.{method}.json"
    assert main(["run", "--index", str(generated / "index.json"),
                 "--sessions", str(generated / "sessions.json"),
                 "--qrels", str(generated / "qrels.txt"), "--method", method,
                 "--out", str(out), "--report", str(report)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SHA256[method]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256[method]


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


# index, then run for three methods (srm-qc with its trace), as one script
# per process; output paths are relative to the process's directory.
HASH_SEED_SCRIPT = """
import sys
from sessionsearch.cli import main
corpus, sessions, qrels = sys.argv[1:]
assert main(["index", "--corpus", corpus, "--out", "index.json"]) == 0
for method, extra in (("srm-qc", ["--dump-trace", "trace"]), ("rm3-qprime", []),
                      ("qa-decay", [])):
    assert main(["run", "--index", "index.json", "--sessions", sessions, "--qrels", qrels,
                 "--method", method, "--out", f"run.{method}.txt",
                 "--report", f"report.{method}.json", *extra]) == 0
"""


def test_outputs_do_not_depend_on_the_hash_seed(generated, tmp_path):
    # pytest runs under one random hash seed, so a leak of str hashing into
    # an output (set order breaking a tie, say) would only show as a flake;
    # two fixed seeds in fresh processes make it a plain failure.
    src = Path(__file__).resolve().parent.parent / "src"
    inputs = [str(generated / name) for name in ("corpus.jsonl", "sessions.json", "qrels.txt")]
    outputs = []
    for seed in ("0", "1"):
        cwd = tmp_path / f"hash-seed-{seed}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT, *inputs], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        files = {path.relative_to(cwd).as_posix(): path.read_bytes()
                 for path in sorted(cwd.rglob("*")) if path.is_file()}
        outputs.append((files, done.stdout, done.stderr))
    names = outputs[0][0].keys()
    assert {"index.json", "run.rm3-qprime.txt", "report.qa-decay.json"} <= names
    assert any(name.startswith("trace/") for name in names)
    assert outputs[0] == outputs[1]
