"""Byte-identity guard: the run file of every method on one generated input.

The input comes from the benchmark's own generator (bench/gen.py, loaded
read-only and without writing bytecode): seed 7, 400 documents, 36
sessions. Each method's run file is compared with the SHA-256 recorded for
it, so a change that moves a ranking or the last digit of any score fails
here, however it was meant. A change that alters scores on purpose records
the new digests and says in CHANGES.md which digits moved and why.

The digests are tied to this interpreter (CPython 3.11, whose float repr
the run file prints) and to the platform's libm, whose log() sets the last
bits of every score; another platform may differ in those bits.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from sessionsearch.cli import main
from sessionsearch.pipeline import METHODS

GEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "gen.py"

RUN_SHA256 = {
    "none": "44619a694fe3e02088883c7656efcabd61489c31fc89c7721602d979ff06e72f",
    "srm-qc": "4f78c5d46288b65d7bf73c7cfc9affd47c1f857916493482a0ff014811786f7f",
    "srm-rm1": "a5fe627bf42f3b369378188d49a47609e024eb1670058e1c87c3a0371fe11d5b",
    "rm3-qn": "802939a0254c6ec4f38640b084673bf76ce2d2d85f873bedb3548edefcc5ee0c",
    "rm3-qprime": "a3f0f211554a0dba7f59894693a222f6bf205c2d647730bf2d5b04cd5b80f39d",
    "qa-uniform": "cfdb149c64ff4c9588df593cb501ef998fa362152e22efb31d153ef21459dbab",
    "qa-decay": "de5dcbc0491bddb76655fbefde572f0a52b5bae2bdf81453b828ceff08477467",
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


def test_every_method_is_covered():
    assert sorted(RUN_SHA256) == sorted(METHODS)


@pytest.mark.parametrize("method", sorted(RUN_SHA256))
def test_run_file_is_byte_identical(generated, method):
    out = generated / f"run.{method}.txt"
    assert main(["run", "--index", str(generated / "index.json"),
                 "--sessions", str(generated / "sessions.json"),
                 "--method", method, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SHA256[method]
