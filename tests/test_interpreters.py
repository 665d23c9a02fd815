"""Byte-identity across interpreters: every other CPython that
requires-python admits writes the outputs tests/test_run_digests.py pins.

The package is stdlib only, so another interpreter needs no pytest: each
python3.N on PATH (N = 11 and upward) that answers with a version other
than the running one runs the seed-7 workload of test_run_digests in a
subprocess with PYTHONPATH=src (the index, every method's run file, the
model and trace dumps, the metrics report and the five tune grids), and
this process compares what it wrote with the pinned digests. A float
format, a math function or an ordering that changed between interpreter
versions fails here. Without another interpreter on PATH the test skips
and says so.

One such change needs no other interpreter to be seen: from CPython 3.12
on, builtin sum() adds floats with compensated summation, where 3.11 adds
them left to right, so a float sum() writes other last digits under each.
An ast check admits sum() in the package only at its integer sums.
"""

import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_run_digests import (
    DUMP_SHA256,
    GEN_PATH,
    INDEX_SHA256,
    REPORT_SHA256,
    RUN_SHA256,
    TUNE_GRIDS,
    directory_digest,
)

ROOT = Path(__file__).resolve().parent.parent

# Generates the seed-7 input into the working directory, then runs each
# argv list of the JSON file through cli.main, which must return 0.
WORKLOAD_SCRIPT = """
import importlib.util, json, sys
from pathlib import Path
from sessionsearch.cli import main
spec = importlib.util.spec_from_file_location("sessionsearch_bench_gen", sys.argv[1])
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)
gen.generate(7, 400, 36, Path("."))
for argv in json.loads(Path(sys.argv[2]).read_text(encoding="utf-8")):
    assert main(argv) == 0, argv
"""

INPUTS = ["--index", "index.json", "--sessions", "sessions.json"]


def workload():
    """The commands of test_run_digests, each with the outputs it pins:
    {output path: digest}, a directory's digest by directory_digest."""
    commands = [(["index", "--corpus", "corpus.jsonl", "--out", "index.json"],
                 {"index.json": INDEX_SHA256})]
    for method, digest in sorted(RUN_SHA256.items()):
        commands.append((["run", *INPUTS, "--method", method, "--out", f"run.{method}.txt"],
                         {f"run.{method}.txt": digest}))
    for method, dumps in sorted(DUMP_SHA256.items()):
        flags = [arg for flag in dumps for arg in (flag, f"{method}{flag}")]
        commands.append((["run", *INPUTS, "--method", method,
                          "--out", f"run.{method}.dumped.txt", *flags],
                         {f"{method}{flag}": digest for flag, digest in dumps.items()}))
    for method, digest in sorted(REPORT_SHA256.items()):
        commands.append((["run", *INPUTS, "--qrels", "qrels.txt", "--method", method,
                          "--out", f"run.{method}.reported.txt",
                          "--report", f"report.{method}.json"],
                         {f"report.{method}.json": digest}))
    for method, (flags, digest) in sorted(TUNE_GRIDS.items()):
        commands.append((["tune", *INPUTS, "--qrels", "qrels.txt", "--method", method,
                          *flags, "--out", f"best.{method}.json"],
                         {f"best.{method}.json": digest}))
    return commands


def digest_of(path):
    if path.is_dir():
        return directory_digest(path)
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def other_interpreters():
    """(version, path) of each python3.N on PATH, N >= 11, whose -c run
    reports a version other than this one; one path per version."""
    running = ".".join(map(str, sys.version_info[:3]))
    found = {}
    for minor in range(11, 40):
        path = shutil.which(f"python3.{minor}")
        if path is None:
            continue
        try:
            done = subprocess.run([path, "-c", "import sys; print(*sys.version_info[:3], sep='.')"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = done.stdout.strip()
        if (done.returncode == 0 and re.fullmatch(rf"3\.{minor}\.\d+", version)
                and version != running):
            found.setdefault(version, path)
    return sorted(found.items())


INTERPRETERS = other_interpreters()


@pytest.mark.skipif(not INTERPRETERS, reason="no other CPython 3.11+ (python3.N) on PATH answers")
@pytest.mark.parametrize("version, path", INTERPRETERS, ids=[v for v, _ in INTERPRETERS])
def test_another_interpreter_writes_the_pinned_outputs(version, path, tmp_path):
    commands = workload()
    argv_file = tmp_path / "commands.json"
    argv_file.write_text(json.dumps([argv for argv, _ in commands]), encoding="utf-8")
    cwd = tmp_path / "work"
    cwd.mkdir()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([path, "-c", WORKLOAD_SCRIPT, str(GEN_PATH), str(argv_file)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    pinned = {name: digest for _, outputs in commands for name, digest in outputs.items()}
    differing = sorted(name for name, digest in pinned.items() if digest_of(cwd / name) != digest)
    assert differing == [], f"CPython {version} ({path}) wrote other bytes"


# The package's builtin sum() calls, each over ints: (module, call as unparsed).
INTEGER_SUMS = [
    ("index.py", "sum(self.lengths.values())"),
    ("index.py", "sum(values)"),
]


def builtin_sums(source):
    """The unparsed text of each call to a bare name sum in source."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_the_sum_check_sees_a_float_sum():
    source = "def mass(xs):\n    return sum(x / 2 for x in xs)\n"
    assert builtin_sums(source) == ["sum((x / 2 for x in xs))"]


def test_builtin_sum_adds_only_integers():
    found = [(path.name, call) for path in sorted((ROOT / "src" / "sessionsearch").glob("*.py"))
             for call in builtin_sums(path.read_text(encoding="utf-8"))]
    assert sorted(found) == INTEGER_SUMS
