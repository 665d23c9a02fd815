"""Each stage is kept under its function and arguments, and each grid field
reaches exactly the methods its PARAMS row names.

- Every Stages.get call in the package passes, as the stage, the name of a
  module-level or imported function, never a lambda, a functools.partial,
  a nested def or a bound method, which could read a parameter its key
  leaves out.
- A session's memo holds no reference to itself: scoring makes no
  reference cycle, so the memo is freed as soon as it is dropped.
- Across a lambda x gamma grid the memo keeps the divergence of an
  anchored model from its prior only where that prior is itself kept,
  once per pair; a fresh, gamma-specific mixture's is computed each time.
- A tunable field outside a method's PARAMS row leaves that method's
  rankings bit for bit as they were on oracle.random_toy_instance's
  instances; a field inside the row changes them on some instance.
"""

import ast
import gc
import importlib
import inspect
import random
import sys
from pathlib import Path

import pytest

import oracle
from conftest import DIVERGENCE_EXAMPLE, instance_index, instance_session, make_session

from sessionsearch.pipeline import (
    METHODS,
    PARAMS,
    RunConfig,
    StagedScorer,
    score_session,
    score_session_full,
)
from sessionsearch import srm
from sessionsearch.stages import Stages

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sessionsearch"


def stage_calls(tree):
    """Each Stages.get call in tree: a get call on a name holding 'stages'."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and "stages" in ast.unparse(node.func.value).lower()):
            yield node


def module_functions(tree):
    """The names a module's own statements bind to a def or an import."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in stmt.names)
    return names


def bad_stage_calls(source):
    """(line, stage text) of each Stages.get call whose stage is not a
    module-level or imported name, or which passes the memo as an argument."""
    tree = ast.parse(source)
    names = module_functions(tree)
    bad = []
    for call in stage_calls(tree):
        stage = call.args[0] if call.args else None
        memo_argument = any("stages" in ast.unparse(arg).lower() for arg in call.args)
        if memo_argument or not (isinstance(stage, ast.Name) and stage.id in names):
            bad.append((call.lineno, ast.unparse(stage) if stage else ""))
    return bad


def is_plain_function(value):
    """A function defined at the top level of its module, not a lambda."""
    return inspect.isfunction(value) and value.__qualname__ == value.__name__ != "<lambda>"


@pytest.mark.parametrize("stage", [
    "lambda: top_k(q, index, mu, depth)",
    "functools.partial(top_k, q)",
    "self.compute",
    "nested",
    "top_k, stages",
])
def test_the_stage_check_rejects_a_stage_that_is_no_module_function(stage):
    source = ("import functools\nfrom .lm import top_k\n\n"
              "def score(stages, q, index, mu, depth):\n"
              "    def nested(*args):\n        return top_k(*args)\n\n"
              f"    return stages.get({stage}, q, index, mu, depth)\n")
    assert [line for line, _ in bad_stage_calls(source)] == [8]
    assert bad_stage_calls(source.replace(stage, "top_k")) == []


def test_every_stage_is_a_module_level_function():
    stages = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert bad_stage_calls(source) == [], path.name
        module = importlib.import_module(f"sessionsearch.{path.stem}")
        for call in stage_calls(ast.parse(source)):
            stages[f"{path.stem}.{call.args[0].id}"] = getattr(module, call.args[0].id)
    assert {name.partition(".")[0] for name in stages} == {"baselines", "pipeline", "srm"}
    assert [name for name, stage in stages.items() if not is_plain_function(stage)] == []


@pytest.mark.parametrize("method", ["qa-decay", "srm-qc", "rm3-qprime", "none"])
def test_a_sessions_memo_holds_no_reference_to_itself(club_index, method):
    session = make_session([(["jazz"], ["d1", "d3"], ["d1"])], ["jazz", "club"])
    gc.collect()
    gc.disable()
    try:
        scorer = StagedScorer()
        assert scorer(session, club_index, RunConfig(method=method, lam=0.3, gamma=0.3))
        assert scorer(session, club_index, RunConfig(method=method, lam=0.7, gamma=0.5))
        assert score_session_full(session, club_index, RunConfig(method=method)).ranking
        del scorer
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_memo_keeps_divergences_from_kept_priors_only(monkeypatch):
    index = instance_index(DIVERGENCE_EXAMPLE)
    session = instance_session(DIVERGENCE_EXAMPLE)
    stages = Stages()
    calls = []  # (through the memo, prior kept, anchored, prior) of each divergence
    real = srm.kl_divergence

    def recording(anchored, prior):
        through_memo = sys._getframe(1).f_code is Stages.get.__code__
        calls.append((through_memo, stages.holds(prior), anchored, prior))
        return real(anchored, prior)

    monkeypatch.setattr(srm, "kl_divergence", recording)
    gc.collect()
    gc.disable()
    try:
        for lam in (0.2, 0.5, 0.8):
            for gamma in (0.3, 0.5, 0.7):
                config = RunConfig(method="srm-qc", lam=lam, gamma=gamma, mu=10.0, m=2)
                assert score_session_full(session, index, config, stages).ranking
        kept = [(anchored, prior) for memo, held, anchored, prior in calls if memo]
        fresh = [held for memo, held, _, _ in calls if not memo]
        # Per lambda, steps 2 and 3 divide by a kept prior; step 4's prior
        # is a mixture made at each of the nine points.
        assert len(kept) == 6 and len({(id(a), id(p)) for a, p in kept}) == 6
        assert all(held for memo, held, _, _ in calls if memo)
        assert fresh == [False] * 9
        del stages, calls, kept
        assert gc.collect() == 0
    finally:
        gc.enable()


# Two values of each tunable field, far enough apart to move every method that reads it.
TWO_VALUES = {"m": (1, 5), "lam": (0.2, 0.8), "gamma": (0.2, 0.8), "mu": (10.0, 2500.0),
              "decay": (0.5, 1.0), "clip_terms": (1, 100)}


@pytest.fixture(scope="module")
def toy_instances():
    rng = random.Random(0)
    instances = [oracle.random_toy_instance(rng) for _ in range(40)]
    return [(instance_session(instance), instance_index(instance)) for instance in instances]


def hexed(ranking):
    return [(doc_id, score.hex()) for doc_id, score in ranking]


@pytest.mark.parametrize("param", [p for p in PARAMS if p.methods], ids=lambda p: p.field)
def test_a_field_changes_the_rankings_of_exactly_the_methods_of_its_row(param, toy_instances):
    assert set(TWO_VALUES) == {p.field for p in PARAMS if p.methods}
    changed = set()
    for session, index in toy_instances:
        for method in METHODS:
            first, second = (hexed(score_session(session, index, RunConfig(method=method,
                                                                           **{param.field: v})))
                             for v in TWO_VALUES[param.field])
            if first != second:
                changed.add(method)
    assert sorted(changed) == sorted(param.methods)
