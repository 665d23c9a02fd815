"""The stage memo, which lets tune's grid points of one session share the
stages whose arguments they share."""

from __future__ import annotations

from typing import Callable


class Stages:
    """One session's stage results: get(stage, *args) keeps stage(*args)
    under the stage, a module-level function that reads only its
    arguments, and those arguments. An argument that is a result kept here
    (a first pass's unhashable candidate list) is keyed by a token private
    to that result, so a key never nests the keys of the results it reads,
    and a lookup hashes only its own arguments.

    Every lookup returns the same object, so callers must not mutate what
    they get: a kept ranking (query aggregation's) is the list every later
    point gets back, and a kept srm.CandidateMatching holds the (term, tf)
    pairs of every model scored through it and one ranking per model.
    """

    __slots__ = ("_memo", "_keys")

    def __init__(self):
        self._memo: dict = {}
        # id of each kept result -> its token, an object() equal only to
        # itself, so it cannot equal any argument a caller passes (a bare
        # serial number could equal an int argument). The memo keeps the
        # result alive, so its id is not reused while it is mapped.
        self._keys: dict[int, object] = {}

    def get(self, stage: Callable, *args):
        """stage(*args), computed on the first call with these arguments."""
        key = (stage, tuple([self._keys.get(id(arg), arg) for arg in args]))
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = stage(*args)
            # A stage may return a kept result (anchoring at weight 1 returns
            # its feedback model): that result keeps its first token.
            self._keys.setdefault(id(value), object())
            return value

    def holds(self, value) -> bool:
        """Whether value is a result kept here (and so keyed by its token)."""
        return id(value) in self._keys
