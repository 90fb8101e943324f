from __future__ import annotations

import json
import os

import numpy as np
import pytest

from skillforge.cover import CoverInstance
from skillforge.model import FailurePair, Skill, Task, Trajectory
from skillforge.providers.base import ChatResponse, LikelihoodResult
from skillforge.tags import EquivalenceIndex


class GroupEmbedder:
    """Embedder stub: tags in the same group share a one-hot axis, everything
    else gets its own axis, so equivalence classes are exactly the groups."""

    def __init__(self, groups=(), dim=128):
        self.dim = dim
        self._axis: dict[str, int] = {}
        self._group_of: dict[str, str] = {}
        for i, group in enumerate(groups):
            for tag in group:
                self._group_of[tag] = f"group-{i}"

    def embed(self, texts):
        out = np.zeros((len(texts), self.dim))
        for row, text in enumerate(texts):
            key = self._group_of.get(text, text)
            if key not in self._axis:
                self._axis[key] = len(self._axis)
                assert self._axis[key] < self.dim, "GroupEmbedder ran out of axes"
            out[row, self._axis[key]] = 1.0
        return out


class MapEmbedder:
    """Embedder stub returning explicit unit vectors per text."""

    def __init__(self, vectors: dict[str, list[float]]):
        self._vectors = {k: np.asarray(v, dtype=float) for k, v in vectors.items()}

    def embed(self, texts):
        rows = []
        for text in texts:
            v = self._vectors[text]
            rows.append(v / np.linalg.norm(v))
        return np.vstack(rows)


class ScriptedChat:
    """Chat stub replaying queued reply texts; repeats the last one when drained."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        index = min(len(self.requests) - 1, len(self.replies) - 1)
        text = self.replies[index]
        return ChatResponse(text=text, tokens_in=len(request.user.split()), tokens_out=len(text.split()))


class StubLikelihood:
    """Likelihood stub keyed on (has_condition, continuation)."""

    def __init__(self, table: dict[tuple[bool, str], tuple[float, int]], name="stub"):
        self.table = table
        self.name = name
        self.calls = []

    def score_likelihood(self, condition, continuation):
        self.calls.append((condition, continuation))
        sum_logprob, count = self.table[(bool(condition), continuation)]
        return LikelihoodResult(sum_logprob=sum_logprob, token_count=count)


def make_index(tags, groups=(), delta=0.9) -> EquivalenceIndex:
    """Hand-built equivalence index: ``groups`` lists tags forced equivalent."""
    embedder = GroupEmbedder(groups=groups)
    index = EquivalenceIndex(delta=delta)
    index.add_tags(tags, embedder)
    return index


def build_eq(tags, embedder, delta=0.9) -> EquivalenceIndex:
    """An equivalence index holding ``tags``, embedded by ``embedder``."""
    index = EquivalenceIndex(delta=delta)
    index.add_tags(tags, embedder)
    return index


def members(index: EquivalenceIndex) -> tuple[str, ...]:
    return tuple(sorted(index._parent))


def classes(index: EquivalenceIndex) -> dict[str, tuple[str, ...]]:
    """Each class's representative mapped to its sorted members."""
    grouped: dict[str, list[str]] = {}
    for tag in members(index):
        grouped.setdefault(index.representative(tag), []).append(tag)
    return {rep: tuple(tags) for rep, tags in sorted(grouped.items())}


def write_instance(instance: CoverInstance, path) -> None:
    """Write ``instance`` in the JSON form ``CoverInstance.from_file`` reads."""
    payload = {
        "targets": sorted(instance.target_classes),
        "skills": {sid: sorted(instance.skill_classes[sid]) for sid in instance.skill_order},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def requests_reply(body: bytes):
    """A status-200 ``requests.Response`` with the raw ``body``, as
    ``requests.post`` returns it."""
    import requests

    response = requests.Response()
    response.status_code = 200
    response._content = body
    return response


def make_skill(skill_id="s1", tags=("csv_parsing",), body=None, **kwargs) -> Skill:
    body = body if body is not None else "Steps for " + ", ".join(sorted(tags)) + "."
    defaults = dict(
        id=skill_id,
        name=f"{skill_id} procedure",
        description=f"Reusable procedure {skill_id}.",
        body=body,
        tags=frozenset(tags),
    )
    defaults.update(kwargs)
    return Skill(**defaults)


def make_pair(task_id="task-001", description=None, steps=(), final="failure") -> FailurePair:
    description = description or f"Task {task_id}: requires capabilities: csv_parsing."
    return FailurePair(
        task=Task(id=task_id, description=description),
        trajectory=Trajectory(task_id=task_id, steps=tuple(steps), final_output=final),
    )


@pytest.fixture
def lp_solves(monkeypatch):
    """Count the LP solves handed to HiGHS's binding: the ``run`` calls of the
    solver objects that ``cover._solve_lp`` makes, one object per solve."""
    from scipy.optimize._highspy import _core

    calls = []

    class Counted(_core._Highs):
        def run(self):
            calls.append(1)
            return super().run()

    monkeypatch.setattr(_core, "_Highs", Counted)
    return calls


@pytest.fixture
def new_file_mode():
    """Run the test under umask 027 and give the mode a new file gets."""
    previous = os.umask(0o027)
    yield 0o640
    os.umask(previous)


@pytest.fixture
def group_embedder():
    return GroupEmbedder()
