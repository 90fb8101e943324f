"""Knowledge-tag generation, normalization, equivalence indexing, and quality metrics.

Tags are plain normalized strings; tag sets are frozensets of them. Semantic
equivalence is a union-find partition over all known tags, joining two tags
whenever their embedding cosine similarity reaches the threshold ``delta``.
The transitive closure makes equivalence a true equivalence relation even
though raw cosine similarity is not transitive, and gives every set formula a
well-defined element identity: each tag maps to the lexicographically
smallest member of its class.

New tags are joined to the index by a matrix product: blocks of at most
``JOIN_BLOCK`` new tags are multiplied against every known tag's vector, so
no all-pairs matrix is ever held, and every pair at or above ``delta`` is
unioned. Because ``_union`` always keeps the lexicographically smaller root,
the partition does not depend on the order of the unions. A matrix product
may round differently from a single dot product, so any similarity within
``NEAR_DELTA`` of the threshold (scaled up by the vectors' norms when they
exceed 1) is recomputed as ``np.dot`` of the two vectors, which decides
exactly as a pair-by-pair scan would.
"""

from __future__ import annotations

import json
import logging
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from skillforge import prompts
from skillforge.errors import ConfigError, InputError, MissingTagError, TaggingError
from skillforge.model import FailurePair, Skill, SkillLibrary, write_text_atomic
from skillforge.providers.base import ChatProvider, ChatRequest, EmbeddingProvider, ask

logger = logging.getLogger(__name__)

TagSet = frozenset[str]

_COLLAPSE_RE = re.compile(r"[\s_]+")
_BULLET_RE = re.compile(r"^\s*(?:[-*•]+|\d+[.)])\s*")
_CLEAN_TAG_RE = re.compile(r"[a-z0-9]+(?:_[a-z0-9]+)*")

JOIN_BLOCK = 32
NEAR_DELTA = 1e-9


def normalize_tag(raw: str) -> str:
    """Lowercase, trim, and collapse whitespace/underscore runs to one underscore."""
    text = _COLLAPSE_RE.sub("_", raw.strip().lower()).strip("_")
    if not text:
        raise InputError(f"tag is empty after normalization: {raw!r}")
    return text


def parse_tag_list(text: str) -> list[str]:
    """Parse a model's tag list reply.

    Accepts one tag per line or comma-separated tags, with optional bullets
    or numbering. Returns normalized tags, deduplicated, in reply order.
    A line that is already one normalized tag (lowercase ASCII letters and
    digits in runs joined by single underscores) is taken as it is: it has
    no bullet, comma, space or stray underscore, so the general path below
    would return it unchanged.
    """
    found: list[str] = []
    seen: set[str] = set()
    for line in text.splitlines():
        for tag in (line,) if _CLEAN_TAG_RE.fullmatch(line) else _line_tags(line):
            if tag not in seen:
                seen.add(tag)
                found.append(tag)
    return found


def _line_tags(line: str) -> list[str]:
    """The normalized tags of one reply line: bullet or numbering stripped,
    split at commas, pieces of more than 8 words or without a letter or
    digit dropped."""
    line = _BULLET_RE.sub("", line).strip()
    tags = []
    for piece in line.split(",") if line else ():
        piece = piece.strip()
        if not piece or len(piece.split()) > 8 or not any(ch.isalnum() for ch in piece):
            continue
        try:
            tags.append(normalize_tag(piece))
        except InputError:
            continue
    return tags


class SkillText(NamedTuple):
    """The fields a skill-tag request reads. A ``Skill`` has them too, so a
    candidate can be tagged before its ``Skill`` is built, once, with its tags."""

    id: str
    name: str
    description: str
    body: str


def build_skill_tag_request(skill: Skill | SkillText) -> ChatRequest:
    user = (
        f"Skill name: {skill.name}\n"
        f"Skill description: {skill.description}\n"
        "Skill body:\n"
        f"{skill.body}\n\n"
        "List the knowledge tags this skill contains, one per line."
    )
    return ChatRequest(system=prompts.SKILL_TAG_SYSTEM, user=user)


def build_target_tag_request(pair: FailurePair) -> ChatRequest:
    user = (
        f"{prompts.TASK_HEADER} {pair.task.description}\n\n"
        f"{prompts.TRAJECTORY_HEADER}\n"
        f"{prompts.render_trajectory(pair.trajectory.steps, pair.trajectory.final_output)}\n\n"
        "List the knowledge tags required to solve this task, one per line."
    )
    return ChatRequest(system=prompts.TARGET_TAG_SYSTEM, user=user)


def _tag_set(text: str) -> TagSet:
    tags = parse_tag_list(text)
    if not tags:
        raise TaggingError(f"no tags in {text[:120]!r}")
    return frozenset(tags)


def generate_skill_tags(skill: Skill | SkillText, chat: ChatProvider) -> TagSet:
    """Ask the chat provider for the skill's knowledge tags."""
    if not skill.body:
        raise InputError(f"skill {skill.id!r} has an empty body")
    return ask(chat, build_skill_tag_request(skill), _tag_set, f"skill {skill.id!r}")


def generate_target_tags(pair: FailurePair, chat: ChatProvider) -> TagSet:
    """Infer the tag set a failed task requires from the task and its trajectory."""
    return ask(chat, build_target_tag_request(pair), _tag_set, f"task {pair.task.id!r}")


class EquivalenceIndex:
    """Union-find partition of tags under embedding-cosine equivalence."""

    def __init__(self, delta: float = 0.9) -> None:
        if not 0.0 < delta <= 1.0:
            raise ConfigError(f"delta must lie in (0, 1], got {delta}")
        self.delta = delta
        self._parent: dict[str, str] = {}
        self._vectors: dict[str, np.ndarray] = {}

    def fork(self) -> EquivalenceIndex:
        """A copy whose later ``add_tags`` leave this index as it is. The
        vectors are shared, since no index ever mutates one."""
        forked = object.__new__(type(self))
        forked.delta = self.delta
        forked._parent = dict(self._parent)
        forked._vectors = dict(self._vectors)
        return forked

    def __contains__(self, tag: str) -> bool:
        return tag in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def add_tags(self, tags: Iterable[str], embedder: EmbeddingProvider) -> None:
        """Insert new tags, joining them to any tag within cosine ``delta``.

        Existing memberships can only merge, never split, so adding an
        unrelated tag leaves prior classes untouched. All parent pointers are
        flattened before returning, which keeps lookups pure reads and the
        index safe to share across concurrent scoring workers.
        """
        new = sorted(set(tags) - set(self._parent))
        if not new:
            return
        vectors = embedder.embed(new)
        for tag, vector in zip(new, vectors):
            self._parent[tag] = tag
            self._vectors[tag] = np.asarray(vector, dtype=np.float64)
        known = list(self._vectors)
        known_matrix = np.array(list(self._vectors.values()))
        known_norm = float(np.linalg.norm(known_matrix, axis=1).max())
        for start in range(0, len(new), JOIN_BLOCK):
            block = new[start : start + JOIN_BLOCK]
            block_matrix = np.array([self._vectors[tag] for tag in block])
            similarity = block_matrix @ known_matrix.T
            # Far wider than any rounding gap between the product and np.dot.
            block_norm = float(np.linalg.norm(block_matrix, axis=1).max())
            margin = NEAR_DELTA * max(1.0, known_norm * block_norm)
            for i, j in zip(*np.nonzero(similarity >= self.delta - margin)):
                tag, other = block[i], known[j]
                near = abs(similarity[i, j] - self.delta) <= margin
                if near and float(np.dot(self._vectors[tag], self._vectors[other])) < self.delta:
                    continue
                self._union(tag, other)
        for tag in self._parent:
            self._parent[tag] = self._find(tag)

    def _find(self, tag: str) -> str:
        root = tag
        while self._parent[root] != root:
            root = self._parent[root]
        return root

    def _union(self, a: str, b: str) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        self._parent[drop] = keep

    def representative(self, tag: str) -> str:
        # add_tags leaves every parent pointer flattened onto its root.
        try:
            return self._parent[tag]
        except KeyError:
            raise MissingTagError(f"tag {tag!r} is not in the equivalence index") from None

    def canonical_set(self, tags: Iterable[str]) -> TagSet:
        try:
            return frozenset(map(self._parent.__getitem__, tags))
        except KeyError as exc:
            raise MissingTagError(f"tag {exc.args[0]!r} is not in the equivalence index") from None


def prf(intersection: int, predicted: int, reference: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from set sizes; an empty side scores 0."""
    p = intersection / predicted if predicted else 0.0
    r = intersection / reference if reference else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


@dataclass(frozen=True)
class TagQualityReport:
    exact_precision: float
    exact_recall: float
    exact_f1: float
    semantic_precision: float
    semantic_recall: float
    semantic_f1: float


def tag_quality_metrics(
    predicted: TagSet, reference: TagSet, index: EquivalenceIndex
) -> TagQualityReport:
    """Exact-string and class-canonical precision/recall/F1."""
    ep, er, ef = prf(len(predicted & reference), len(predicted), len(reference))
    cp = index.canonical_set(predicted)
    cr = index.canonical_set(reference)
    sp, sr, sf = prf(len(cp & cr), len(cp), len(cr))
    return TagQualityReport(ep, er, ef, sp, sr, sf)


def self_consistency(runs: Sequence[TagSet], index: EquivalenceIndex) -> float:
    """Mean pairwise semantic F1 across independent tag-generation runs."""
    if len(runs) < 2:
        raise InputError("self_consistency needs at least 2 runs")
    scores = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            scores.append(tag_quality_metrics(runs[i], runs[j], index).semantic_f1)
    return sum(scores) / len(scores)


def dump_tags(library: SkillLibrary, path: str | Path) -> None:
    """Write the skill-id to tag-list mapping as JSON."""
    mapping = {skill.id: sorted(skill.tags) for skill in library}
    write_text_atomic(path, json.dumps(mapping, indent=2, sort_keys=True) + "\n")
