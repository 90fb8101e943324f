"""Candidate filtering: knowledge coverage, task alignment, and library update.

A candidate is scored on two axes. Knowledge coverage is the class-canonical
F1 between the candidate's tags and the target tags of the failure that
produced it. Task alignment is the sigmoid of the per-token gap between the
task-conditioned and unconditional log-likelihood of the candidate body,
which cancels the score model's prior preference for generically plausible
text. The combined score is their geometric mean; the top fraction of
candidates by combined score joins the library. ``score_candidate`` turns a
generated ``Skill`` into the one ``CandidateSkill`` it ever gets, so every
candidate that reaches the filter carries its scores.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from skillforge.errors import ConfigError, InputError, ProviderError, ScoringError
from skillforge.model import Skill, SkillLibrary, Task, add_skills, write_csv
from skillforge.providers.base import LikelihoodProvider
from skillforge.tags import EquivalenceIndex, TagSet, prf

logger = logging.getLogger(__name__)

DEFAULT_FILTER_RATIO = 0.2

SCORE_CSV_COLUMNS = (
    "candidate_id",
    "pair_id",
    "p_tag",
    "r_tag",
    "f_tag",
    "alignment",
    "combined",
    "retained",
)


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


@dataclass(frozen=True)
class ScoreRecord:
    p_tag: float
    r_tag: float
    f_tag: float
    alignment: float
    combined: float
    cond_logprob: float
    uncond_logprob: float
    token_count: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CandidateSkill:
    """A scored candidate: the generated skill, the id of the failure pair
    that produced it and its scores. Only ``score_candidate`` builds one."""

    skill: Skill
    source_pair_id: str
    scores: ScoreRecord


def knowledge_coverage(skill: Skill, target: TagSet, index: EquivalenceIndex) -> tuple[float, float, float]:
    """Class-canonical precision, recall, and F1 of a candidate skill's tags."""
    predicted = index.canonical_set(skill.tags)
    if not predicted:
        logger.warning("candidate %s has no tags; coverage forced to 0", skill.id)
        return 0.0, 0.0, 0.0
    reference = index.canonical_set(target)
    if not reference:
        # Recall is undefined on an empty target set; treat as 0 so the
        # candidate is rejected on coverage rather than silently kept.
        logger.warning("empty target tag set for candidate %s; recall treated as 0", skill.id)
        return 0.0, 0.0, 0.0
    return prf(len(predicted & reference), len(predicted), len(reference))


def alignment_score(
    skill: Skill, task: Task, likelihood: LikelihoodProvider
) -> tuple[float, float, float, int]:
    """Sigmoid of the mean per-token conditional-vs-unconditional logprob gap
    of a candidate skill's body."""
    body = skill.body
    if not body:
        raise InputError(f"candidate {skill.id!r} has an empty body")
    try:
        conditional = likelihood.score_likelihood(task.description, body)
        unconditional = likelihood.score_likelihood("", body)
    except ProviderError as exc:
        raise ScoringError(f"likelihood scoring failed for {skill.id!r}: {exc}") from exc
    if unconditional.token_count != conditional.token_count:
        logger.warning(
            "token count mismatch for %s (cond=%d, uncond=%d); using the conditional count",
            skill.id,
            conditional.token_count,
            unconditional.token_count,
        )
    token_count = conditional.token_count
    alignment = sigmoid((conditional.sum_logprob - unconditional.sum_logprob) / token_count)
    return alignment, conditional.sum_logprob, unconditional.sum_logprob, token_count


def combined_score(f_tag: float, alignment: float) -> float:
    if not (0.0 <= f_tag <= 1.0 and 0.0 <= alignment <= 1.0):
        raise InputError("combined_score inputs must lie in [0, 1]")
    return math.sqrt(f_tag * alignment)


def score_candidate(
    skill: Skill,
    target: TagSet,
    task: Task,
    index: EquivalenceIndex,
    likelihood: LikelihoodProvider,
) -> CandidateSkill:
    """Score ``skill``, generated from the failure of ``task`` whose target
    tags are ``target``, and return it as a candidate of pair ``task.id``."""
    p, r, f = knowledge_coverage(skill, target, index)
    alignment, cond, uncond, token_count = alignment_score(skill, task, likelihood)
    record = ScoreRecord(
        p_tag=p,
        r_tag=r,
        f_tag=f,
        alignment=alignment,
        combined=combined_score(f, alignment),
        cond_logprob=cond,
        uncond_logprob=uncond,
        token_count=token_count,
    )
    return CandidateSkill(skill, task.id, record)


def retention_count(n: int, ratio: float) -> int:
    """How many of n candidates the filter keeps: max(1, floor(ratio*n + 0.5))."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"filter ratio must lie in (0, 1], got {ratio}")
    if n < 1:
        return 0
    return max(1, math.floor(ratio * n + 0.5))


def rank_candidates(candidates: Sequence[CandidateSkill]) -> list[CandidateSkill]:
    """Descending by combined score, ties by f_tag then candidate id."""
    return sorted(
        candidates,
        key=lambda c: (-c.scores.combined, -c.scores.f_tag, c.skill.id),
    )


def filter_and_update(
    candidates: Sequence[CandidateSkill],
    library: SkillLibrary,
    ratio: float,
) -> tuple[SkillLibrary, tuple[CandidateSkill, ...], list[dict]]:
    """Keep the top scored candidates by combined score and fold them into the
    library; return the new library, the retained candidates and one row per
    candidate."""
    keep = retention_count(len(candidates), ratio)
    ranked = rank_candidates(candidates)
    retained = tuple(ranked[:keep])
    retained_ids = {c.skill.id for c in retained}

    rows = []
    for candidate in ranked:
        record = candidate.scores
        rows.append(
            {
                "candidate_id": candidate.skill.id,
                "pair_id": candidate.source_pair_id,
                "p_tag": record.p_tag,
                "r_tag": record.r_tag,
                "f_tag": record.f_tag,
                "alignment": record.alignment,
                "combined": record.combined,
                "retained": candidate.skill.id in retained_ids,
            }
        )

    return add_skills(library, [c.skill for c in retained]), retained, rows


def write_score_csv(rows: Sequence[dict], path: str | Path) -> None:
    write_csv(rows, SCORE_CSV_COLUMNS, path)
