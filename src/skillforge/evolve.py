"""Candidate-skill generation from failure pairs.

For each failed task-trajectory pair the engine selects source skills that
cover the task's required tag classes, assembles a generation prompt from the
task, the trajectory, the selected skills, and the still-uncovered tags, and
parses the chat reply into a new skill. Pairs of one generation call whose
targets canonicalize to the same class set share one selection. Candidate
tags are then produced by the same tagging path used for library skills
rather than trusted from the generator's own claims, so the scoring pipeline
sees one uniform tag source.

Generation is best effort per pair: replies come through ``providers.base.ask``,
which re-asks an unparseable one, and a pair whose work raises one of
``errors.PAIR_FAULTS`` is skipped with a log entry instead of ending the epoch.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Mapping, Sequence
from pathlib import Path
from urllib.parse import quote

from skillforge import prompts
from skillforge._parallel import DEFAULT_MAX_WORKERS, parallel_map
from skillforge.cover import CoverInstance, SelectionResult, select_sources
from skillforge.errors import PAIR_FAULTS, InputError, ParseError
from skillforge.model import ORIGIN_EVOLVED, FailurePair, Skill, SkillLibrary, write_text_atomic
from skillforge.providers.base import ChatProvider, ChatRequest, ask
from skillforge.tags import EquivalenceIndex, SkillText, TagSet, generate_skill_tags

logger = logging.getLogger(__name__)

_NAME_RE = re.compile(r"^NAME:\s*(.+)$", re.MULTILINE)
_DESCRIPTION_RE = re.compile(r"^DESCRIPTION:\s*(.+)$", re.MULTILINE)
_BODY_RE = re.compile(r"^BODY:\s*\n?(.*)\Z", re.MULTILINE | re.DOTALL)


def candidate_id(epoch: int, pair_id: str) -> str:
    # The fixed "-0" suffix keeps the ids in saved libraries and pinned reports.
    return f"evo-{epoch}-{pair_id}-0"


def build_cover_instance(
    target: TagSet, library_instance: CoverInstance, index: EquivalenceIndex
) -> CoverInstance:
    """Canonicalize the target tags into class ids and pose them against
    ``library_instance``, which maps each library skill id to its tags'
    class ids; ``generate_candidates`` builds it once per call, and every
    pair's instance shares its map and order."""
    return library_instance.with_targets(index.canonical_set(target))


def assemble_generation_prompt(
    pair: FailurePair,
    selection: SelectionResult,
    sources: Sequence[Skill],
    uncovered: Sequence[str],
) -> ChatRequest:
    """Deterministically render the generation request for one failure pair."""
    if tuple(s.id for s in sources) != selection.selected:
        raise InputError("sources must match selection.selected in order")
    lines = [
        f"{prompts.TASK_HEADER} {pair.task.description}",
        "",
        prompts.TRAJECTORY_HEADER,
        prompts.render_trajectory(pair.trajectory.steps, pair.trajectory.final_output),
        "",
        prompts.SOURCE_SKILLS_HEADER,
    ]
    if not sources:
        lines.append(prompts.NO_SOURCE_SKILLS)
    else:
        for skill in sources:
            lines.append(f"### {skill.name}")
            lines.append(f"description: {skill.description}")
            lines.append(f"{prompts.SOURCE_TAGS_PREFIX} {', '.join(sorted(skill.tags))}")
            lines.append("body:")
            lines.append(skill.body)
    lines.append("")
    lines.append(prompts.UNCOVERED_HEADER)
    if uncovered:
        lines.extend(f"- {tag}" for tag in sorted(uncovered))
    else:
        lines.append(prompts.NO_UNCOVERED)
    lines.append("")
    lines.append(prompts.GENERATION_INSTRUCTION)
    return ChatRequest(system=prompts.GENERATE_SYSTEM, user="\n".join(lines))


def parse_skill_response(text: str) -> tuple[str, str, str]:
    """Extract the NAME / DESCRIPTION / BODY sections of a generation reply."""
    name = _NAME_RE.search(text)
    description = _DESCRIPTION_RE.search(text)
    body = _BODY_RE.search(text)
    if not (name and description and body):
        raise ParseError("reply is missing a NAME, DESCRIPTION, or BODY section")
    body_text = body.group(1).strip()
    if not body_text:
        raise ParseError("reply has an empty BODY section")
    return name.group(1).strip(), description.group(1).strip(), body_text


def generate_candidates(
    failures: Sequence[FailurePair],
    library: SkillLibrary,
    index: EquivalenceIndex,
    chat: ChatProvider,
    epoch: int,
    target_tags: Mapping[str, TagSet],
    strategy: str = "greedy",
    dump_dir: str | Path | None = None,
    max_workers: int = DEFAULT_MAX_WORKERS,
) -> dict[str, Skill]:
    """Generate one candidate skill per failure pair for library ``epoch``.

    ``target_tags`` maps each failing task id to its inferred required tag
    set; every tag must already be present in ``index``, as must the tags of
    every library skill. ``select_sources`` runs once per distinct
    canonical target class set: within the call the library, ``index`` and
    ``strategy`` are fixed, so pairs whose targets canonicalize equal get
    the same selection, sources and uncovered tags, and each still gets its
    own prompt. The memo is local to the call. Provider calls run with
    bounded parallelism over the pairs. Returns the tagged skills keyed by
    pair id, in pair-id order; a skipped pair has no entry.
    """
    prepped: list[tuple[str, ChatRequest]] = []
    # Neither the library nor ``index`` changes during the call, so a
    # selection depends on the canonical target classes alone.
    library_instance = CoverInstance(frozenset(), {skill.id: index.canonical_set(skill.tags) for skill in library})
    chosen: dict[frozenset[str], tuple[SelectionResult, list[Skill], list[str]]] = {}
    for pair in sorted(failures, key=lambda p: p.task.id):
        pair_id = pair.task.id
        if pair_id not in target_tags:
            raise InputError(f"no target tags supplied for failing task {pair_id!r}")
        instance = build_cover_instance(target_tags[pair_id], library_instance, index)
        if instance.target_classes not in chosen:
            selection = select_sources(instance, strategy)
            sources = [library.get(sid) for sid in selection.selected]
            chosen[instance.target_classes] = (selection, sources, sorted(selection.uncovered))
        request = assemble_generation_prompt(pair, *chosen[instance.target_classes])
        if dump_dir is not None:
            _dump_prompt(Path(dump_dir), epoch, pair_id, request)
        prepped.append((pair_id, request))

    skills = parallel_map(
        lambda item: _complete_one(chat, item[1], epoch, item[0]),
        prepped,
        max_workers=max_workers,
    )
    return {pair_id: skill for (pair_id, _), skill in zip(prepped, skills) if skill is not None}


def _complete_one(chat: ChatProvider, request: ChatRequest, epoch: int, pair_id: str) -> Skill | None:
    try:
        name, description, body = ask(chat, request, parse_skill_response, f"pair {pair_id!r}")
        text = SkillText(candidate_id(epoch, pair_id), name, description, body)
        tags = generate_skill_tags(text, chat)
        return Skill(**text._asdict(), tags=tags, origin=ORIGIN_EVOLVED, created_epoch=epoch)
    except PAIR_FAULTS as exc:
        logger.warning("skipping pair %s: %s", pair_id, exc)
        return None


def _dump_prompt(directory: Path, epoch: int, pair_id: str, request: ChatRequest) -> None:
    """Write the prompt to ``evo-{epoch}-{pair id}.prompt.txt``, the pair id
    percent-encoded so that an id holding ``/`` still names one file."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"evo-{epoch}-{quote(pair_id, safe='')}.prompt.txt"
    write_text_atomic(path, f"SYSTEM:\n{request.system}\n\nUSER:\n{request.user}\n")
