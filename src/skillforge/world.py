"""Seeded synthetic task world for offline end-to-end runs.

Each task hides a required tag set drawn from the world's tag universe and
embeds those tags verbatim in its description, so BM25 retrieval is
informative and the deterministic tag mocks can read the requirements back.
Initial skills cover only part of the universe; the generator plants an exact
fraction of tasks whose requirements stay inside that covered part, which
pins the base pass rate.

Task success is defined by coverage: a task passes when the retrieved
skills' tag classes cover at least ``coverage_threshold`` of its required
tag classes. This rule is an artifact construction standing in for external
benchmark judges, and reports label it as such.
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from skillforge.errors import ConfigError, InputError, ParseError
from skillforge.model import (
    ORIGIN_HUMAN,
    Skill,
    SkillLibrary,
    Task,
    _field,
    _read_json,
    load_library,
    load_tasks,
    save_library,
    save_tasks,
    write_text_atomic,
)
from skillforge.tags import normalize_tag

TAG_VOCABULARY = (
    "pdf_text_extraction",
    "table_formatting",
    "video_editing",
    "audio_transcription",
    "image_cropping",
    "csv_parsing",
    "json_validation",
    "regex_matching",
    "date_arithmetic",
    "unit_conversion",
    "chart_plotting",
    "text_summarization",
    "file_compression",
    "api_pagination",
    "html_scraping",
    "sql_filtering",
    "password_hashing",
    "email_threading",
    "geo_distance",
    "currency_rounding",
    "spreadsheet_pivot",
    "markdown_rendering",
    "latex_equations",
    "color_quantization",
)

METADATA_REQUIRED_TAGS = "required_tags"
METADATA_COVERABLE = "coverable"

TRANSFER_OVERLAP = 0.3


@dataclass(frozen=True)
class WorldConfig:
    seed: int = 7
    n_tasks: int = 50
    coverable_fraction: float = 0.4
    n_tags: int = 10
    covered_tags: int = 6
    min_required: int = 2
    max_required: int = 3
    coverage_threshold: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverable_fraction <= 1.0:
            raise ConfigError("coverable_fraction must lie in [0, 1]")
        if self.n_tags > len(TAG_VOCABULARY):
            raise ConfigError(f"at most {len(TAG_VOCABULARY)} tags are available")
        if not 0 < self.covered_tags <= self.n_tags:
            raise ConfigError("covered_tags must lie in (0, n_tags]")
        if not 1 <= self.min_required <= self.max_required:
            raise ConfigError("required-tag bounds must satisfy 1 <= min <= max")
        if self.max_required > self.n_tags:
            raise ConfigError("max_required cannot exceed n_tags")
        if not 0.0 < self.coverage_threshold <= 1.0:
            raise ConfigError("coverage_threshold must lie in (0, 1]")


@dataclass(frozen=True)
class SyntheticWorld:
    config: WorldConfig
    tag_universe: tuple[str, ...]
    covered_universe: tuple[str, ...]
    tasks: tuple[Task, ...]
    initial_skills: tuple[Skill, ...]

    @property
    def coverage_threshold(self) -> float:
        return self.config.coverage_threshold

    def initial_library(self) -> SkillLibrary:
        return SkillLibrary(skills=self.initial_skills, epoch=0)

    def required_tags(self, task: Task) -> frozenset[str]:
        """The task's required tags: its comma-separated metadata string, each
        piece normalized as every other tag is (so ``"a, b"`` means ``a`` and
        ``b``). A missing string or an empty piece raises ``InputError``."""
        raw = task.metadata.get(METADATA_REQUIRED_TAGS, "")
        if not raw:
            raise InputError(f"task {task.id!r} carries no required-tag ground truth")
        try:
            return frozenset(map(normalize_tag, raw.split(",")))
        except InputError as exc:
            raise InputError(f"task {task.id!r} has a bad required-tag list {raw!r}: {exc}") from None

    def required_tag_sets(self, tasks: Sequence[Task]) -> list[frozenset[str]]:
        """``required_tags`` of each task, in task order. Each distinct
        metadata string is parsed once, so tasks with equal strings share one
        set."""
        parsed: dict[str, frozenset[str]] = {}
        raws = [task.metadata.get(METADATA_REQUIRED_TAGS, "") for task in tasks]
        for raw, task in zip(raws, tasks):
            if raw not in parsed:
                parsed[raw] = self.required_tags(task)
        return [parsed[raw] for raw in raws]


def _task_description(task_id: str, required: list[str]) -> str:
    listed = ", ".join(sorted(required))
    return f"Task {task_id}: requires capabilities: {listed}."


def _skill_body(tags: list[str]) -> str:
    listed = ", ".join(sorted(tags))
    words = " ".join(t.replace("_", " ") for t in sorted(tags))
    return (
        f"Procedure for {listed}.\n"
        f"Follow the standard steps for {words} and verify the output."
    )


def generate_world(config: WorldConfig, universe: tuple[str, ...] | None = None) -> SyntheticWorld:
    """Build a deterministic world from the config seed.

    ``universe`` overrides the seeded vocabulary sample, which the transfer
    harness uses to build worlds with controlled tag overlap.
    """
    rng = random.Random(config.seed)
    if universe is None:
        universe = tuple(rng.sample(TAG_VOCABULARY, config.n_tags))
    elif len(universe) != config.n_tags:
        raise ConfigError("universe size must equal n_tags")

    shuffled = list(universe)
    rng.shuffle(shuffled)
    covered = tuple(sorted(shuffled[: config.covered_tags]))
    missing = tuple(sorted(shuffled[config.covered_tags :]))

    skills = []
    for i, tag in enumerate(covered):
        skills.append(
            Skill(
                id=f"human-{i:02d}",
                name=f"{tag.replace('_', ' ')} procedure",
                description=f"How to handle {tag.replace('_', ' ')} reliably.",
                body=_skill_body([tag]),
                tags=frozenset([tag]),
                origin=ORIGIN_HUMAN,
                created_epoch=0,
            )
        )
    # A couple of broader two-tag skills so selection has real choices.
    extra = 0
    if len(covered) >= 2:
        for j in range(0, len(covered) - 1, 3):
            pair = [covered[j], covered[j + 1]]
            skills.append(
                Skill(
                    id=f"human-{len(covered) + extra:02d}",
                    name=f"{pair[0].split('_')[0]} and {pair[1].split('_')[0]} combo",
                    description=f"Combined workflow for {pair[0]} with {pair[1]}.",
                    body=_skill_body(pair),
                    tags=frozenset(pair),
                    origin=ORIGIN_HUMAN,
                    created_epoch=0,
                )
            )
            extra += 1

    n_coverable = round(config.n_tasks * config.coverable_fraction)
    coverable_flags = [True] * n_coverable + [False] * (config.n_tasks - n_coverable)
    rng.shuffle(coverable_flags)

    tasks = []
    for i, coverable in enumerate(coverable_flags):
        task_id = f"task-{i:03d}"
        size = rng.randint(config.min_required, config.max_required)
        if coverable:
            required = rng.sample(covered, min(size, len(covered)))
        else:
            if not missing:
                raise ConfigError("cannot plant uncoverable tasks: every tag is covered")
            n_missing = rng.randint(1, min(size, len(missing)))
            required = rng.sample(missing, n_missing)
            rest = [t for t in covered if t not in required]
            required += rng.sample(rest, min(size - n_missing, len(rest)))
        tasks.append(
            Task(
                id=task_id,
                description=_task_description(task_id, required),
                metadata={
                    METADATA_REQUIRED_TAGS: ",".join(sorted(required)),
                    METADATA_COVERABLE: "true" if coverable else "false",
                    "benchmark": "synthetic",
                },
            )
        )

    return SyntheticWorld(
        config=config,
        tag_universe=tuple(sorted(universe)),
        covered_universe=covered,
        tasks=tuple(tasks),
        initial_skills=tuple(skills),
    )


WORLD_FILE = "world.json"
TASKS_FILE = "tasks.jsonl"
LIBRARY_FILE = "library.jsonl"


def save_world(world: SyntheticWorld, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": asdict(world.config),
        "tag_universe": list(world.tag_universe),
        "covered_universe": list(world.covered_universe),
    }
    write_text_atomic(directory / WORLD_FILE, json.dumps(payload, indent=2) + "\n")
    save_tasks(world.tasks, directory / TASKS_FILE)
    save_library(world.initial_library(), directory / LIBRARY_FILE)


def _world_fields(raw: dict) -> dict:
    """The config and tag universes of a ``world.json`` object; a config key
    that is absent takes its default. Raises ``ParseError`` naming a missing,
    mistyped or unknown field."""
    config = _field(raw, "config", dict, items=None)
    defaults = {f.name: f.default for f in fields(WorldConfig)}
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ParseError(f"field 'config' holds unknown key(s): {', '.join(unknown)}")
    return {
        "config": WorldConfig(**{name: _field(config, name, type(d), d) for name, d in defaults.items()}),
        "tag_universe": tuple(_field(raw, "tag_universe", list)),
        "covered_universe": tuple(_field(raw, "covered_universe", list)),
    }


def load_world(directory: str | Path) -> SyntheticWorld:
    """Raises ``ParseError`` naming the file and field of a bad ``world.json``."""
    directory = Path(directory)
    return SyntheticWorld(
        **_read_json(directory / WORLD_FILE, "world", _world_fields),
        tasks=load_tasks(directory / TASKS_FILE),
        initial_skills=load_library(directory / LIBRARY_FILE).skills,
    )


def generate_transfer_worlds(base: WorldConfig) -> tuple[SyntheticWorld, SyntheticWorld]:
    """Two worlds whose tag universes share roughly ``TRANSFER_OVERLAP`` of their tags."""
    rng = random.Random(base.seed ^ 0x5EED)
    n = base.n_tags
    n_shared = round(n * TRANSFER_OVERLAP)
    needed = 2 * n - n_shared
    if needed > len(TAG_VOCABULARY):
        raise ConfigError("vocabulary too small for the requested transfer universes")
    drawn = rng.sample(TAG_VOCABULARY, needed)
    shared = drawn[:n_shared]
    only_a = drawn[n_shared:n]
    only_b = drawn[n : 2 * n - n_shared]
    world_a = generate_world(base, universe=tuple(shared + only_a))
    world_b = generate_world(replace(base, seed=base.seed + 1), universe=tuple(shared + only_b))
    return world_a, world_b
