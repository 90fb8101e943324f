from __future__ import annotations

import itertools

import numpy as np
import pytest

from skillforge.errors import ConfigError, InputError
from skillforge.model import Task
from skillforge.providers.mock import MockEmbedder
from skillforge.world import (
    TAG_VOCABULARY,
    WorldConfig,
    generate_transfer_worlds,
    generate_world,
    load_world,
    save_world,
)


def test_default_world_plants_exact_coverable_fraction():
    world = generate_world(WorldConfig(seed=7))
    assert len(world.tasks) == 50
    coverable = [t for t in world.tasks if t.metadata["coverable"] == "true"]
    assert len(coverable) == 20
    covered = set(world.covered_universe)
    for task in world.tasks:
        required = world.required_tags(task)
        if task.metadata["coverable"] == "true":
            assert required <= covered
        else:
            assert required - covered


def test_world_generation_is_deterministic():
    a = generate_world(WorldConfig(seed=11))
    b = generate_world(WorldConfig(seed=11))
    assert a == b
    c = generate_world(WorldConfig(seed=12))
    assert a != c


def test_task_descriptions_embed_their_required_tags():
    world = generate_world(WorldConfig(seed=3))
    for task in world.tasks:
        for tag in world.required_tags(task):
            assert tag in task.description


def test_required_tags_are_normalized_like_every_other_tag():
    world = generate_world(WorldConfig(seed=3))
    spaced = Task("t", "Task t", {"required_tags": " Email Threading ,video_editing, pdf_text_extraction"})
    plain = Task("u", "Task u", {"required_tags": "email_threading,pdf_text_extraction,video_editing"})
    expected = frozenset({"email_threading", "video_editing", "pdf_text_extraction"})
    assert world.required_tags(spaced) == world.required_tags(plain) == expected
    first, second, third = world.required_tag_sets([spaced, plain, spaced])
    assert first == second == expected and first is third


@pytest.mark.parametrize("raw", ["a,,b", "a,b,", " ,a", ",", ""])
def test_an_empty_required_tag_names_its_task(raw):
    world = generate_world(WorldConfig(seed=3))
    tasks = [Task("ok", "Task ok", {"required_tags": "a,b"}), Task("bad-7", "Task bad-7", {"required_tags": raw})]
    with pytest.raises(InputError, match="task 'bad-7'"):
        world.required_tag_sets(tasks)
    with pytest.raises(InputError, match="task 'bad-7'"):
        world.required_tags(tasks[1])


def test_initial_skills_cover_exactly_the_covered_universe():
    world = generate_world(WorldConfig(seed=5))
    skill_tags = set()
    for skill in world.initial_skills:
        skill_tags |= skill.tags
    assert skill_tags == set(world.covered_universe)
    for skill in world.initial_skills:
        assert skill.origin == "human"
        for tag in skill.tags:
            assert tag in skill.body


def test_vocabulary_stays_distinct_under_mock_embedder():
    # The equivalence threshold is 0.9; planted tags must never merge.
    vectors = MockEmbedder().embed(list(TAG_VOCABULARY))
    for i, j in itertools.combinations(range(len(TAG_VOCABULARY)), 2):
        assert float(np.dot(vectors[i], vectors[j])) < 0.9


def test_world_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(coverable_fraction=1.5)
    with pytest.raises(ConfigError):
        WorldConfig(covered_tags=0)
    with pytest.raises(ConfigError):
        WorldConfig(n_tags=999)
    with pytest.raises(ConfigError):
        WorldConfig(max_required=99)


def test_fully_covered_world_rejects_uncoverable_tasks():
    with pytest.raises(ConfigError):
        generate_world(WorldConfig(seed=1, covered_tags=10, coverable_fraction=0.5))
    world = generate_world(WorldConfig(seed=1, covered_tags=10, coverable_fraction=1.0))
    assert all(t.metadata["coverable"] == "true" for t in world.tasks)


def test_transfer_worlds_share_the_requested_overlap():
    world_a, world_b = generate_transfer_worlds(WorldConfig(seed=7))
    shared = set(world_a.tag_universe) & set(world_b.tag_universe)
    assert len(shared) == 3
    assert len(world_a.tag_universe) == len(world_b.tag_universe) == 10


def test_world_round_trips_through_disk(tmp_path):
    world = generate_world(WorldConfig(seed=9))
    save_world(world, tmp_path / "w")
    loaded = load_world(tmp_path / "w")
    assert loaded == world
