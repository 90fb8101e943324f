from __future__ import annotations

import contextlib
import functools
import json
import logging
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillforge import memo, prompts
from skillforge.errors import ConfigError, GenerationError, InputError, ProviderError, ScoringError, TaggingError
from skillforge.evolve import generate_candidates
from skillforge.harness import (
    RATIO_SWEEP_VALUES,
    EvolutionReport,
    ProviderBundle,
    RunConfig,
    TaskTable,
    apply_label_scale,
    average_ranks,
    emit_report,
    evaluate_tasks,
    evolve_library,
    mock_provider_factory,
    pass_rate,
    run_epoch,
    run_kfold,
    scorer_sensitivity,
    simulate_agent,
    spearman,
    strip_wall_clock,
    sweep,
    write_sweep_csv,
    _Session,
)
from skillforge.model import FailurePair, SkillLibrary, Task, Trajectory
from skillforge.providers.base import ASK_ATTEMPTS, ChatRequest, ChatResponse, ask
from skillforge.providers.http import HttpChatProvider, HttpConfig, HttpLikelihoodProvider
from skillforge.providers.mock import MockChatProvider, MockEmbedder, MockLikelihoodScorer
from skillforge.retrieval import build_index, retrieve
from skillforge.scoring import CandidateSkill, retention_count
from skillforge.tags import EquivalenceIndex, generate_skill_tags, generate_target_tags
from skillforge.world import WorldConfig, generate_world

from conftest import ScriptedChat, StubLikelihood, build_eq, make_pair, make_skill, requests_reply


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def _world(**kwargs):
    defaults = dict(seed=7)
    defaults.update(kwargs)
    return generate_world(WorldConfig(**defaults))


def _quick_config(**kwargs):
    defaults = dict(seed=7, epochs=2, folds=2, runs=1)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def _class_masks(eq, tag_sets):
    """Class names in bit order and one class mask per tag set."""
    names = sorted({eq.representative(tag) for tags in tag_sets for tag in tags})
    bit = {name: 1 << i for i, name in enumerate(names)}
    masks = [sum({bit[eq.representative(tag)] for tag in tags}) for tags in tag_sets]
    return names, masks


def test_simulate_agent_fails_on_empty_library_and_lists_missing_tags():
    world = _world(n_tasks=10)
    task = world.tasks[0]
    eq = build_eq(world.required_tags(task), MockEmbedder())
    names, (required_mask,) = _class_masks(eq, [world.required_tags(task)])
    hits = retrieve(build_index(SkillLibrary()), [task.description], 5)[0]
    pair = simulate_agent(task, hits, required_mask, names)
    assert isinstance(pair, FailurePair) and pair.task == task
    assert pair.trajectory.steps[0] == ("retrieve_skills", "retrieved: none")
    missing_note = pair.trajectory.steps[-1][1]
    for tag in world.required_tags(task):
        assert tag in missing_note


def test_simulate_agent_lists_missing_classes_in_sorted_order():
    names = ["alpha", "beta", "delta", "gamma"]
    pair = simulate_agent(Task(id="t", description="Task t"), [("s1", 1.0)], 0b1111 & ~0b0100, names)
    assert pair.trajectory.steps[0] == ("retrieve_skills", "retrieved: s1")
    assert pair.trajectory.final_output == "failure: missing alpha, beta, gamma"


def test_base_pass_rate_matches_planted_coverable_fraction():
    world = _world()
    config = RunConfig(seed=7)
    providers = mock_provider_factory()(7)
    outcomes = evaluate_tasks(list(world.tasks), world.initial_library(), world, config, providers.embedder)
    direct = sum(1 for t in world.tasks if t.metadata["coverable"] == "true") / len(world.tasks)
    assert pass_rate(outcomes) == pytest.approx(direct, abs=0.02)
    assert direct == pytest.approx(0.40, abs=1e-12)


def _reference_evaluation(tasks, library, world, config, embedder):
    """The per-task loop before batching: one retrieve per task and one
    ``library.get`` per hit, classes taken over the task's own retrieved tags.
    A pass maps to None and a failure to its pair, as ``evaluate_tasks`` does."""
    index = build_index(library)
    tags = set().union(*(skill.tags for skill in library), *(world.required_tags(t) for t in tasks))
    eq = build_eq(tags, embedder, config.delta)
    outcomes = []
    for task in tasks:
        required = world.required_tags(task)
        hits = retrieve(index, [task.description], config.retrieval_k)[0]
        retrieved_tags: set[str] = set()
        for skill_id, _ in hits:
            skill = library.get(skill_id)
            if skill is not None:
                retrieved_tags |= skill.tags
        required_classes = eq.canonical_set(required)
        retrieved_classes = eq.canonical_set(retrieved_tags)
        covered = required_classes & retrieved_classes
        fraction = len(covered) / len(required_classes) if required_classes else 1.0
        success = fraction >= world.coverage_threshold - 1e-9
        retrieved_note = ", ".join(sid for sid, _ in hits) if hits else "none"
        steps = [("retrieve_skills", f"retrieved: {retrieved_note}")]
        if success:
            steps.append(("check_coverage", "all required capabilities covered"))
            final = "success"
        else:
            missing = sorted(required_classes - retrieved_classes)
            steps.append(("check_coverage", f"missing knowledge: {', '.join(missing)}"))
            final = f"failure: missing {', '.join(missing)}"
        trajectory = Trajectory(task_id=task.id, steps=tuple(steps), final_output=final)
        outcomes.append(None if success else FailurePair(task=task, trajectory=trajectory))
    return outcomes


@pytest.mark.parametrize("delta", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("world_seed", [3, 11])
def test_batched_evaluation_equals_the_per_task_loop(delta, world_seed):
    world = _world(seed=world_seed, n_tasks=40)
    config = RunConfig(seed=world_seed, epochs=2, delta=delta)
    providers = mock_provider_factory(noise_rate=0.5)(world_seed)
    evolved, _, _ = evolve_library(config, world, providers)
    assert len(evolved) > len(world.initial_library())
    for library in (world.initial_library(), evolved, SkillLibrary()):
        for tasks in (list(world.tasks), sorted(world.tasks, key=lambda t: t.description)[:7], []):
            expected = _reference_evaluation(tasks, library, world, config, MockEmbedder())
            assert evaluate_tasks(tasks, library, world, config, MockEmbedder()) == expected


@functools.cache
def _shared_world(seed):
    """A 4-tag world of 80 tasks, so at most 10 distinct required-tag sets,
    with its initial, evolved and empty libraries."""
    world = generate_world(WorldConfig(seed=seed, n_tasks=80, n_tags=4, covered_tags=2))
    evolved, _, _ = evolve_library(
        RunConfig(seed=seed, epochs=2), world, mock_provider_factory(noise_rate=0.5)(seed)
    )
    return world, (world.initial_library(), evolved, SkillLibrary())


@pytest.mark.parametrize("delta", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("world_seed", [3, 11])
def test_shared_rankings_and_tag_sets_judge_like_the_per_task_loop(delta, world_seed):
    world, libraries = _shared_world(world_seed)
    assert len({task.metadata["required_tags"] for task in world.tasks}) <= 10
    # Tasks with equal descriptions share one ranking; "?" matches no skill,
    # so those tasks share the empty ranking while their required tags differ.
    twins = [replace(task, id=f"twin-{task.id}") for task in world.tasks[:20]]
    no_hits = [replace(task, id=f"nohit-{task.id}", description="?") for task in world.tasks[::7]]
    tasks = list(world.tasks) + twins + no_hits
    config = RunConfig(seed=world_seed, delta=delta)
    for library in libraries:
        expected = _reference_evaluation(tasks, library, world, config, MockEmbedder())
        outcomes = evaluate_tasks(tasks, library, world, config, MockEmbedder())
        assert outcomes == expected
        assert any(o is None for o in outcomes) or library is libraries[2]
        assert all(o is not None for o in outcomes[-len(no_hits):])


def test_evaluation_parses_each_distinct_tag_string_once_and_builds_only_failures(monkeypatch):
    import skillforge.harness as harness

    class CountedStr(str):
        """A required-tag string that records each split of itself: a parse."""

        def split(self, *args):
            parses.append(str(self))
            return super().split(*args)

    parses: list[str] = []
    built = []
    original = harness.simulate_agent

    def counting(*args):
        pair = original(*args)
        built.append(pair)
        return pair

    world = _world(n_tasks=60, n_tags=4, covered_tags=2)
    tasks = [
        replace(task, metadata={**task.metadata, "required_tags": CountedStr(task.metadata["required_tags"])})
        for task in world.tasks
    ]
    distinct = {task.metadata["required_tags"] for task in tasks}
    assert len(distinct) < len(tasks)
    config = RunConfig(seed=7)
    expected = evaluate_tasks(list(world.tasks), world.initial_library(), world, config, MockEmbedder())
    monkeypatch.setattr(harness, "simulate_agent", counting)
    outcomes = evaluate_tasks(tasks, world.initial_library(), world, config, MockEmbedder())
    assert outcomes == expected
    assert sorted(parses) == sorted(distinct)
    assert 0 < len(built) == sum(o is not None for o in outcomes) < len(tasks)
    assert all(pair is not None for pair in built)


def _set_based_simulate_agent(task, hits, skill_classes, world, eq):
    """The judge before class masks: frozensets of classes per task."""
    required_classes = eq.canonical_set(world.required_tags(task))
    retrieved_classes = frozenset().union(*(skill_classes[skill_id] for skill_id, _ in hits))
    covered = required_classes & retrieved_classes
    fraction = len(covered) / len(required_classes) if required_classes else 1.0
    success = fraction >= world.coverage_threshold - 1e-9
    retrieved_note = ", ".join(sid for sid, _ in hits) if hits else "none"
    steps = [("retrieve_skills", f"retrieved: {retrieved_note}")]
    if success:
        steps.append(("check_coverage", "all required capabilities covered"))
        final = "success"
    else:
        missing = sorted(required_classes - retrieved_classes)
        steps.append(("check_coverage", f"missing knowledge: {', '.join(missing)}"))
        final = f"failure: missing {', '.join(missing)}"
    trajectory = Trajectory(task_id=task.id, steps=tuple(steps), final_output=final)
    return None if success else FailurePair(task=task, trajectory=trajectory)


def _set_based_evaluation(tasks, library, world, config, embedder):
    tags = set().union(*(skill.tags for skill in library), *(world.required_tags(t) for t in tasks))
    eq = build_eq(tags, embedder, config.delta)
    skill_classes = {skill.id: eq.canonical_set(skill.tags) for skill in library}
    hits = retrieve(build_index(library), [task.description for task in tasks], config.retrieval_k)
    return [
        _set_based_simulate_agent(task, task_hits, skill_classes, world, eq)
        for task, task_hits in zip(tasks, hits)
    ]


@functools.cache
def _oracle_world(seed):
    """The world of ``seed`` and its initial, evolved and empty libraries."""
    world = _world(seed=seed, n_tasks=40)
    evolved, _, _ = evolve_library(
        RunConfig(seed=seed, epochs=2), world, mock_provider_factory(noise_rate=0.5)(seed)
    )
    return world, {"initial": world.initial_library(), "evolved": evolved, "empty": SkillLibrary()}


@settings(max_examples=100, deadline=None)
@given(
    seed=st.sampled_from([3, 11]),
    delta=st.sampled_from([0.5, 0.9, 1.0]),
    threshold=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    which=st.sampled_from(["initial", "evolved", "empty"]),
    picks=st.lists(st.integers(0, 39), max_size=25),
    unmatched=st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=4), max_size=3),
)
def test_mask_judge_equals_the_set_based_judge(seed, delta, threshold, which, picks, unmatched):
    world, libraries = _oracle_world(seed)
    world = replace(world, config=replace(world.config, coverage_threshold=threshold))
    library = libraries[which]
    # Tasks whose descriptions share no term with any skill get no hits.
    no_hits = [
        Task(f"nohit-{i}", "?", {"required_tags": ",".join(world.tag_universe[j] for j in tags)})
        for i, tags in enumerate(unmatched)
    ]
    tasks = [world.tasks[i] for i in picks] + no_hits
    config = RunConfig(seed=seed, delta=delta)
    expected = _set_based_evaluation(tasks, library, world, config, MockEmbedder())
    assert evaluate_tasks(tasks, library, world, config, MockEmbedder()) == expected
    given_eq = EquivalenceIndex(delta)
    given_ranked = retrieve(build_index(library), [task.description for task in tasks], config.retrieval_k)
    assert evaluate_tasks(tasks, library, world, config, MockEmbedder(), given_eq, given_ranked) == expected
    assert all(pair.trajectory.steps[0][1] == "retrieved: none" for pair in expected[len(picks):])


def test_kfold_builds_one_bm25_index_per_epoch(monkeypatch):
    import skillforge.harness as harness

    builds = []
    original = harness.build_index

    def counting(library, *args, **kwargs):
        builds.append(len(library))
        return original(library, *args, **kwargs)

    monkeypatch.setattr(harness, "build_index", counting)
    config = RunConfig(seed=7, epochs=2, folds=3, runs=2)
    report = run_kfold(config, _world(n_tasks=30), mock_provider_factory(noise_rate=0.5))
    assert len(builds) == config.runs * config.folds * (config.epochs + 1)
    assert builds == [row.library_size for cell in report.cells for row in cell.rows]


def test_kfold_ranks_every_task_once_per_epoch_index(monkeypatch):
    import skillforge.harness as harness

    ranked = []
    original = harness.retrieve

    def counting(index, queries, k):
        ranked.append((index, len(queries)))
        return original(index, queries, k)

    monkeypatch.setattr(harness, "retrieve", counting)
    world = _world(n_tasks=30)
    config = RunConfig(seed=7, epochs=2, folds=3, runs=2)
    run_kfold(config, world, mock_provider_factory(noise_rate=0.5))
    # The held-out and training evaluations of an epoch share one call.
    assert len(ranked) == config.runs * config.folds * (config.epochs + 1)
    assert len({id(index) for index, _ in ranked}) == len(ranked)
    assert {n for _, n in ranked} == {len(world.tasks)}


def test_each_kfold_call_tokenizes_a_text_once(monkeypatch):
    import skillforge.retrieval as retrieval

    calls = []
    original = retrieval.tokenize

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(retrieval, "tokenize", counting)
    world = _world(n_tasks=30)
    config = RunConfig(seed=7, epochs=2, folds=3, runs=2)
    first = run_kfold(config, world, mock_provider_factory(noise_rate=0.5))
    first_calls, calls[:] = list(calls), []
    second = run_kfold(config, world, mock_provider_factory(noise_rate=0.5))
    assert strip_wall_clock(second.to_dict()) == strip_wall_clock(first.to_dict())
    assert calls == first_calls
    # One memo serves every run seed of a call; the next call starts afresh.
    assert max(Counter(first_calls).values()) == 1
    assert memo._TABLES.get() is None


def test_each_kfold_cell_prepares_its_task_sets_once(monkeypatch):
    import skillforge.retrieval as retrieval
    from skillforge.world import SyntheticWorld

    world = _world(n_tasks=30)
    config = RunConfig(seed=7, epochs=2, folds=3, runs=2)
    expected = run_kfold(config, world)
    parsed, tokenized = [], []
    parse, tokenize = SyntheticWorld.required_tag_sets, retrieval.tokenize

    def counting_parse(self, tasks):
        parsed.append(len(tasks))
        return parse(self, tasks)

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(SyntheticWorld, "required_tag_sets", counting_parse)
    monkeypatch.setattr(retrieval, "tokenize", counting_tokenize)
    report = run_kfold(config, world)
    assert strip_wall_clock(report.to_dict()) == strip_wall_clock(expected.to_dict())
    # Once per call, over every task, for all cells of all run seeds; not
    # once per task set per cell, which would be 12 times.
    assert parsed == [len(world.tasks)]
    descriptions = {task.description for task in world.tasks}
    assert Counter(text for text in tokenized if text in descriptions) == Counter(descriptions)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    seed=st.sampled_from([3, 11]),
    held_out=st.sets(st.integers(0, 39), max_size=20),
    steps=st.lists(
        st.tuples(st.integers(0, 15), st.booleans(), st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=4
    ),
)
def test_one_shared_table_judges_like_each_set_prepared_alone(seed, held_out, steps):
    # Each step grows the index to a longer prefix of the evolved library's
    # skills; a prefix that repeats gives an index equal in content to the
    # last but another object. A swapped step also judges a library of the
    # same size whose last skill is replaced by the next one. The held-out
    # and training sets rank with their own retrieval_k.
    world, libraries = _oracle_world(seed)
    pool = libraries["evolved"].skills
    table = TaskTable(world.tasks, world)
    holdout = sorted(held_out, reverse=True)
    train = [row for row in range(len(table)) if row not in held_out]
    shared = (table.take(holdout), table.take(train))
    index = None
    for cut, swapped, holdout_k, train_k in sorted(steps):
        cut = min(cut, len(pool))
        library = SkillLibrary(skills=pool[:cut])
        index = build_index(library, base=index)
        judged = [(library, index)]
        if swapped and 0 < cut < len(pool):
            other = SkillLibrary(skills=pool[: cut - 1] + pool[cut : cut + 1])
            judged.append((other, build_index(other)))
        for library, step_index in judged:
            for prepared, rows, k in zip(shared, (holdout, train), (holdout_k, train_k)):
                config = RunConfig(seed=seed, retrieval_k=k)
                ranked = retrieve(step_index, table.queries, k)
                outcomes = evaluate_tasks(prepared, library, world, config, MockEmbedder(), ranked=ranked)
                alone = evaluate_tasks([table[row] for row in rows], library, world, config, MockEmbedder())
                assert outcomes == alone
                assert [o and o.trajectory for o in outcomes] == [o and o.trajectory for o in alone]


def test_a_ranking_without_one_slot_per_table_row_is_rejected():
    world = _world(n_tasks=20)
    library = world.initial_library()
    table = TaskTable(world.tasks, world)
    # Rows 7, 3, 12, 5 and 9 of the table, taken through a table of its rows 3 to 14.
    rows = table.take(range(3, 15)).take([4, 0, 9, 2, 6])
    assert list(rows) == [table[row] for row in (7, 3, 12, 5, 9)]
    config = RunConfig(seed=7)
    index = build_index(library)
    # A ranking of the rows alone, not of their table, and one a task short.
    of_rows = retrieve(index, [task.description for task in rows], config.retrieval_k)
    short = retrieve(index, table.queries[:-1], config.retrieval_k)
    for tasks, ranked in ((rows, of_rows), (rows, short), (list(world.tasks), short)):
        with pytest.raises(InputError, match="slots for a table of"):
            evaluate_tasks(tasks, library, world, config, MockEmbedder(), ranked=ranked)
    whole = retrieve(index, table.queries, config.retrieval_k)
    given = evaluate_tasks(rows, library, world, config, MockEmbedder(), ranked=whole)
    assert given == evaluate_tasks(list(rows), library, world, config, MockEmbedder())


def test_evaluation_starts_no_thread_pool(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    from skillforge._parallel import parallel_map

    def refuse(self, *args, **kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", refuse)
    world = _world(n_tasks=20)
    outcomes = evaluate_tasks(world.tasks, world.initial_library(), world, RunConfig(max_workers=4), MockEmbedder())
    assert len(outcomes) == 20
    with pytest.raises(AssertionError, match="thread pool started"):
        parallel_map(str, [1, 2], max_workers=4)


def test_kfold_with_in_process_providers_starts_no_thread_pool(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    world = _world(n_tasks=30)
    config = RunConfig(seed=7, epochs=2, folds=2, runs=2, max_workers=1)
    serial = strip_wall_clock(run_kfold(config, world, mock_provider_factory(noise_rate=0.5)).to_dict())

    def refuse(self, *args, **kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", refuse)
    wide = replace(config, max_workers=4)
    report = strip_wall_clock(run_kfold(wide, world, mock_provider_factory(noise_rate=0.5)).to_dict())
    assert report["config"].pop("max_workers") == 4
    assert serial["config"].pop("max_workers") == 1
    assert report == serial
    assert sum(row["n_candidates"] or 0 for cell in report["cells"] for row in cell["rows"]) > 0


class PooledChat(MockChatProvider):
    in_process = False


class PooledEmbedder(MockEmbedder):
    in_process = False


class PooledLikelihood(MockLikelihoodScorer):
    in_process = False


def _pooled_factory(noise_rate):
    """The seeded mocks, declared not in process so that the stages pool."""

    def factory(seed):
        return ProviderBundle(
            chat=PooledChat(seed=seed, noise_rate=noise_rate),
            embedder=PooledEmbedder(),
            likelihood=PooledLikelihood(seed=seed),
        )

    return factory


def _order_free(report):
    """The report without wall-clock times, ``max_workers`` and provider names."""
    payload = strip_wall_clock(report.to_dict())
    del payload["config"]["max_workers"], payload["providers"]
    return payload


@pytest.mark.parametrize("world_seed", [3, 7])
def test_pooled_stages_give_the_serial_report(monkeypatch, world_seed):
    from concurrent.futures import ThreadPoolExecutor

    world = _world(seed=world_seed, n_tasks=40)
    config = RunConfig(seed=7, epochs=2, folds=2, runs=2, max_workers=1)
    serial = _order_free(run_kfold(config, world, mock_provider_factory(noise_rate=0.5)))
    assert any(row["n_candidates"] for cell in serial["cells"] for row in cell["rows"])

    pools = []
    original = ThreadPoolExecutor.__init__

    def counting(self, *args, **kwargs):
        pools.append(kwargs["max_workers"])
        original(self, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting)
    for workers in (2, 4):
        pools.clear()
        report = run_kfold(replace(config, max_workers=workers), world, _pooled_factory(noise_rate=0.5))
        assert pools and set(pools) == {workers}
        assert _order_free(report) == serial


def test_run_epoch_builds_one_equivalence_index(monkeypatch):
    built = []
    original = EquivalenceIndex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(EquivalenceIndex, "__init__", counting)
    world = _world(n_tasks=20)
    _, _, stats = run_epoch(world.initial_library(), list(world.tasks), world, _Session(mock_provider_factory()(7)), RunConfig(seed=7))
    assert stats.n_candidates > 0
    assert len(built) == 1


def test_run_epoch_builds_each_candidate_once_when_it_is_scored(monkeypatch):
    built = []
    original = CandidateSkill.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CandidateSkill, "__init__", counting)
    world = _world(n_tasks=20)
    _, _, stats = run_epoch(world.initial_library(), list(world.tasks), world, _Session(mock_provider_factory()(7)), RunConfig(seed=7))
    assert stats.n_failures > 0
    assert len(built) == stats.n_candidates > 0
    assert sorted(c.skill.id for c in built) == sorted(row["candidate_id"] for row in stats.score_rows)


def _fresh_evolve_cell(library, train, holdout, world, providers, config, clock, dump_dir=None):
    """``_evolve_cell`` with every index built from nothing: one BM25 index
    and one equivalence index per evaluation, none carried to the next epoch."""
    import skillforge.harness as harness

    rows, stats_list = [], []
    for epoch in range(config.epochs + 1):
        holdout_rate = None
        if holdout is not None:
            holdout_rate = pass_rate(evaluate_tasks(holdout, library, world, config, providers.embedder))
        if epoch < config.epochs:
            outcomes, new_library, stats = run_epoch(
                library, train, world, providers, config, clock=clock, dump_dir=dump_dir,
                eq=EquivalenceIndex(config.delta),
            )
        else:
            outcomes = evaluate_tasks(train, library, world, config, providers.embedder)
            new_library, stats = library, None
        pending = stats_list[-1] if stats_list else None
        rows.append(
            harness.EpochRow(
                epoch=epoch,
                library_size=len(library),
                train_pass_rate=pass_rate(outcomes),
                holdout_pass_rate=pass_rate(outcomes) if holdout_rate is None else holdout_rate,
                n_failures=pending.n_failures if pending else None,
                n_candidates=pending.n_candidates if pending else None,
                n_retained=pending.n_retained if pending else None,
                mean_f_tag=pending.mean_f_tag if pending else None,
                mean_alignment=pending.mean_alignment if pending else None,
                tokens_used=pending.tokens_used if pending else 0,
                wall_clock_ms=pending.wall_clock_ms if pending else 0,
            )
        )
        if stats is not None:
            stats_list.append(stats)
        library = new_library
    return library, rows, stats_list


@pytest.mark.parametrize("strategy", ["greedy", "primal_dual"])
@pytest.mark.parametrize("folds", [1, 3])
def test_grown_indexes_give_the_kfold_report_of_fresh_ones(monkeypatch, strategy, folds):
    import skillforge.harness as harness

    # At delta 0.5 noisy target and candidate tags often merge classes of
    # the evaluation's tags, so an index that kept them would show.
    world = _world(n_tasks=36)
    config = RunConfig(seed=7, epochs=3, folds=folds, runs=2, strategy=strategy, delta=0.5)
    grown = run_kfold(config, world, mock_provider_factory(noise_rate=3.0))
    monkeypatch.setattr(harness, "_evolve_cell", _fresh_evolve_cell)
    fresh = run_kfold(config, world, mock_provider_factory(noise_rate=3.0))
    assert sum(row.n_retained or 0 for cell in fresh.cells for row in cell.rows) > 0
    assert strip_wall_clock(grown.to_dict()) == strip_wall_clock(fresh.to_dict())


def test_grown_indexes_give_the_evolved_library_of_fresh_ones(monkeypatch, tmp_path):
    import skillforge.harness as harness
    from skillforge.model import save_library

    world = _world(n_tasks=40)
    config = RunConfig(seed=7, epochs=3, filter_ratio=0.5, delta=0.5)
    outputs = []
    for name in ("grown", "fresh"):
        if name == "fresh":
            monkeypatch.setattr(harness, "_evolve_cell", _fresh_evolve_cell)
        library, report, _ = evolve_library(config, world, mock_provider_factory(noise_rate=3.0)(7))
        save_library(library, tmp_path / f"{name}.jsonl")
        outputs.append((strip_wall_clock(report.to_dict()), (tmp_path / f"{name}.jsonl").read_bytes()))
    assert len(library) > len(world.initial_library())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("folds, per_cell", [(3, 2), (1, 1)])
def test_a_kfold_cell_constructs_one_equivalence_index_per_task_set(monkeypatch, folds, per_cell):
    built = []
    original = EquivalenceIndex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(EquivalenceIndex, "__init__", counting)
    config = RunConfig(seed=7, epochs=2, folds=folds, runs=2)
    report = run_kfold(config, _world(n_tasks=30), mock_provider_factory(noise_rate=0.5))
    assert any(row.n_candidates for cell in report.cells for row in cell.rows)
    assert len(built) == per_cell * len(report.cells)


def _record_builds(monkeypatch, name):
    """Wrap ``harness.<name>`` and return the list of every object it builds."""
    import skillforge.harness as harness

    built, cls = [], getattr(harness, name)

    def recording(*args, **kwargs):
        built.append(cls(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, name, recording)
    return built


def test_evaluation_builds_one_failure_pair_per_failing_task_and_nothing_for_a_pass(monkeypatch):
    import skillforge.harness as harness

    world = _world(n_tasks=40)
    pairs, trajectories = _record_builds(monkeypatch, "FailurePair"), _record_builds(monkeypatch, "Trajectory")
    outcomes = evaluate_tasks(list(world.tasks), world.initial_library(), world, RunConfig(seed=7), MockEmbedder())
    failing = [task.id for task, outcome in zip(world.tasks, outcomes) if outcome is not None]
    assert 0 < len(failing) < len(world.tasks)
    assert [pair.task.id for pair in pairs] == [trajectory.task_id for trajectory in trajectories] == failing
    assert all(a is b for a, b in zip(pairs, (outcome for outcome in outcomes if outcome is not None)))

    # Judged without building: the same verdicts, a failure's outcome is its task.
    pairs.clear()
    trajectories.clear()
    judged = evaluate_tasks(
        list(world.tasks), world.initial_library(), world, RunConfig(seed=7), MockEmbedder(), build_failures=False
    )
    assert pairs == trajectories == []
    assert judged == [None if outcome is None else outcome.task for outcome in outcomes]
    assert pass_rate(judged) == pass_rate(outcomes)


def test_kfold_builds_a_failure_pair_only_for_train_failures_sent_to_tag_inference(monkeypatch):
    import skillforge.harness as harness

    world = _world(n_tasks=40)
    config = RunConfig(seed=7, epochs=2, folds=2, runs=1)
    built, inferred = [], []
    evaluate, simulate, infer = harness.evaluate_tasks, harness.simulate_agent, harness.generate_target_tags

    def simulating(*args):
        built.append(simulate(*args))
        return built[-1]

    def inferring(pair, chat):
        inferred.append(pair)
        return infer(pair, chat)

    monkeypatch.setattr(harness, "simulate_agent", simulating)
    monkeypatch.setattr(harness, "generate_target_tags", inferring)
    # The reference run builds a pair for every failure of every evaluation.
    monkeypatch.setattr(harness, "evaluate_tasks", lambda *args, build_failures=True: evaluate(*args))
    reference = run_kfold(config, world, mock_provider_factory(noise_rate=0.5))
    built_by_reference = len(built)
    built.clear()
    inferred.clear()

    monkeypatch.setattr(harness, "evaluate_tasks", evaluate)
    report = run_kfold(config, world, mock_provider_factory(noise_rate=0.5))
    assert len(built) == len(inferred) > 0
    assert all(a is b for a, b in zip(built, inferred))
    # Held-out and final evaluations failed tasks too, but built nothing for them.
    assert built_by_reference > len(built)
    assert strip_wall_clock(report.to_dict()) == strip_wall_clock(reference.to_dict())


def test_transfer_sweep_builds_a_failure_pair_only_for_tag_inference(monkeypatch):
    import skillforge.harness as harness

    config, world_config = RunConfig(seed=7, epochs=2), WorldConfig(seed=7, n_tasks=100)
    built, inferred = [], []
    evaluate, simulate, infer = harness.evaluate_tasks, harness.simulate_agent, harness.generate_target_tags

    def simulating(*args):
        built.append(simulate(*args))
        return built[-1]

    def inferring(pair, chat):
        inferred.append(pair)
        return infer(pair, chat)

    monkeypatch.setattr(harness, "simulate_agent", simulating)
    monkeypatch.setattr(harness, "generate_target_tags", inferring)
    # The reference sweep builds a pair for every failure of every evaluation.
    monkeypatch.setattr(harness, "evaluate_tasks", lambda *args, build_failures=True: evaluate(*args))
    reference = sweep(config, "transfer", world_config=world_config)
    built_by_reference = len(built)
    built.clear()
    inferred.clear()

    monkeypatch.setattr(harness, "evaluate_tasks", evaluate)
    rows = sweep(config, "transfer", world_config=world_config)
    assert len(built) == len(inferred) > 0
    assert all(a is b for a, b in zip(built, inferred))
    # The transfer evaluations read only pass rates and built nothing.
    assert built_by_reference > len(built)
    assert rows == reference


def test_run_epoch_without_failures_only_bumps_epoch():
    world = _world(n_tasks=10, covered_tags=10, coverable_fraction=1.0)
    library = world.initial_library()
    providers = _Session(mock_provider_factory()(7))
    outcomes, updated, stats = run_epoch(library, list(world.tasks), world, providers, RunConfig(seed=7))
    assert outcomes == [None] * len(world.tasks)
    assert pass_rate(outcomes) == 1.0
    assert stats.n_failures == 0
    assert len(updated) == len(library)
    assert updated.epoch == library.epoch + 1


def test_run_epoch_grows_library_by_retention_rule():
    world = _world()
    library = world.initial_library()
    providers = _Session(mock_provider_factory()(7))
    outcomes, updated, stats = run_epoch(library, list(world.tasks), world, providers, RunConfig(seed=7))
    failures = [pair for pair in outcomes if pair is not None]
    assert stats.n_failures == len(failures) > 0
    assert len(updated) == len(library) + retention_count(len(failures), 0.2)
    assert stats.n_retained == retention_count(len(failures), 0.2)


class RecordingChat:
    """Forwards to a chat provider and records each reply's tokens."""

    def __init__(self, inner, recorded):
        self.inner = inner
        self.recorded = recorded

    def complete(self, request):
        response = self.inner.complete(request)
        self.recorded.append(response.tokens_in + response.tokens_out)
        return response


class RecordingLikelihood:
    """Forwards to a likelihood provider and records each result's tokens."""

    def __init__(self, inner, recorded):
        self.inner = inner
        self.recorded = recorded

    def score_likelihood(self, condition, continuation):
        result = self.inner.score_likelihood(condition, continuation)
        self.recorded.append(result.token_count)
        return result


@pytest.mark.parametrize("max_workers", [1, 4])
def test_run_epoch_token_ledger_matches_independent_meter(max_workers):
    world = _world(n_tasks=20)
    library = world.initial_library()
    bundle = mock_provider_factory()(7)
    recorded = []
    providers = _Unmemoized(
        replace(
            bundle,
            chat=RecordingChat(bundle.chat, recorded),
            likelihood=RecordingLikelihood(bundle.likelihood, recorded),
        )
    )
    config = RunConfig(seed=7, max_workers=max_workers)
    _, _, stats = run_epoch(library, list(world.tasks), world, providers, config)
    assert stats.tokens_used == sum(recorded) > 0


def test_kfold_partition_has_no_leakage():
    from skillforge.harness import _partition_folds

    world = _world()
    folds = _partition_folds(len(world.tasks), 3, seed=7)
    rows = [row for fold in folds for row in fold]
    assert sorted(rows) == list(range(len(world.tasks)))


def test_kfold_single_fold_is_flagged_leaky():
    world = _world(n_tasks=10)
    report = run_kfold(RunConfig(seed=7, folds=1, runs=1, epochs=1), world, mock_provider_factory())
    assert report.leaky is True
    assert report.to_dict()["leaky"] is True


def test_only_a_one_fold_kfold_logs_the_leaky_protocol_warning(caplog):
    world = _world(n_tasks=10)
    config = RunConfig(seed=7, folds=1, runs=1, epochs=1)
    with caplog.at_level(logging.WARNING, logger="skillforge.harness"):
        run_kfold(config, world, mock_provider_factory())
    assert [r.getMessage() for r in caplog.records if "leaky" in r.getMessage()] == [
        "folds=1: evolving and evaluating on the same tasks (leaky protocol)"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="skillforge.harness"):
        evolve_library(config, world, mock_provider_factory()(7))
    assert not [r for r in caplog.records if "leaky" in r.getMessage()]


@pytest.mark.parametrize(
    ("world_seed", "n_tasks", "strategy", "noise_rate"),
    [(7, 20, "greedy", 0.0), (3, 40, "lp_round", 0.5), (11, 60, "primal_dual", 1.0)],
)
def test_single_fold_kfold_report_equals_evolve_library(world_seed, n_tasks, strategy, noise_rate):
    world = _world(seed=world_seed, n_tasks=n_tasks)
    config = RunConfig(seed=world_seed, folds=1, runs=1, strategy=strategy)
    factory = mock_provider_factory(noise_rate=noise_rate)
    kfold = run_kfold(config, world, factory)
    _, evolved, _ = evolve_library(config, world, factory(config.seed))
    assert strip_wall_clock(kfold.to_dict()) == strip_wall_clock(evolved.to_dict())


@pytest.mark.parametrize(("folds", "evaluations_per_epoch"), [(1, 1), (2, 2)])
def test_kfold_evaluations_per_cell(monkeypatch, folds, evaluations_per_epoch):
    # The leaky cell reuses the train evaluation as its held-out one.
    import skillforge.harness as harness

    calls = []
    evaluate = harness.evaluate_tasks

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_tasks", counted)
    config = RunConfig(seed=7, epochs=2, folds=folds, runs=2)
    run_kfold(config, _world(n_tasks=20), mock_provider_factory())
    cells = config.folds * config.runs
    assert len(calls) == cells * evaluations_per_epoch * (config.epochs + 1)


def test_wrapped_run_epoch_sees_every_epoch_of_both_entry_points(monkeypatch):
    import skillforge.harness as harness

    seen = []
    step = harness.run_epoch

    def spy(library, *args, **kwargs):
        seen.append(library.epoch)
        return step(library, *args, **kwargs)

    monkeypatch.setattr(harness, "run_epoch", spy)
    world = _world(n_tasks=20)
    config = RunConfig(seed=7, epochs=2, folds=2, runs=2)
    run_kfold(config, world, mock_provider_factory())
    assert seen == [0, 1] * (config.folds * config.runs)
    seen.clear()
    evolve_library(config, world, mock_provider_factory()(7))
    assert seen == [0, 1]


def test_kfold_rejects_more_folds_than_tasks():
    world = _world(n_tasks=4)
    with pytest.raises(ConfigError):
        run_kfold(RunConfig(seed=7, folds=5, runs=1), world, mock_provider_factory())


def test_kfold_library_sizes_never_decrease():
    world = _world()
    report = run_kfold(_quick_config(epochs=3), world, mock_provider_factory())
    for cell in report.cells:
        sizes = [row.library_size for row in cell.rows]
        assert sizes == sorted(sizes)


def test_kfold_epoch_zero_has_no_generation_stats():
    world = _world(n_tasks=10)
    report = run_kfold(_quick_config(epochs=1), world, mock_provider_factory())
    for cell in report.cells:
        assert cell.rows[0].n_candidates is None
        assert cell.rows[0].tokens_used == 0


def test_kfold_is_deterministic_with_injected_clock():
    world = _world()
    a = run_kfold(_quick_config(), world, mock_provider_factory(), clock=FakeClock())
    b = run_kfold(_quick_config(), world, mock_provider_factory(), clock=FakeClock())
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_strip_wall_clock_zeroes_nested_fields():
    payload = {"wall_clock_ms": 9, "rows": [{"wall_clock_ms": 3, "other": 1}]}
    stripped = strip_wall_clock(payload)
    assert stripped == {"wall_clock_ms": 0, "rows": [{"wall_clock_ms": 0, "other": 1}]}
    assert payload["wall_clock_ms"] == 9  # original untouched


def test_epoch_sweep_at_zero_epochs_equals_base():
    world = _world(n_tasks=20)
    config = RunConfig(seed=7, epochs=0, folds=2, runs=1)
    report = run_kfold(config, world, mock_provider_factory())
    assert report.final_pass_rate == report.base_pass_rate


def test_label_scale_full_beats_empty_when_initial_skills_matter():
    # One evolution epoch: the human-labeled library provides a head start
    # that evolution cannot fully recover in a single epoch.
    world = _world()
    factory = mock_provider_factory()
    full = run_kfold(RunConfig(seed=7, epochs=1, label_scale=1.0), world, factory)
    empty = run_kfold(RunConfig(seed=7, epochs=1, label_scale=0.0), world, factory)
    assert full.final_pass_rate >= empty.final_pass_rate
    assert full.base_pass_rate > empty.base_pass_rate


def test_apply_label_scale_keeps_seeded_fraction():
    world = _world()
    n = len(world.initial_skills)
    assert len(apply_label_scale(world, 1.0, seed=7)) == n
    assert len(apply_label_scale(world, 0.0, seed=7)) == 0
    assert len(apply_label_scale(world, 0.5, seed=7)) == round(n * 0.5)
    # deterministic subset
    assert apply_label_scale(world, 0.5, seed=7) == apply_label_scale(world, 0.5, seed=7)



@pytest.mark.parametrize("label_scale", [0.5, 1.0])
@pytest.mark.parametrize("seed", [3, 7])
def test_kfold_report_does_not_depend_on_task_or_skill_order(seed, label_scale):
    # The folds are drawn from the tasks in id order and the label-scale
    # subset from the skills in id order, so neither follows the world's files.
    world = _world(seed=seed, n_tasks=40)
    config = RunConfig(seed=seed, label_scale=label_scale)
    expected = strip_wall_clock(run_kfold(config, world).to_dict())
    for reordered in (
        replace(world, tasks=world.tasks[::-1]),
        replace(world, initial_skills=world.initial_skills[::-1]),
    ):
        assert strip_wall_clock(run_kfold(config, reordered).to_dict()) == expected

@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 99),
    n_tasks=st.integers(6, 40),
    label_scale=st.sampled_from([0.5, 1.0]),
    strategy=st.sampled_from(["greedy", "primal_dual"]),
    data=st.data(),
)
def test_the_kfold_report_depends_on_neither_input_order_nor_workers(seed, n_tasks, label_scale, strategy, data):
    # Generalizes test_kfold_report_does_not_depend_on_task_or_skill_order and
    # test_pooled_stages_give_the_serial_report: tasks and initial skills in
    # any order, and 1, 2 or 4 workers with providers that pool (not in
    # process) or with the plain mocks, give one report.
    world = _world(seed=seed, n_tasks=n_tasks)
    config = RunConfig(seed=seed, epochs=2, folds=2, runs=2, label_scale=label_scale, strategy=strategy)
    expected = _order_free(run_kfold(replace(config, max_workers=1), world, mock_provider_factory(noise_rate=0.5)))
    shuffled = replace(
        world,
        tasks=tuple(data.draw(st.permutations(world.tasks), label="tasks")),
        initial_skills=tuple(data.draw(st.permutations(world.initial_skills), label="skills")),
    )
    for make in (mock_provider_factory, _pooled_factory):
        for workers in (1, 2, 4):
            report = run_kfold(replace(config, max_workers=workers), shuffled, make(noise_rate=0.5))
            assert _order_free(report) == expected


def test_transfer_diagonal_dominates_off_diagonal():
    config = RunConfig(seed=7, epochs=2, folds=1, runs=1)
    rows = sweep(config, "transfer", world_config=WorldConfig(seed=7))
    cells = {row["value"]: row["final_pass_rate"] for row in rows}
    assert cells["A->A"] >= cells["B->A"]
    assert cells["B->B"] >= cells["A->B"]


def test_transfer_sweep_rejects_a_given_world():
    config = RunConfig(seed=7, epochs=1, folds=1, runs=1)
    with pytest.raises(ConfigError, match="transfer sweep builds its own two worlds"):
        sweep(config, "transfer", world=_world(n_tasks=10))


@pytest.mark.parametrize("workers", [0, -1])
def test_run_config_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ConfigError, match="max_workers"):
        RunConfig(max_workers=workers)
    assert RunConfig(max_workers=1).max_workers == 1


def test_sweep_rejects_unknown_dimension():
    with pytest.raises(ConfigError):
        sweep(RunConfig(), "temperature")


def test_sweep_filter_ratio_emits_one_row_per_value():
    world = _world(n_tasks=12)
    config = RunConfig(seed=7, epochs=1, folds=2, runs=1)
    rows = sweep(config, "filter_ratio", world=world)
    assert [row["value"] for row in rows] == [0.1, 0.2, 0.5, 1.0]
    assert all(row["dimension"] == "filter_ratio" for row in rows)


def test_sweep_epochs_grid_starts_at_base():
    world = _world(n_tasks=12)
    config = RunConfig(seed=7, folds=2, runs=1)
    rows = sweep(config, "epochs", world=world)
    assert [row["value"] for row in rows] == [0, 1, 2, 3, 4, 5]
    zero = rows[0]
    assert zero["final_pass_rate"] == zero["base_pass_rate"]
    assert all(row["base_pass_rate"] == zero["base_pass_rate"] for row in rows)


class GaugedChat(MockChatProvider):
    """Mock chat that sleeps in each call and records the peak number of
    calls in flight across every bundle sharing ``gauge``. It stands in for
    a provider that waits, so it is not in process and gets thread pools."""

    in_process = False

    def __init__(self, gauge, **kwargs):
        super().__init__(**kwargs)
        self.gauge = gauge

    def complete(self, request):
        with self.gauge["lock"]:
            self.gauge["now"] += 1
            self.gauge["peak"] = max(self.gauge["peak"], self.gauge["now"])
        try:
            time.sleep(0.002)
            return super().complete(request)
        finally:
            with self.gauge["lock"]:
                self.gauge["now"] -= 1


def test_sweep_keeps_provider_calls_within_max_workers():
    gauge = {"lock": threading.Lock(), "now": 0, "peak": 0}

    def factory(seed):
        return ProviderBundle(
            chat=GaugedChat(gauge, seed=seed),
            embedder=MockEmbedder(),
            likelihood=MockLikelihoodScorer(seed=seed),
        )

    config = RunConfig(seed=7, epochs=1, folds=2, runs=1, max_workers=2)
    rows = sweep(config, "filter_ratio", world=_world(n_tasks=30), provider_factory=factory)
    assert len(rows) == len(RATIO_SWEEP_VALUES)
    assert gauge["peak"] == config.max_workers


def test_run_epoch_skips_pairs_whose_tagging_fails():
    from skillforge import prompts
    from skillforge.providers.mock import MockChatProvider
    from skillforge.harness import ProviderBundle
    from skillforge.providers.mock import MockEmbedder, MockLikelihoodScorer

    class TagFlakyChat(MockChatProvider):
        # target-tag requests come back unparseable; everything else works
        def complete(self, request):
            if request.system == prompts.TARGET_TAG_SYSTEM:
                response = super().complete(request)
                return type(response)(text="???", tokens_in=response.tokens_in, tokens_out=1)
            return super().complete(request)

    world = _world(n_tasks=10)
    providers = _Session(ProviderBundle(
        chat=TagFlakyChat(seed=7), embedder=MockEmbedder(), likelihood=MockLikelihoodScorer(seed=7)
    ))
    library = world.initial_library()
    _, updated, stats = run_epoch(library, list(world.tasks), world, providers, RunConfig(seed=7))
    assert stats.n_failures > 0
    assert stats.n_candidates == 0
    assert len(updated) == len(library)  # nothing retained, epoch still advances
    assert updated.epoch == library.epoch + 1


def test_average_ranks_with_ties():
    assert average_ranks([10.0, 10.0, 20.0]) == [1.5, 1.5, 3.0]
    assert average_ranks([3.0, 1.0, 2.0]) == [3.0, 1.0, 2.0]


def test_spearman_reference_cases():
    assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # one adjacent swap on 4 items: rho = 1 - 6*2/(4*15) = 0.8
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(InputError):
        spearman([1.0], [1.0])


def _sensitivity_fixture():
    candidates = {
        f"task-{i}": make_skill(f"c{i}", tags=("t_x",), body=f"body{i}", origin="evolved", created_epoch=1)
        for i in range(4)
    }
    tasks = {f"task-{i}": Task(id=f"task-{i}", description=f"task {i}") for i in range(4)}
    return candidates, tasks


def _scorer_with_gaps(gaps, name):
    # per-token gap g: conditional = -8 + g, unconditional = -8, 4 tokens
    table = {}
    for i, gap in enumerate(gaps):
        table[(True, f"body{i}")] = (-8.0 + 4 * gap, 4)
        table[(False, f"body{i}")] = (-8.0, 4)
    return StubLikelihood(table, name=name)


def test_scorer_sensitivity_self_comparison_is_exact():
    candidates, tasks = _sensitivity_fixture()
    scorer = _scorer_with_gaps([0.4, 0.3, 0.2, 0.1], "ref")
    rows = scorer_sensitivity(candidates, tasks, [scorer, scorer])
    for row in rows:
        assert row["mae"] == 0.0
        assert row["spearman"] == 1.0
        assert row["top_overlap"] == 1.0


def test_scorer_sensitivity_detects_rank_reversal():
    candidates, tasks = _sensitivity_fixture()
    reference = _scorer_with_gaps([0.4, 0.3, 0.2, 0.1], "ref")
    reversed_scorer = _scorer_with_gaps([0.1, 0.2, 0.3, 0.4], "rev")
    rows = scorer_sensitivity(candidates, tasks, [reference, reversed_scorer])
    assert rows[1]["spearman"] == pytest.approx(-1.0)


def test_scorer_sensitivity_adjacent_swap_case():
    candidates, tasks = _sensitivity_fixture()
    reference = _scorer_with_gaps([0.4, 0.3, 0.2, 0.1], "ref")
    swapped = _scorer_with_gaps([0.4, 0.2, 0.3, 0.1], "swap")
    rows = scorer_sensitivity(candidates, tasks, [reference, swapped])
    assert rows[1]["spearman"] == pytest.approx(0.8, abs=1e-9)


def test_scorer_sensitivity_needs_two_candidates():
    candidates, tasks = _sensitivity_fixture()
    with pytest.raises(InputError):
        scorer_sensitivity({"task-0": candidates["task-0"]}, tasks, [_scorer_with_gaps([0.1], "ref")])


def test_scorer_sensitivity_reports_a_failing_scorer_as_a_scoring_error():
    candidates, tasks = _sensitivity_fixture()

    class Down:
        def score_likelihood(self, condition, continuation):
            raise ProviderError("down", retryable=False)

    with pytest.raises(ScoringError, match="c0"):
        scorer_sensitivity(candidates, tasks, [_scorer_with_gaps([0.4, 0.3, 0.2, 0.1], "ref"), Down()])


def test_scorer_sensitivity_uses_each_scorers_token_count():
    candidates = {
        f"task-{i}": make_skill(f"c{i}", tags=("t_x",), body=f"body{i}", origin="evolved", created_epoch=1)
        for i in range(2)
    }
    tasks = {f"task-{i}": Task(id=f"task-{i}", description="d") for i in range(2)}
    reference = StubLikelihood(
        {(True, "body0"): (-4.0, 4), (False, "body0"): (-8.0, 4),
         (True, "body1"): (-6.0, 4), (False, "body1"): (-8.0, 4)},
        name="ref",
    )
    # same logprobs, halved token counts -> doubled per-token gap -> higher A
    halved = StubLikelihood(
        {(True, "body0"): (-4.0, 2), (False, "body0"): (-8.0, 2),
         (True, "body1"): (-6.0, 2), (False, "body1"): (-8.0, 2)},
        name="halved",
    )
    rows = scorer_sensitivity(candidates, tasks, [reference, halved])
    assert rows[1]["mean_alignment"] > rows[0]["mean_alignment"]
    assert rows[1]["spearman"] == 1.0


def test_evolve_library_report_shape_and_monotone_growth():
    world = _world(n_tasks=20)
    config = RunConfig(seed=7, epochs=2, folds=1, runs=1)
    library, report, stats_list = evolve_library(config, world, mock_provider_factory()(7))
    assert report.leaky is True
    assert len(stats_list) == 2
    sizes = [row.library_size for row in report.cells[0].rows]
    assert sizes == sorted(sizes)
    assert len(library) == sizes[-1]


def test_lp_round_evolves_a_library_past_500_skills_or_classes(monkeypatch):
    """evolve-tagchurn's configuration with ``lp_round``: LP rounding takes
    the instances of a library that grows past 500 skills or classes."""
    import skillforge.cover as cover

    largest = []

    def recording(instance):
        n_classes = len(cover._union(instance.skill_classes.values()) | instance.target_classes)
        largest.append(max(len(instance.skill_order), n_classes))
        return cover.lp_round_select(instance)

    monkeypatch.setitem(cover._SELECTORS, "lp_round", recording)
    world = _world(n_tasks=300)
    config = RunConfig(seed=7, epochs=4, filter_ratio=1.0, strategy="lp_round")
    library, report, _ = evolve_library(config, world, mock_provider_factory(noise_rate=3.0)(7))
    assert max(largest) > 500
    rows = report.cells[0].rows
    assert len(rows) == config.epochs + 1
    for before, after in zip(rows, rows[1:]):
        assert after.library_size - before.library_size == retention_count(after.n_candidates, 1.0)
    assert len(library) == rows[-1].library_size
    assert len({skill.id for skill in library}) == len(library)


@pytest.mark.parametrize("strategy", ["greedy", "primal_dual", "lp_round", "brute_force"])
def test_full_pipeline_composes_with_every_selection_strategy(strategy):
    world = _world(n_tasks=20)
    config = RunConfig(seed=7, epochs=1, folds=2, runs=1, strategy=strategy)
    report = run_kfold(config, world, mock_provider_factory())
    assert report.final_pass_rate >= report.base_pass_rate
    # at least one cell evolved something
    assert any(row.n_retained for cell in report.cells for row in cell.rows if row.n_retained)


def test_emit_report_round_trips_and_renders(tmp_path):
    world = _world(n_tasks=10)
    report = run_kfold(
        RunConfig(seed=7, epochs=1, folds=2, runs=1), world, mock_provider_factory(), clock=FakeClock()
    )
    json_path, md_path = emit_report(report, tmp_path / "report")
    parsed = json.loads(json_path.read_text(encoding="utf-8"))
    assert parsed["report_version"] == 1
    assert parsed["config"]["seed"] == 7
    rebuilt = EvolutionReport.from_dict(parsed)
    assert rebuilt.to_dict() == report.to_dict()
    markdown = md_path.read_text(encoding="utf-8")
    assert markdown.startswith("# Evolution report")
    assert "| epoch |" in markdown


def test_emit_report_zero_epochs_is_valid(tmp_path):
    world = _world(n_tasks=10)
    report = run_kfold(RunConfig(seed=7, epochs=0, folds=2, runs=1), world, mock_provider_factory())
    json_path, _ = emit_report(report, tmp_path / "report")
    parsed = json.loads(json_path.read_text(encoding="utf-8"))
    assert len(parsed["summary"]["per_epoch"]) == 1


def test_sweep_csv_bytes(tmp_path):
    rows = [
        {"dimension": "epochs", "value": 2, "source": None, "target": None, "base_pass_rate": 0.25,
         "final_pass_rate": 0.5, "total_tokens": 1200},
        {"dimension": "transfer", "value": "A->B", "source": "A", "target": "B", "base_pass_rate": None,
         "final_pass_rate": 0.75, "total_tokens": None},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert path.read_bytes() == (
        b"dimension,value,source,target,base_pass_rate,final_pass_rate,total_tokens\r\n"
        b"epochs,2,,,0.25,0.5,1200\r\n"
        b"transfer,A->B,A,B,,0.75,\r\n"
    )


def test_report_markdown_is_stable_under_fake_clock(tmp_path):
    world = _world(n_tasks=10)
    config = RunConfig(seed=7, epochs=1, folds=2, runs=1)
    first = run_kfold(config, world, mock_provider_factory(), clock=FakeClock()).markdown()
    second = run_kfold(config, world, mock_provider_factory(), clock=FakeClock()).markdown()
    assert first == second
    golden = tmp_path / "golden.md"
    golden.write_text(first, encoding="utf-8")
    assert golden.read_text(encoding="utf-8") == second


def test_default_run_matches_recorded_golden_markdown():
    from pathlib import Path

    world = _world()
    report = run_kfold(RunConfig(seed=7), world, mock_provider_factory(), clock=FakeClock())
    golden = Path(__file__).parent / "golden" / "report.md"
    assert report.markdown() == golden.read_text(encoding="utf-8")


class CountingEmbedder(MockEmbedder):
    def __init__(self):
        super().__init__()
        self.seen = Counter()

    def embed(self, texts):
        self.seen.update(texts)
        return super().embed(texts)


def _counting_factory(embedders):
    """Mock bundles whose embedders count the texts they receive."""
    base = mock_provider_factory()

    def factory(seed):
        embedders.append(CountingEmbedder())
        return replace(base(seed), embedder=embedders[-1])

    return factory


def _session(chat=None, embedder=None, likelihood=None):
    return _Session(
        ProviderBundle(
            chat=chat or MockChatProvider(seed=7),
            embedder=embedder or MockEmbedder(),
            likelihood=likelihood or MockLikelihoodScorer(seed=7),
        )
    )


class _Unmemoized(_Session):
    """A session that memoizes nothing but still meters every reply and score."""

    def accept(self, request, reply, parsed):
        pass

    def score_likelihood(self, condition, continuation):
        result = self._providers.likelihood.score_likelihood(condition, continuation)
        self._add(result.token_count)
        return result

    def embed(self, texts):
        return self._providers.embedder.embed(texts)


def _pass_through(monkeypatch):
    monkeypatch.setattr("skillforge.harness._Session", _Unmemoized)


def test_cached_embedder_returns_the_inner_rows_and_validates_hits():
    inner = CountingEmbedder()
    cache = _session(embedder=inner)
    cache.embed(["a_tag", "b_tag", "a_tag"])
    again = cache.embed(["b_tag", "a_tag"])
    assert inner.seen == {"a_tag": 1, "b_tag": 1}
    np.testing.assert_array_equal(again, MockEmbedder().embed(["b_tag", "a_tag"]))
    with pytest.raises(InputError):
        cache.embed(["a_tag", ""])
    assert inner.seen == {"a_tag": 1, "b_tag": 1}


class SlowCountingEmbedder(CountingEmbedder):
    """Sleeps inside each call, like a remote embedder, so calls overlap."""

    def embed(self, texts):
        time.sleep(0.002)
        return super().embed(texts)


def test_cached_embedder_sends_each_text_once_under_thread_contention():
    inner = SlowCountingEmbedder()
    cache = _session(embedder=inner)
    texts = [f"tag_{i}" for i in range(60)]
    results = {}
    start = threading.Barrier(8, timeout=30)

    def work(worker):
        start.wait()
        order = texts[worker % 7 :] + texts[: worker % 7]
        results[worker] = [cache.embed(order[i : i + 5]) for i in range(0, len(order), 5)]

    threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert inner.seen == {text: 1 for text in texts}
    assert len(results) == len(threads)


def test_kfold_embeds_each_text_once_per_run_with_an_unchanged_report(monkeypatch):
    world = _world(n_tasks=30)
    config = _quick_config(runs=2)
    embedders = []
    cached = run_kfold(config, world, _counting_factory(embedders))
    assert len(embedders) == config.runs
    assert all(embedder.seen and max(embedder.seen.values()) == 1 for embedder in embedders)
    assert cached.providers == ("MockChatProvider", "CountingEmbedder", "MockLikelihoodScorer")

    _pass_through(monkeypatch)
    uncached_embedders = []
    uncached = run_kfold(config, world, _counting_factory(uncached_embedders))
    assert max(uncached_embedders[0].seen.values()) > 1
    assert strip_wall_clock(cached.to_dict()) == strip_wall_clock(uncached.to_dict())


def test_evolve_library_embeds_each_text_once_with_unchanged_outputs(monkeypatch):
    world = _world(n_tasks=30)
    config = RunConfig(seed=7, epochs=2, folds=1, runs=1)
    embedders = []
    library, report, _ = evolve_library(config, world, _counting_factory(embedders)(7))
    assert max(embedders[0].seen.values()) == 1
    assert report.providers == ("MockChatProvider", "CountingEmbedder", "MockLikelihoodScorer")

    _pass_through(monkeypatch)
    plain_library, plain_report, _ = evolve_library(config, world, _counting_factory([])(7))
    assert library == plain_library
    assert strip_wall_clock(report.to_dict()) == strip_wall_clock(plain_report.to_dict())


GOOD_SKILL_REPLY = "NAME: sample routine\nDESCRIPTION: does things\nBODY:\nstep one\nstep two"


def test_session_asks_again_after_a_rejected_reply_and_serves_the_accepted_one():
    pair = make_pair("task-001")
    tag_chat = ScriptedChat(["", "alpha_tag"])
    session = _session(chat=tag_chat)
    assert generate_target_tags(pair, session) == {"alpha_tag"}
    assert len(tag_chat.requests) == 2  # the unparseable reply was not served to the re-ask
    before = session.tokens
    assert generate_target_tags(pair, session) == {"alpha_tag"}
    assert len(tag_chat.requests) == 2
    assert session.tokens - before == len(tag_chat.requests[0].user.split()) + 1  # served replies are metered

    gen_chat = ScriptedChat(["not a skill", GOOD_SKILL_REPLY, "some_tag"])
    session = _session(chat=gen_chat)
    index = build_eq({"csv_parsing"}, MockEmbedder())
    targets = {"task-001": frozenset({"csv_parsing"})}
    runs = [
        generate_candidates([pair], SkillLibrary(), index, session, 0, targets)
        for _ in range(2)
    ]
    assert len(gen_chat.requests) == 3  # bad + re-ask, then the skill-tag request
    assert runs[0] == runs[1] and runs[0]["task-001"].tags == {"some_tag"}


class RoutedChat:
    """Chat stub with one list of reply texts per system prompt, replayed in
    order (the last one repeats); counts the requests sent per system prompt."""

    def __init__(self, replies):
        self.replies = replies
        self.sent = Counter()

    def complete(self, request):
        texts = self.replies[request.system]
        text = texts[min(self.sent[request.system], len(texts) - 1)]
        self.sent[request.system] += 1
        return ChatResponse(text=text, tokens_in=1, tokens_out=1)


def _generate_one(session):
    index = build_eq({"csv_parsing"}, MockEmbedder())
    targets = {"task-001": frozenset({"csv_parsing"})}
    return generate_candidates([make_pair("task-001")], SkillLibrary(), index, session, 0, targets)


# consumer: (system prompt of its request, unparseable reply, good reply, call, what its error names)
_CONSUMERS = {
    "skill-tags": (prompts.SKILL_TAG_SYSTEM, "", "alpha_tag", lambda s: generate_skill_tags(make_skill(), s), "skill 's1'"),
    "target-tags": (prompts.TARGET_TAG_SYSTEM, "???", "alpha_tag", lambda s: generate_target_tags(make_pair(), s),
                    "task 'task-001'"),
    "candidate": (prompts.GENERATE_SYSTEM, "not a skill", GOOD_SKILL_REPLY, _generate_one, None),
}


@pytest.mark.parametrize("bad", [0, 1, 2, 3])
@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
def test_every_consumer_reasks_the_same_way(consumer, bad):
    system, garbage, good, call, what = _CONSUMERS[consumer]
    replies = [garbage] * bad + [good] if bad < ASK_ATTEMPTS else [garbage]
    chat = RoutedChat({prompts.SKILL_TAG_SYSTEM: ["some_tag"], system: replies})
    session = _session(chat=chat)
    if bad < ASK_ATTEMPTS:
        first = call(session)
        assert first and chat.sent[system] == bad + 1
        assert call(session) == first
        assert chat.sent[system] == bad + 1  # the accepted reply is served from the memo
        return
    if what is None:
        assert call(session) == {}  # the pair is skipped
    else:
        with pytest.raises(TaggingError, match=f"no parseable reply for {what} in 3 attempts"):
            call(session)
    assert chat.sent[system] == ASK_ATTEMPTS
    if what is None:
        assert call(session) == {}
    else:
        with pytest.raises(TaggingError):
            call(session)
    assert chat.sent[system] == 2 * ASK_ATTEMPTS  # no unparseable reply was memoized


class FlakyLikelihood(MockLikelihoodScorer):
    def __init__(self):
        super().__init__(seed=7)
        self.calls = []

    def score_likelihood(self, condition, continuation):
        self.calls.append((condition, continuation))
        if len(self.calls) == 1:
            raise ProviderError("server error 503", retryable=True)
        return super().score_likelihood(condition, continuation)


def test_session_does_not_memoize_a_raising_likelihood_call():
    inner = FlakyLikelihood()
    session = _session(likelihood=inner)
    with pytest.raises(ProviderError):
        session.score_likelihood("", "some body text")
    result = session.score_likelihood("", "some body text")
    assert len(inner.calls) == 2
    assert session.score_likelihood("", "some body text") == result
    assert session.score_likelihood("some task", "some body text") != result
    assert len(inner.calls) == 3


def test_session_sends_every_warm_request():
    chat = ScriptedChat(["alpha_tag"])
    session = _session(chat=chat)
    warm = ChatRequest(system="s", user="u", temperature=0.7)
    for _ in range(3):
        assert session.recall(warm) is None
        session.accept(warm, session.complete(warm), frozenset({"alpha_tag"}))
    assert chat.requests == [warm] * 3
    cold = replace(warm, temperature=0.0)
    assert session.recall(cold) is None
    session.accept(cold, session.complete(cold), frozenset({"alpha_tag"}))
    assert session.recall(cold) == {"alpha_tag"}
    assert len(chat.requests) == 4
    session.complete(cold)  # complete always sends; only recall serves the memo
    assert len(chat.requests) == 5


def test_a_memo_hit_is_served_parsed_and_metered_alike():
    chat = ScriptedChat(["alpha_tag, beta_tag"])
    session = _session(chat=chat)
    request = ChatRequest(system=prompts.TARGET_TAG_SYSTEM, user="Task t1: two words")
    parsed_texts = []

    def parse(text):
        parsed_texts.append(text)
        return frozenset(text.split(", "))

    first = ask(session, request, parse, "task 't1'")
    sent_tokens = session.tokens
    assert first == {"alpha_tag", "beta_tag"} and sent_tokens == 4 + 2
    assert ask(session, request, parse, "task 't1'") is first
    assert parsed_texts == ["alpha_tag, beta_tag"] and len(chat.requests) == 1
    assert session.tokens == 2 * sent_tokens


class CountingChat(MockChatProvider):
    def __init__(self, seen, **kwargs):
        super().__init__(**kwargs)
        self.seen = seen

    def complete(self, request):
        self.seen[request] += 1
        return super().complete(request)


class CountingLikelihood(MockLikelihoodScorer):
    def __init__(self, seen, **kwargs):
        super().__init__(**kwargs)
        self.seen = seen

    def score_likelihood(self, condition, continuation):
        self.seen[(condition, continuation)] += 1
        return super().score_likelihood(condition, continuation)


def _recording_factory(counters, noise_rate=0.5):
    """Mock bundles that count, per run seed, each chat request and likelihood pair."""

    def factory(seed):
        counters.append((Counter(), Counter()))
        chats, pairs = counters[-1]
        return ProviderBundle(
            chat=CountingChat(chats, seed=seed, noise_rate=noise_rate),
            embedder=MockEmbedder(),
            likelihood=CountingLikelihood(pairs, seed=seed),
        )

    return factory


def test_session_memo_under_thread_contention():
    pairs = Counter()
    chats = Counter()
    session = _session(chat=CountingChat(chats, seed=7), likelihood=CountingLikelihood(pairs, seed=7))
    bodies = [f"step {i} of the routine" for i in range(40)]
    requests = [ChatRequest(system="s", user=f"alpha_{i}_tag") for i in range(40)]
    results = {}
    start = threading.Barrier(8, timeout=30)

    def work(worker):
        start.wait()
        shift = worker * 5
        out = []
        for body, request in zip(bodies[shift:] + bodies[:shift], requests[shift:] + requests[:shift]):
            text = ask(session, request, str.strip, "a request")
            out.append((body, request, session.score_likelihood("task", body), text))
        results[worker] = out

    threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    mock_chat, mock_likelihood = MockChatProvider(seed=7), MockLikelihoodScorer(seed=7)
    for out in results.values():
        for body, request, score, text in out:
            assert score == mock_likelihood.score_likelihood("task", body)
            assert text == mock_chat.complete(request).text
    sent = (sum(chats.values()), sum(pairs.values()))
    served = [(body, request) for out in results.values() for body, request, _, _ in out]
    for body, request in zip(bodies, requests):
        session.score_likelihood("task", body)
        ask(session, request, str.strip, "a request")
        served.append((body, request))
    assert (sum(chats.values()), sum(pairs.values())) == sent  # every key ended up memoized
    assert set(chats) == set(requests) and set(pairs) == {("task", b) for b in bodies}

    def tokens(body, request):
        reply = mock_chat.complete(request)
        return mock_likelihood.score_likelihood("task", body).token_count + reply.tokens_in + reply.tokens_out

    # memo hits are metered too, and no thread's addition is lost
    assert session.tokens == sum(tokens(body, request) for body, request in served)


def _sent(counters):
    return sum(sum(chats.values()) + sum(pairs.values()) for chats, pairs in counters)


def test_kfold_session_sends_no_chat_request_or_likelihood_pair_twice(monkeypatch):
    world = _world(n_tasks=40)
    config = _quick_config(runs=2, folds=3, max_workers=1)
    counters = []
    run_kfold(config, world, _recording_factory(counters))
    assert len(counters) == config.runs
    for chats, pairs in counters:
        assert chats and max(chats.values()) == 1
        assert pairs and max(pairs.values()) == 1

    _pass_through(monkeypatch)
    plain_counters = []
    run_kfold(config, world, _recording_factory(plain_counters))
    assert _sent(counters) < _sent(plain_counters)


def test_session_keeps_tokens_used_per_epoch(monkeypatch):
    world = _world(n_tasks=40)
    config = _quick_config(runs=2, folds=3)
    report = run_kfold(config, world, mock_provider_factory(noise_rate=0.5))
    _pass_through(monkeypatch)
    plain = run_kfold(config, world, mock_provider_factory(noise_rate=0.5))

    def tokens(r):
        return [row.tokens_used for cell in r.cells for row in cell.rows]

    assert tokens(report) == tokens(plain)
    assert sum(tokens(report)) > 0


class FaultyChat(MockChatProvider):
    """Mock chat that fails hard on one task's target-tag request and returns
    an empty completion for another task's generation request."""

    def __init__(self, tag_fails: str, generation_fails: str, **kwargs):
        super().__init__(**kwargs)
        self.tag_fails = f"Task {tag_fails}:"
        self.generation_fails = f"Task {generation_fails}:"

    def complete(self, request):
        if request.system == prompts.TARGET_TAG_SYSTEM and self.tag_fails in request.user:
            raise ProviderError("server error 503", retryable=True)
        if request.system == prompts.GENERATE_SYSTEM and self.generation_fails in request.user:
            raise GenerationError("provider returned an empty completion")
        return super().complete(request)


def _bundle(chat):
    return ProviderBundle(chat=chat, embedder=MockEmbedder(), likelihood=MockLikelihoodScorer(seed=7))


def test_one_bad_reply_skips_one_pair_and_the_epoch_completes():
    world = _world(n_tasks=20)
    library = world.initial_library()
    tasks = list(world.tasks)
    config = RunConfig(seed=7, max_workers=1)
    outcomes, _, clean = run_epoch(library, tasks, world, _Session(_bundle(MockChatProvider(seed=7))), config)
    failing = sorted(pair.task.id for pair in outcomes if pair is not None)
    assert len(failing) >= 3 and clean.n_candidates == len(failing)

    chat = FaultyChat(tag_fails=failing[0], generation_fails=failing[1], seed=7)
    _, updated, stats = run_epoch(library, tasks, world, _Session(_bundle(chat)), config)
    assert stats.n_failures == clean.n_failures
    assert stats.n_candidates == clean.n_candidates - 2
    assert updated.epoch == library.epoch + 1
    sources = {row["candidate_id"].rsplit("-", 1)[0] for row in stats.score_rows}
    assert sources == {f"evo-{library.epoch}-{task_id}" for task_id in failing[2:]}


def test_evolve_library_survives_an_empty_completion():
    world = _world(n_tasks=20)
    outcomes = evaluate_tasks(world.tasks, world.initial_library(), world, RunConfig(), MockEmbedder())
    failing = sorted(pair.task.id for pair in outcomes if pair is not None)
    chat = FaultyChat(tag_fails=failing[0], generation_fails=failing[1], seed=7)
    library, _, stats_list = evolve_library(RunConfig(seed=7, epochs=2), world, _bundle(chat))
    assert library.epoch == 2
    assert len(stats_list) == 2


class OneFaultChat(MockChatProvider):
    """Mock chat that answers one task's requests under one system prompt with
    ``fault``: an exception to raise, or the text of every reply."""

    def __init__(self, system, task_id, fault, **kwargs):
        super().__init__(**kwargs)
        self.system, self.marker, self.fault = system, f"Task {task_id}:", fault

    def complete(self, request):
        if request.system == self.system and self.marker in request.user:
            if isinstance(self.fault, Exception):
                raise self.fault
            return ChatResponse(text=self.fault)
        return super().complete(request)


def _http_likelihood(bad_prefix):
    """An HTTP likelihood adapter on a stub transport: -1.0 per
    whitespace-separated token, and a non-numeric logprob for every prompt
    that starts with ``bad_prefix``."""

    def transport(url, payload, headers):
        prompt = payload["prompt"]
        offsets = [match.start() for match in re.finditer(r"\S+", prompt)]
        logprob = "garbled" if prompt.startswith(bad_prefix) else -1.0
        return {"choices": [{"logprobs": {"token_logprobs": [logprob] * len(offsets), "text_offset": offsets}}]}

    return HttpLikelihoodProvider(HttpConfig(logprob_url="http://logprob", transport=transport, sleep=lambda _: None))


def _http_chat(monkeypatch, task_id):
    """An HTTP chat adapter over the real transport, with ``requests.post``
    stubbed to answer as the seed-7 mock chat, except for a 200 HTML page in
    reply to the generation request of task ``task_id``."""
    import requests

    mock = MockChatProvider(seed=7)

    def post(url, **kwargs):
        payload = kwargs["json"]
        system, user = (message["content"] for message in payload["messages"])
        if system == prompts.GENERATE_SYSTEM and f"Task {task_id}:" in user:
            return requests_reply(b"<html><body>Bad gateway</body></html>")
        reply = mock.complete(ChatRequest(system, user, payload["temperature"], payload["max_tokens"]))
        usage = {"prompt_tokens": reply.tokens_in, "completion_tokens": reply.tokens_out}
        body = {"choices": [{"message": {"content": reply.text}}], "usage": usage}
        return requests_reply(json.dumps(body).encode())

    monkeypatch.setattr(requests, "post", post)
    return HttpChatProvider(HttpConfig(chat_url="http://chat", sleep=lambda _: None))


@pytest.mark.parametrize("fault", ["target-tag-generation-error", "generation-provider-error",
                                   "generation-unparseable", "http-logprob-malformed", "http-chat-not-json"])
def test_one_injected_fault_drops_one_pair_and_the_epoch_completes(monkeypatch, fault):
    world = _world(n_tasks=20)
    library = world.initial_library()
    tasks = list(world.tasks)
    config = RunConfig(seed=7, max_workers=1)
    outcomes, _, clean = run_epoch(library, tasks, world, _Session(_bundle(MockChatProvider(seed=7))), config)
    failing = sorted(pair.task.id for pair in outcomes if pair is not None)
    victim = failing[len(failing) // 2]
    bundle = {
        "target-tag-generation-error": lambda: _bundle(OneFaultChat(
            prompts.TARGET_TAG_SYSTEM, victim, GenerationError("provider returned an empty completion"), seed=7)),
        "generation-provider-error": lambda: _bundle(OneFaultChat(
            prompts.GENERATE_SYSTEM, victim, ProviderError("request rejected: 400"), seed=7)),
        "generation-unparseable": lambda: _bundle(OneFaultChat(prompts.GENERATE_SYSTEM, victim, "not a skill", seed=7)),
        "http-logprob-malformed": lambda: replace(
            _bundle(MockChatProvider(seed=7)),
            likelihood=_http_likelihood(next(t.description for t in tasks if t.id == victim)),
        ),
        "http-chat-not-json": lambda: _bundle(_http_chat(monkeypatch, victim)),
    }[fault]()
    _, updated, stats = run_epoch(library, tasks, world, _Session(bundle), config)

    assert stats.n_failures == clean.n_failures
    assert stats.n_candidates == clean.n_candidates - 1
    assert {row["pair_id"] for row in stats.score_rows} == set(failing) - {victim}
    ids = updated.ids()
    assert len(set(ids)) == len(ids)
    assert updated.epoch == library.epoch + 1
    retained = {row["candidate_id"] for row in stats.score_rows if row["retained"]}
    assert retained <= {row["candidate_id"] for row in stats.score_rows}
    assert set(ids) - set(library.ids()) == retained
    assert len(retained) == stats.n_retained == retention_count(stats.n_candidates, config.filter_ratio)


class PoisonEmbedder(MockEmbedder):
    """Mock embedder whose whole batch fails, as a malformed HTTP body does,
    whenever it holds the tag ``poison_tag``."""

    def embed(self, texts):
        if "poison_tag" in texts:
            raise ProviderError("malformed embedding response: ValueError('ragged rows')")
        return super().embed(texts)


@pytest.mark.parametrize("stage", ["target-tags", "candidate-tags"])
def test_a_failed_embedding_batch_drops_only_the_pair_that_holds_the_bad_tag(stage):
    world = _world(n_tasks=20)
    library = world.initial_library()
    tasks = list(world.tasks)
    config = RunConfig(seed=7, max_workers=1)
    outcomes, _, clean = run_epoch(library, tasks, world, _Session(_bundle(MockChatProvider(seed=7))), config)
    failing = sorted(pair.task.id for pair in outcomes if pair is not None)
    victim = failing[len(failing) // 2]
    chat = {
        "target-tags": OneFaultChat(prompts.TARGET_TAG_SYSTEM, victim, "poison_tag\ncsv_parsing", seed=7),
        "candidate-tags": OneFaultChat(
            prompts.GENERATE_SYSTEM, victim, "NAME: odd routine\nDESCRIPTION: d\nBODY:\nuse poison_tag", seed=7),
    }[stage]
    bundle = replace(_bundle(chat), embedder=PoisonEmbedder())
    _, updated, stats = run_epoch(library, tasks, world, _Session(bundle), config)

    assert stats.n_failures == clean.n_failures
    assert stats.n_candidates == clean.n_candidates - 1
    assert {row["pair_id"] for row in stats.score_rows} == set(failing) - {victim}
    assert updated.epoch == library.epoch + 1
    assert len(updated) == len(library) + stats.n_retained


def test_lp_memo_solves_each_model_once_per_kfold_call(monkeypatch):
    import skillforge.cover as cover

    models = []
    solve = cover._solve_lp

    def counted(*model):
        models.append(model)
        return solve(*model)

    monkeypatch.setattr(cover, "_solve_lp", counted)
    world = _world(n_tasks=30)
    config = _quick_config(strategy="lp_round", runs=2)
    first = run_kfold(config, world, mock_provider_factory())
    first_models, models[:] = list(models), []
    second = run_kfold(config, world, mock_provider_factory())
    assert len(first_models) == len(set(first_models)) > 0
    # The memo starts empty on every call, so the second solves the same models again.
    assert models == first_models
    assert strip_wall_clock(first.to_dict()) == strip_wall_clock(second.to_dict())


def test_lp_round_kfold_report_equals_the_memo_free_run(monkeypatch, lp_solves):
    world = _world(n_tasks=30)
    config = _quick_config(strategy="lp_round", runs=2)
    memoized = run_kfold(config, world, mock_provider_factory())
    memo_calls = len(lp_solves)

    monkeypatch.setattr("skillforge.memo.scope", contextlib.nullcontext)
    plain = run_kfold(config, world, mock_provider_factory())
    assert memo_calls < len(lp_solves) - memo_calls
    assert strip_wall_clock(memoized.to_dict()) == strip_wall_clock(plain.to_dict())


def test_lp_round_evolve_outputs_equal_the_memo_free_run(monkeypatch, lp_solves):
    world = _world(n_tasks=30)
    config = RunConfig(seed=7, epochs=2, strategy="lp_round")
    library, report, _ = evolve_library(config, world, mock_provider_factory()(7))
    memo_calls = len(lp_solves)

    monkeypatch.setattr("skillforge.memo.scope", contextlib.nullcontext)
    plain_library, plain_report, _ = evolve_library(config, world, mock_provider_factory()(7))
    assert memo_calls < len(lp_solves) - memo_calls
    assert library == plain_library
    assert strip_wall_clock(report.to_dict()) == strip_wall_clock(plain_report.to_dict())
