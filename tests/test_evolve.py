from __future__ import annotations

import pytest

import skillforge.evolve as evolve
from skillforge.cover import BRUTE_FORCE_CAP, STRATEGIES, CoverInstance, SelectionResult, select_sources
from skillforge.errors import GenerationError, InputError, ParseError, ProviderError, SizeError
from skillforge.evolve import (
    assemble_generation_prompt,
    build_cover_instance,
    candidate_id,
    generate_candidates,
    parse_skill_response,
)
from skillforge.model import FailurePair, SkillLibrary, Task, Trajectory
from skillforge.providers.mock import MockChatProvider
from skillforge.tags import EquivalenceIndex

from conftest import GroupEmbedder, ScriptedChat, make_pair, make_skill

GOOD_REPLY = "NAME: sample routine\nDESCRIPTION: does things\nBODY:\nstep one\nstep two"


def _selection(selected=(), covered=(), uncovered=(), irrelevant=0):
    return SelectionResult(
        selected=tuple(selected),
        covered=frozenset(covered),
        uncovered=frozenset(uncovered),
        irrelevant_count=irrelevant,
    )


def _record_selections(monkeypatch):
    """Record each selection ``generate_candidates`` makes, in call (pair-id) order."""
    made = []

    def recording(instance, strategy="greedy"):
        made.append(select_sources(instance, strategy))
        return made[-1]

    monkeypatch.setattr(evolve, "select_sources", recording)
    return made


def _index_over(*tag_groups):
    tags = set()
    for group in tag_groups:
        tags |= set(group)
    index = EquivalenceIndex()
    index.add_tags(tags, GroupEmbedder())
    return index


def test_parse_skill_response_happy_path():
    name, description, body = parse_skill_response(GOOD_REPLY)
    assert name == "sample routine"
    assert description == "does things"
    assert body == "step one\nstep two"


def test_parse_skill_response_rejects_missing_sections():
    with pytest.raises(ParseError):
        parse_skill_response("no sections here")
    with pytest.raises(ParseError):
        parse_skill_response("NAME: x\nDESCRIPTION: y\nBODY:\n")


def test_prompt_is_byte_deterministic():
    pair = make_pair("t1", steps=(("act", "obs"),))
    source = make_skill("s1", tags=("csv_parsing",))
    selection = _selection(selected=["s1"], covered=["csv_parsing"], uncovered=["date_arithmetic"])
    a = assemble_generation_prompt(pair, selection, [source], ["date_arithmetic"])
    b = assemble_generation_prompt(pair, selection, [source], ["date_arithmetic"])
    assert a == b


def test_prompt_with_no_sources_uses_sentinel_and_lists_uncovered():
    pair = make_pair("t1")
    selection = _selection(uncovered=["b_tag", "a_tag"])
    request = assemble_generation_prompt(pair, selection, [], ["b_tag", "a_tag"])
    assert "No source skills selected." in request.user
    assert "- a_tag\n- b_tag" in request.user  # sorted for determinism


def test_prompt_golden_fixture():
    pair = FailurePair(
        task=Task(id="t7", description="Task t7: requires capabilities: csv_parsing."),
        trajectory=Trajectory(
            task_id="t7",
            steps=(("retrieve_skills", "retrieved: none"),),
            final_output="failure: missing csv_parsing",
        ),
    )
    source = make_skill(
        "s1", tags=("csv_parsing",), body="Parse rows carefully.", description="CSV handling."
    )
    selection = _selection(selected=["s1"], covered=["csv_parsing"], uncovered=["date_arithmetic"])
    request = assemble_generation_prompt(pair, selection, [source], ["date_arithmetic"])
    expected_user = (
        "Task: Task t7: requires capabilities: csv_parsing.\n"
        "\n"
        "Failed trajectory:\n"
        "1. action: retrieve_skills\n"
        "   observation: retrieved: none\n"
        "Final output: failure: missing csv_parsing\n"
        "\n"
        "Source skills:\n"
        "### s1 procedure\n"
        "description: CSV handling.\n"
        "tags: csv_parsing\n"
        "body:\n"
        "Parse rows carefully.\n"
        "\n"
        "Missing knowledge tags:\n"
        "- date_arithmetic\n"
        "\n"
        "Write one reusable skill that transfers the useful knowledge from the "
        "source skills, covers the missing knowledge tags when possible, and "
        "generalizes to a class of related tasks rather than only this instance. "
        "Reply exactly in this format:\n"
        "NAME: <short name>\n"
        "DESCRIPTION: <one-line description>\n"
        "BODY:\n"
        "<procedure text>"
    )
    assert request.user == expected_user
    assert request.temperature == 0.0
    assert request.max_tokens == 16394


def test_prompt_rejects_mismatched_sources():
    pair = make_pair("t1")
    selection = _selection(selected=["s1"])
    with pytest.raises(InputError):
        assemble_generation_prompt(pair, selection, [], [])


def test_zero_failures_yield_zero_candidates():
    library = SkillLibrary(skills=(make_skill("s1"),))
    index = _index_over(["csv_parsing"])
    out = generate_candidates([], library, index, MockChatProvider(), 0, {})
    assert out == {}


def test_three_failures_yield_three_candidates_with_sequential_ids():
    library = SkillLibrary(skills=(make_skill("s1", tags=("csv_parsing",)),))
    pairs = [
        make_pair(f"task-{i:03d}", description=f"Task task-{i:03d}: requires capabilities: csv_parsing.")
        for i in range(3)
    ]
    targets = {p.task.id: frozenset({"csv_parsing"}) for p in pairs}
    index = _index_over(["csv_parsing"])
    out = generate_candidates(pairs, library, index, MockChatProvider(seed=1), 2, targets)
    assert list(out) == ["task-000", "task-001", "task-002"]
    assert [s.id for s in out.values()] == [
        "evo-2-task-000-0",
        "evo-2-task-001-0",
        "evo-2-task-002-0",
    ]
    assert all(s.origin == "evolved" and s.created_epoch == 2 for s in out.values())
    assert len({s.id for s in out.values()}) == 3


def test_generate_candidates_builds_each_candidate_skill_once(monkeypatch):
    from skillforge.model import Skill

    library = SkillLibrary(skills=(make_skill("s1", tags=("csv_parsing",)),))
    pairs = [make_pair(f"task-{i:03d}") for i in range(3)]
    targets = {p.task.id: frozenset({"csv_parsing"}) for p in pairs}
    index = _index_over(["csv_parsing"])
    built = []
    original = Skill.__post_init__

    def counting(skill):
        built.append(skill.id)
        original(skill)

    monkeypatch.setattr(Skill, "__post_init__", counting)
    out = generate_candidates(pairs, library, index, MockChatProvider(seed=1), 2, targets)
    assert len(out) == 3 and all(skill.tags for skill in out.values())
    assert built == [skill.id for skill in out.values()]


def test_candidate_tags_include_uncovered_target_tag(monkeypatch):
    selections = _record_selections(monkeypatch)
    library = SkillLibrary(skills=(make_skill("s1", tags=("csv_parsing",)),))
    pair = make_pair("task-009", description="Task task-009: requires csv_parsing and t9_special.")
    targets = {"task-009": frozenset({"csv_parsing", "t9_special"})}
    index = _index_over(["csv_parsing", "t9_special"])
    out = generate_candidates(
        [pair], library, index, MockChatProvider(seed=4), 0, targets
    )
    assert list(out) == ["task-009"]
    skill = out["task-009"]
    assert [selection.uncovered for selection in selections] == [frozenset({"t9_special"})]
    assert "t9_special" in skill.tags
    assert "csv_parsing" in skill.tags


def test_generation_is_reproducible():
    library = SkillLibrary(skills=(make_skill("s1", tags=("csv_parsing",)),))
    pairs = [make_pair("task-001"), make_pair("task-002")]
    targets = {p.task.id: frozenset({"csv_parsing"}) for p in pairs}
    index = _index_over(["csv_parsing"])
    chat = MockChatProvider(seed=9)
    first = generate_candidates(pairs, library, index, chat, 0, targets)
    second = generate_candidates(pairs, library, index, chat, 0, targets)
    assert first == second


def test_unparseable_reply_is_reasked_then_pair_skipped():
    library = SkillLibrary()
    pair = make_pair("task-001")
    targets = {"task-001": frozenset({"csv_parsing"})}
    index = _index_over(["csv_parsing"])

    garbage = ScriptedChat(["not a skill"])
    out = generate_candidates([pair], library, index, garbage, 0, targets)
    assert out == {}
    assert len(garbage.requests) == 3  # one ask plus two re-asks

    flaky = ScriptedChat(["bad", "bad", GOOD_REPLY, "some_tag"])
    out = generate_candidates([pair], library, index, flaky, 0, targets)
    assert list(out) == ["task-001"]
    assert out["task-001"].tags == frozenset({"some_tag"})


def test_provider_hard_failure_skips_pair():
    class Failing:
        def complete(self, request):
            raise ProviderError("down", retryable=False)

    pair = make_pair("task-001")
    out = generate_candidates(
        [pair],
        SkillLibrary(),
        _index_over(["csv_parsing"]),
        Failing(),
        0,
        {"task-001": frozenset({"csv_parsing"})},
    )
    assert out == {}


def test_empty_completion_skips_only_its_pair():
    class EmptyForOne(MockChatProvider):
        def complete(self, request):
            if "Task task-002:" in request.user:
                raise GenerationError("provider returned an empty completion")
            return super().complete(request)

    pairs = [make_pair(f"task-00{i}") for i in (1, 2, 3)]
    out = generate_candidates(
        pairs,
        SkillLibrary(),
        _index_over(["csv_parsing"]),
        EmptyForOne(seed=1),
        0,
        {p.task.id: frozenset({"csv_parsing"}) for p in pairs},
    )
    assert list(out) == ["task-001", "task-003"]


def test_missing_target_tags_is_an_input_error():
    pair = make_pair("task-001")
    with pytest.raises(InputError):
        generate_candidates(
            [pair], SkillLibrary(), _index_over(["x_y"]), MockChatProvider(), 0, {}
        )


def test_build_cover_instance_canonicalizes_through_index():
    index = _index_over(["a", "a_alias", "b"])
    # force a and a_alias into one class
    index2 = EquivalenceIndex()
    index2.add_tags(["a", "a_alias", "b"], GroupEmbedder(groups=[("a", "a_alias")]))
    library_instance = CoverInstance(target_classes=frozenset(), skill_classes={"s1": frozenset({"a"})})
    instance = build_cover_instance(frozenset({"a_alias", "b"}), library_instance, index2)
    assert instance.target_classes == frozenset({"a", "b"})
    assert instance.skill_classes == {"s1": frozenset({"a"})}
    assert library_instance.target_classes == frozenset()


@pytest.mark.parametrize("strategy", ["greedy", "primal_dual", "lp_round", "brute_force"])
def test_generate_candidates_canonicalizes_each_library_skill_once(monkeypatch, strategy):
    index = EquivalenceIndex()
    index.add_tags(["a", "a_alias", "b", "c", "d", "e"], GroupEmbedder(groups=[("a", "a_alias")]))
    library = SkillLibrary(skills=(
        make_skill("s1", tags=("a_alias",)), make_skill("s2", tags=("b", "c")),
        make_skill("s3", tags=("c", "d")), make_skill("s4", tags=("a", "e")),
    ))
    targets = {
        "task-001": frozenset({"a", "b"}), "task-002": frozenset({"c", "e"}),
        "task-003": frozenset({"a_alias", "d", "e"}), "task-004": frozenset({"b"}),
    }
    expected = {
        pair_id: select_sources(CoverInstance(
            target_classes=index.canonical_set(target),
            skill_classes={skill.id: index.canonical_set(skill.tags) for skill in library},
        ), strategy)
        for pair_id, target in targets.items()
    }
    calls = []
    canonical_set = EquivalenceIndex.canonical_set

    def counting(self, tags):
        calls.append(tags)
        return canonical_set(self, tags)

    monkeypatch.setattr(EquivalenceIndex, "canonical_set", counting)
    selections = _record_selections(monkeypatch)
    pairs = [make_pair(pair_id) for pair_id in targets]
    candidates = generate_candidates(pairs, library, index, MockChatProvider(seed=2), 0, targets, strategy=strategy)
    assert len(calls) == len(pairs) + len(library)
    assert list(candidates) == sorted(targets)
    assert dict(zip(sorted(targets), selections, strict=True)) == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generate_candidates_selects_once_per_distinct_canonical_target_set(monkeypatch, tmp_path, strategy):
    index = EquivalenceIndex()
    index.add_tags(["a", "a_alias", "b", "c", "d", "e"], GroupEmbedder(groups=[("a", "a_alias")]))
    library = SkillLibrary(skills=(
        make_skill("s1", tags=("a_alias",)), make_skill("s2", tags=("b", "c")),
        make_skill("s3", tags=("c", "d")), make_skill("s4", tags=("a", "e")),
    ))
    # Six pairs, four canonical target sets: task-002 names task-001's "a" by
    # its alias, task-004 repeats task-003's set.
    targets = {
        "task-001": frozenset({"a", "b"}), "task-002": frozenset({"a_alias", "b"}),
        "task-003": frozenset({"c", "e"}), "task-004": frozenset({"e", "c"}),
        "task-005": frozenset({"a_alias", "d", "e"}), "task-006": frozenset({"b"}),
    }
    pairs = [make_pair(pair_id) for pair_id in targets]
    chat = MockChatProvider(seed=2)
    per_pair = {}
    for pair in pairs:
        per_pair.update(generate_candidates(
            [pair], library, index, chat, 0, targets, strategy=strategy, dump_dir=tmp_path / "per-pair"
        ))

    posed = []

    def recording(instance, strategy="greedy"):
        posed.append(instance.target_classes)
        return select_sources(instance, strategy)

    monkeypatch.setattr(evolve, "select_sources", recording)
    shared = generate_candidates(pairs, library, index, chat, 0, targets, strategy=strategy, dump_dir=tmp_path / "shared")
    assert posed == [frozenset(t) for t in ({"a", "b"}, {"c", "e"}, {"a", "d", "e"}, {"b"})]
    assert list(shared) == sorted(targets)
    assert shared == per_pair
    names = sorted(path.name for path in (tmp_path / "per-pair").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "shared").iterdir())
    assert len(names) == len(pairs)
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "per-pair" / name).read_bytes()


def test_shared_selection_still_caps_brute_force():
    tags = [f"t{i}" for i in range(BRUTE_FORCE_CAP + 1)]
    index = _index_over(tags)
    library = SkillLibrary(skills=tuple(make_skill(f"s{i:02d}", tags=(tag,)) for i, tag in enumerate(tags)))
    targets = {"task-001": frozenset(tags), "task-002": frozenset(tags)}
    pairs = [make_pair(pair_id) for pair_id in targets]
    with pytest.raises(SizeError):
        generate_candidates(pairs, library, index, MockChatProvider(seed=2), 0, targets, strategy="brute_force")


def test_one_generate_candidates_call_shares_one_skill_map(monkeypatch):
    index = EquivalenceIndex()
    index.add_tags(["a", "b", "c"], GroupEmbedder(groups=[]))
    library = SkillLibrary(skills=(make_skill("s2", tags=("b", "c")), make_skill("s1", tags=("a",))))
    targets = {"task-001": frozenset({"a"}), "task-002": frozenset({"b"}), "task-003": frozenset({"a", "c"})}
    built = []

    def recording(*args):
        built.append(build_cover_instance(*args))
        return built[-1]

    monkeypatch.setattr(evolve, "build_cover_instance", recording)
    for _ in range(2):
        generate_candidates([make_pair(p) for p in targets], library, index, MockChatProvider(seed=2), 0, targets)
    first, second = built[:3], built[3:]
    assert [instance.target_classes for instance in first] == list(targets.values())
    assert all(i.skill_classes is first[0].skill_classes and i.skill_order is first[0].skill_order for i in first)
    assert first[0].skill_order == ("s1", "s2")
    # Each call builds its own map, since the library or the index may change between calls.
    assert second[0].skill_classes is not first[0].skill_classes


def test_dump_prompts_writes_files(tmp_path):
    library = SkillLibrary()
    pair = make_pair("task-001")
    targets = {"task-001": frozenset({"csv_parsing"})}
    generate_candidates(
        [pair],
        library,
        _index_over(["csv_parsing"]),
        MockChatProvider(seed=2),
        1,
        targets,
        dump_dir=tmp_path / "prompts",
    )
    dumped = list((tmp_path / "prompts").glob("*.prompt.txt"))
    assert [p.name for p in dumped] == ["evo-1-task-001.prompt.txt"]
    assert "SYSTEM:" in dumped[0].read_text(encoding="utf-8")


def test_candidate_id_format():
    assert candidate_id(3, "task-042") == "evo-3-task-042-0"


def test_empty_target_tag_set_still_generates_a_candidate(monkeypatch):
    # An empty inferred target set flows through as an empty uncovered list;
    # the scoring stage decides the candidate's fate.
    selections = _record_selections(monkeypatch)
    pair = make_pair("task-001")
    out = generate_candidates(
        [pair],
        SkillLibrary(),
        _index_over([]),
        MockChatProvider(seed=2),
        0,
        {"task-001": frozenset()},
    )
    assert list(out) == ["task-001"]
    assert [selection.uncovered for selection in selections] == [frozenset()]
    assert out["task-001"].tags
