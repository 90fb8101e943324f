from __future__ import annotations

import random
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillforge.errors import ConfigError, InputError, MissingTagError, TaggingError
from skillforge.model import Task, Trajectory, FailurePair
from skillforge.providers.mock import MockChatProvider, MockEmbedder
from skillforge.tags import (
    EquivalenceIndex,
    generate_skill_tags,
    generate_target_tags,
    normalize_tag,
    parse_tag_list,
    self_consistency,
    tag_quality_metrics,
)

from conftest import (
    GroupEmbedder,
    MapEmbedder,
    ScriptedChat,
    build_eq,
    classes,
    make_index,
    make_pair,
    make_skill,
    members,
)


def test_normalize_tag_examples():
    assert normalize_tag("  PDF  Text Extraction ") == "pdf_text_extraction"
    assert normalize_tag("latex_table_generation") == "latex_table_generation"
    assert normalize_tag("Video Editing") == "video_editing"


def test_normalize_tag_idempotent_on_random_strings():
    rng = random.Random(2)
    alphabet = string.ascii_letters + string.digits + " _-"
    for _ in range(200):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
        try:
            once = normalize_tag(raw)
        except InputError:
            continue
        assert normalize_tag(once) == once


def test_normalize_tag_rejects_whitespace_only():
    with pytest.raises(InputError):
        normalize_tag("   ")
    with pytest.raises(InputError):
        normalize_tag(" _ _ ")


def test_parse_tag_list_accepts_common_shapes():
    text = "- Video Editing\n1. pdf text extraction\n* csv_parsing, JSON validation\n\n"
    assert parse_tag_list(text) == [
        "video_editing",
        "pdf_text_extraction",
        "csv_parsing",
        "json_validation",
    ]


def _parse_tag_list_reference(text: str) -> list[str]:
    """Every line through the general path: bullet strip, comma split,
    8-word cap, ``normalize_tag``."""
    found: list[str] = []
    for line in text.splitlines():
        line = re.sub(r"^\s*(?:[-*•]+|\d+[.)])\s*", "", line).strip()
        if not line:
            continue
        for piece in line.split(",") if "," in line else [line]:
            piece = piece.strip()
            if not piece or len(piece.split()) > 8 or not any(ch.isalnum() for ch in piece):
                continue
            try:
                tag = normalize_tag(piece)
            except InputError:
                continue
            if tag not in found:
                found.append(tag)
    return found


_CLEAN_TAGS = st.lists(st.text("az09", min_size=1, max_size=3), min_size=1, max_size=3).map("_".join)
# Each turns a clean tag into a line that only just fails the one-match path.
_NEAR_MISSES = (
    str.upper, str.capitalize, lambda t: f"_{t}", lambda t: f"{t}_", lambda t: t.replace("_", "__"),
    lambda t: t.replace("_", " "), lambda t: f" {t}", lambda t: f"{t}\t", lambda t: f"- {t}", lambda t: f"•{t}",
    lambda t: f"1. {t}", lambda t: f"2){t}", lambda t: f"{t},{t}", lambda t: f"{t}é", lambda t: f"ß{t}",
    lambda t: f"{t}٣", lambda t: f"{t}²", lambda t: f"{t}!", lambda t: f"{t}\u00a0",
)
_FRAGMENTS = st.one_of(
    _CLEAN_TAGS,
    st.sampled_from(["- ", "* ", "• ", "--", "1. ", "12) ", "3.", ",", ", ", " ", "\t", "_", "__", "PDF", "Ünï", "½"]),
    st.text(alphabet="aZ9_ ,-.é٣", max_size=5),
)
_LINES = st.one_of(
    _CLEAN_TAGS,
    st.builds(lambda miss, tag: miss(tag), st.sampled_from(_NEAR_MISSES), _CLEAN_TAGS),
    st.lists(_FRAGMENTS, max_size=8).map("".join),
    st.lists(_CLEAN_TAGS, min_size=7, max_size=11).map(" ".join),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINES, max_size=8), st.sampled_from(["\n", "\r\n"]))
def test_parse_tag_list_matches_the_general_path(lines, newline):
    text = newline.join(lines)
    assert parse_tag_list(text) == _parse_tag_list_reference(text)


def test_generate_skill_tags_dedupes_after_normalization():
    chat = ScriptedChat(["Video Editing\nvideo editing"])
    tags = generate_skill_tags(make_skill(), chat)
    assert tags == frozenset({"video_editing"})


def test_generate_skill_tags_requires_nonempty_body():
    with pytest.raises(InputError):
        generate_skill_tags(make_skill(body=""), ScriptedChat(["x_y"]))


def test_generate_skill_tags_retries_then_fails():
    garbage = ScriptedChat([""])
    with pytest.raises(TaggingError):
        generate_skill_tags(make_skill(), garbage)
    assert len(garbage.requests) == 3  # initial call plus 2 retries

    flaky = ScriptedChat(["", "", "good_tag"])
    assert generate_skill_tags(make_skill(), flaky) == frozenset({"good_tag"})
    assert len(flaky.requests) == 3


def test_seeded_mock_yields_stable_tag_set_for_fixture_skill():
    skill = make_skill(
        "fix-1",
        tags=(),
        body="Use csv_parsing then date_arithmetic and finish with chart_plotting.",
    )
    chat = MockChatProvider(seed=5)
    expected = frozenset({"csv_parsing", "date_arithmetic", "chart_plotting"})
    assert generate_skill_tags(skill, chat) == expected
    assert generate_skill_tags(skill, chat) == expected


def test_generate_target_tags_deterministic_and_reads_trajectory():
    pair = FailurePair(
        task=Task(id="t9", description="Task t9: requires capabilities: csv_parsing."),
        trajectory=Trajectory(
            task_id="t9",
            steps=(("check", "missing knowledge: date_arithmetic, unit_conversion"),),
            final_output="failure",
        ),
    )
    chat = MockChatProvider(seed=1)
    tags = generate_target_tags(pair, chat)
    assert tags == generate_target_tags(pair, chat)
    assert {"date_arithmetic", "unit_conversion"} <= tags


def test_generate_target_tags_with_empty_trajectory_uses_task_text():
    pair = make_pair("t1", description="Task t1: requires capabilities: csv_parsing, json_validation.")
    tags = generate_target_tags(pair, MockChatProvider(seed=2))
    assert tags == frozenset({"csv_parsing", "json_validation"})


def test_identical_strings_share_a_class():
    index = make_index(["a_tag", "b_tag"])
    assert index.representative("a_tag") == index.representative("a_tag")
    assert index.representative("a_tag") != index.representative("b_tag")


def test_delta_out_of_range_rejected():
    with pytest.raises(ConfigError):
        EquivalenceIndex(delta=1.0 + 1e-9)
    with pytest.raises(ConfigError):
        EquivalenceIndex(delta=0.0)


def test_transitive_chain_collapses_to_one_class():
    # cos(a,b) ~ 0.906 >= 0.9, cos(b,c) ~ 0.906 >= 0.9, cos(a,c) ~ 0.64 < 0.9
    import math

    vectors = {
        "a": [1.0, 0.0],
        "b": [math.cos(math.radians(25)), math.sin(math.radians(25))],
        "c": [math.cos(math.radians(50)), math.sin(math.radians(50))],
    }
    index = build_eq(["a", "b", "c"], MapEmbedder(vectors), delta=0.9)
    assert index.representative("a") == index.representative("b") == index.representative("c") == "a"


def test_adding_unrelated_tag_preserves_existing_classes():
    embedder = GroupEmbedder(groups=[("x_one", "x_two")])
    index = EquivalenceIndex(delta=0.9)
    index.add_tags(["x_one", "x_two", "y_only"], embedder)
    before = classes(index)
    index.add_tags(["z_new"], embedder)
    after = classes(index)
    assert all(after[rep] == members for rep, members in before.items())


def test_missing_tag_raises_index_error():
    index = make_index(["known_tag"])
    with pytest.raises(MissingTagError):
        index.representative("unknown_tag")
    with pytest.raises(MissingTagError):
        index.canonical_set(["known_tag", "unknown_tag"])


def test_canonical_set_names_the_missing_tag_as_representative_does():
    index = make_index(["known_tag"])
    with pytest.raises(MissingTagError, match="'unknown_tag' is not in the equivalence index") as from_set:
        index.canonical_set(iter(["known_tag", "unknown_tag"]))
    with pytest.raises(MissingTagError) as from_one:
        index.representative("unknown_tag")
    assert str(from_set.value) == str(from_one.value)


def test_tag_quality_identity_is_all_ones():
    index = make_index(["a", "b"])
    report = tag_quality_metrics(frozenset({"a", "b"}), frozenset({"a", "b"}), index)
    assert (
        report.exact_precision,
        report.exact_recall,
        report.exact_f1,
        report.semantic_precision,
        report.semantic_recall,
        report.semantic_f1,
    ) == (1, 1, 1, 1, 1, 1)


def test_surface_form_variants_match_semantically_but_not_exactly():
    index = make_index(
        ["latex_table_generation", "table_formatting"],
        groups=[("latex_table_generation", "table_formatting")],
    )
    report = tag_quality_metrics(
        frozenset({"latex_table_generation"}), frozenset({"table_formatting"}), index
    )
    assert report.exact_f1 == 0.0
    assert report.semantic_f1 == 1.0


def test_half_overlap_gives_half_metrics():
    index = make_index(["a", "b", "c"])
    report = tag_quality_metrics(frozenset({"a", "b"}), frozenset({"b", "c"}), index)
    assert report.exact_precision == pytest.approx(0.5)
    assert report.exact_recall == pytest.approx(0.5)
    assert report.exact_f1 == pytest.approx(0.5)


def test_empty_sets_give_zero_f1():
    index = make_index(["a"])
    report = tag_quality_metrics(frozenset(), frozenset({"a"}), index)
    assert report.exact_f1 == 0.0
    assert report.semantic_f1 == 0.0


def test_semantic_f1_at_least_exact_f1_under_cross_set_matching():
    # Equivalences built as a partial matching between the two sets keep the
    # quotient map injective on each side, which is the provable setting.
    rng = random.Random(17)
    for _ in range(200):
        predicted = {f"p{i}_{rng.randint(0, 9)}" for i in range(rng.randint(0, 6))}
        reference = {f"r{i}_{rng.randint(0, 9)}" for i in range(rng.randint(1, 6))}
        shared = {f"s{i}_x" for i in range(rng.randint(0, 3))}
        predicted |= shared
        reference |= shared
        p_only = sorted(predicted - reference)
        r_only = sorted(reference - predicted)
        n_pairs = rng.randint(0, min(len(p_only), len(r_only)))
        groups = [(p_only[i], r_only[i]) for i in range(n_pairs)]
        index = make_index(sorted(predicted | reference), groups=groups)
        report = tag_quality_metrics(frozenset(predicted), frozenset(reference), index)
        assert report.semantic_f1 >= report.exact_f1 - 1e-12


def test_self_consistency_identical_runs():
    index = make_index(["a", "b"])
    runs = [frozenset({"a", "b"})] * 3
    assert self_consistency(runs, index) == pytest.approx(1.0)


def test_self_consistency_disjoint_runs():
    index = make_index(["a", "b"])
    assert self_consistency([frozenset({"a"}), frozenset({"b"})], index) == 0.0


def test_self_consistency_mixed_runs_match_hand_computation():
    index = make_index(["a", "b", "c"])
    # F1({a,b},{a}) = 2*1/(2+1) = 2/3, so the mean over the three pairs is
    # (1 + 2/3 + 2/3) / 3 = 7/9.
    runs = [frozenset({"a", "b"}), frozenset({"a", "b"}), frozenset({"a"})]
    assert self_consistency(runs, index) == pytest.approx(7 / 9, abs=1e-9)
    # F1({a,b},{a,b,c}) = 2*2/(2+3) = 0.8; mean of (1, 0.8, 0.8) = 13/15.
    runs = [frozenset({"a", "b"}), frozenset({"a", "b"}), frozenset({"a", "b", "c"})]
    assert self_consistency(runs, index) == pytest.approx(13 / 15, abs=1e-9)


def test_self_consistency_needs_two_runs():
    index = make_index(["a"])
    with pytest.raises(InputError):
        self_consistency([frozenset({"a"})], index)


class _PairwiseIndex(EquivalenceIndex):
    """Reference: the pair-by-pair np.dot join that the blocked product replaced."""

    def add_tags(self, tags, embedder):
        new = sorted(set(tags) - set(self._parent))
        if not new:
            return
        vectors = embedder.embed(new)
        for tag, vector in zip(new, vectors):
            self._parent[tag] = tag
            self._vectors[tag] = np.asarray(vector, dtype=np.float64)
        known = members(self)
        for tag in new:
            v = self._vectors[tag]
            for other in known:
                if other == tag:
                    continue
                if float(np.dot(v, self._vectors[other])) >= self.delta:
                    self._union(tag, other)
        for tag in self._parent:
            self._parent[tag] = self._find(tag)


def _assert_same_partition(batches, embedder, delta):
    fast, reference = EquivalenceIndex(delta=delta), _PairwiseIndex(delta=delta)
    for batch in batches:
        fast.add_tags(batch, embedder)
        reference.add_tags(batch, embedder)
        assert classes(fast) == classes(reference)


# Short strings over a tiny alphabet share many trigrams, so the mock
# embedder's cosines spread over the whole range, thresholds included.
_TAGS = st.lists(st.text(alphabet="abc_", min_size=1, max_size=6), max_size=40)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(batches=st.lists(_TAGS, min_size=1, max_size=3), delta=st.sampled_from([0.5, 0.9, 1.0]))
def test_blocked_join_matches_pairwise_dot(batches, delta):
    _assert_same_partition(batches, MockEmbedder(), delta)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    batches=st.lists(_TAGS, min_size=1, max_size=4),
    delta=st.sampled_from([0.5, 0.9, 1.0]),
    by_first_letter=st.booleans(),
)
def test_representative_is_the_union_find_root_after_every_batch(batches, delta, by_first_letter):
    # Grouping by first letter makes a later, smaller tag take over an
    # existing class's root, which leaves parent chains until add_tags
    # flattens them.
    embedder = MockEmbedder()
    if by_first_letter:
        tags = {tag for batch in batches for tag in batch}
        embedder = GroupEmbedder(groups=[[t for t in tags if t[0] == ch] for ch in "abc_"])
    index = EquivalenceIndex(delta=delta)
    for batch in batches:
        index.add_tags(batch, embedder)
        roots = {tag: index._find(tag) for tag in members(index)}
        assert {tag: index.representative(tag) for tag in members(index)} == roots
        assert index.canonical_set(members(index)) == frozenset(roots.values())


@pytest.mark.parametrize("delta", [0.5, 0.9, 1.0])
def test_blocked_join_matches_pairwise_dot_across_blocks(delta):
    rng = random.Random(41)
    tags = sorted({"".join(rng.choices("abcd_", k=rng.randint(2, 7))) for _ in range(400)})
    batches = [tags[:150], tags[150:], tags[::3]]
    _assert_same_partition(batches, MockEmbedder(), delta)


class _FixedEmbedder:
    def __init__(self, rows):
        self.rows = rows

    def embed(self, texts):
        return np.array([self.rows[t] for t in texts])


def test_similarity_exactly_at_delta_joins_and_one_ulp_below_it_does_not():
    rng = np.random.default_rng(5)
    u, v = np.abs(rng.normal(size=(2, 64)))
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    embedder = _FixedEmbedder({"t_u": u, "t_v": v})
    cosine = float(np.dot(u, v))
    for delta, joined in ((cosine, True), (float(np.nextafter(cosine, 1.0)), False)):
        index = build_eq(["t_u", "t_v"], embedder, delta=delta)
        assert (index.representative("t_v") == "t_u") is joined
        _assert_same_partition([["t_u"], ["t_v"]], embedder, delta)
        _assert_same_partition([["t_u", "t_v"]], embedder, delta)


def _near_delta_rows(step, picks):
    """Unit vectors at multiples of the angle ``step`` in a plane, nudged by a
    few ulps to 1e-12 radians and some lifted slightly out of the plane, so
    many cosines land on or just beside cos(step)."""
    rows = {}
    for i, (multiple, nudge, lift) in enumerate(picks):
        angle = multiple * step + nudge
        vector = np.array([np.cos(angle), np.sin(angle), lift])
        rows[f"t{i:02d}"] = vector / np.linalg.norm(vector)
    return rows


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    step=st.floats(min_value=0.05, max_value=0.6),
    picks=st.lists(
        st.tuples(
            st.integers(0, 6),
            st.sampled_from([0.0, 1e-16, -1e-16, 4e-16, -4e-16, 1e-12, -1e-12]),
            st.sampled_from([0.0, 0.0, 1e-8]),
        ),
        min_size=1,
        max_size=40,
    ),
    cuts=st.lists(st.integers(0, 40), max_size=4),
    extra_every=st.integers(1, 4),
)
def test_a_chain_of_forks_partitions_like_a_fresh_build(step, picks, cuts, extra_every):
    # The harness's pattern: a trunk index grows batch by batch; after each
    # batch a fork takes extra tags, and the trunk must not see them.
    rows = _near_delta_rows(step, picks)
    embedder = _FixedEmbedder(rows)
    delta = float(np.cos(step))
    tags = sorted(rows)
    extras = tags[::extra_every]
    trunk, start = EquivalenceIndex(delta=delta), 0
    for end in sorted(set(cuts) | {len(tags)}):
        trunk.add_tags(tags[start:end], embedder)
        start = end
        before = dict(trunk._parent)
        fork = trunk.fork()
        fork.add_tags(extras, embedder)
        assert trunk._parent == before
        for index, held in ((trunk, tags[:end]), (fork, sorted(set(tags[:end]) | set(extras)))):
            fresh = build_eq(held, embedder, delta)
            assert members(index) == tuple(held)
            assert {tag: index.representative(tag) for tag in held} == {
                tag: fresh.representative(tag) for tag in held
            }


def test_a_fork_is_separate_from_its_parent_and_skips_init(monkeypatch):
    embedder = GroupEmbedder(groups=[("x_one", "x_two")])
    parent = build_eq(["x_two", "y_only"], embedder)
    monkeypatch.setattr(EquivalenceIndex, "__init__", None)
    fork = parent.fork()
    fork.add_tags(["x_one", "z_new"], embedder)
    assert classes(parent) == {"x_two": ("x_two",), "y_only": ("y_only",)}
    assert classes(fork) == {"x_one": ("x_one", "x_two"), "y_only": ("y_only",), "z_new": ("z_new",)}
    assert fork.delta == parent.delta
    parent.add_tags(["w_new"], embedder)
    assert "w_new" not in fork
