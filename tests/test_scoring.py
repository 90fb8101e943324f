from __future__ import annotations

import logging
import math
import random

import pytest

from skillforge.errors import ConfigError, InputError, ScoringError
from skillforge.model import SkillLibrary, Task
from skillforge.scoring import (
    CandidateSkill,
    ScoreRecord,
    alignment_score,
    combined_score,
    filter_and_update,
    knowledge_coverage,
    rank_candidates,
    retention_count,
    score_candidate,
    sigmoid,
    write_score_csv,
)

from conftest import StubLikelihood, make_index, make_skill

def _candidate(skill_id="c1", tags=("a",), body="candidate body text"):
    return make_skill(skill_id, tags=tags, body=body, origin="evolved", created_epoch=1)


def _scored(skill_id, combined, f_tag=0.5, alignment=0.5):
    record = ScoreRecord(
        p_tag=f_tag,
        r_tag=f_tag,
        f_tag=f_tag,
        alignment=alignment,
        combined=combined,
        cond_logprob=-1.0,
        uncond_logprob=-2.0,
        token_count=4,
    )
    return CandidateSkill(skill=_candidate(skill_id), source_pair_id="task-001", scores=record)


def test_coverage_identity_gives_ones():
    index = make_index(["a", "b"])
    p, r, f = knowledge_coverage(_candidate(tags=("a", "b")), frozenset({"a", "b"}), index)
    assert (p, r, f) == (1.0, 1.0, 1.0)


def test_coverage_disjoint_gives_zeros():
    index = make_index(["a", "b", "c", "d"])
    p, r, f = knowledge_coverage(_candidate(tags=("a", "b")), frozenset({"c", "d"}), index)
    assert (p, r, f) == (0.0, 0.0, 0.0)


def test_coverage_half_overlap():
    index = make_index(["a", "b", "c"])
    p, r, f = knowledge_coverage(_candidate(tags=("a", "b")), frozenset({"b", "c"}), index)
    assert (p, r, f) == (0.5, 0.5, 0.5)


def test_coverage_counts_classes_not_strings():
    index = make_index(["a", "a_prime", "b"], groups=[("a", "a_prime")])
    p, r, f = knowledge_coverage(_candidate(tags=("a",)), frozenset({"a_prime"}), index)
    assert (p, r, f) == (1.0, 1.0, 1.0)


def test_empty_target_logs_and_scores_zero(caplog):
    index = make_index(["a"])
    with caplog.at_level(logging.WARNING):
        p, r, f = knowledge_coverage(_candidate(tags=("a",)), frozenset(), index)
    assert (p, r, f) == (0.0, 0.0, 0.0)
    assert "empty target tag set" in caplog.text


def test_alignment_sigma_zero_is_half():
    provider = StubLikelihood({(True, "body"): (-8.0, 4), (False, "body"): (-8.0, 4)})
    candidate = _candidate(body="body")
    alignment, cond, uncond, count = alignment_score(candidate, Task(id="t", description="d"), provider)
    assert alignment == pytest.approx(0.5, abs=1e-12)
    assert (cond, uncond, count) == (-8.0, -8.0, 4)


def test_alignment_sigma_ln3_is_three_quarters():
    diff = 4 * math.log(3)
    provider = StubLikelihood({(True, "body"): (-8.0 + diff, 4), (False, "body"): (-8.0, 4)})
    alignment, _, _, _ = alignment_score(_candidate(body="body"), Task(id="t", description="d"), provider)
    assert alignment == pytest.approx(0.75, abs=1e-12)


def test_alignment_tends_to_zero_for_very_negative_difference():
    provider = StubLikelihood({(True, "body"): (-500.0, 4), (False, "body"): (-8.0, 4)})
    alignment, _, _, _ = alignment_score(_candidate(body="body"), Task(id="t", description="d"), provider)
    assert 0.0 < alignment < 1e-9


def test_alignment_uses_conditional_token_count_on_mismatch(caplog):
    provider = StubLikelihood({(True, "body"): (-4.0, 4), (False, "body"): (-8.0, 5)})
    with caplog.at_level(logging.WARNING):
        alignment, _, _, count = alignment_score(
            _candidate(body="body"), Task(id="t", description="d"), provider
        )
    assert count == 4
    assert alignment == pytest.approx(sigmoid(4.0 / 4))
    assert "token count mismatch" in caplog.text


def test_alignment_monotone_in_logprob_gap():
    previous = 0.0
    for gap in (-2.0, -1.0, 0.0, 1.0, 2.0):
        provider = StubLikelihood({(True, "body"): (-8.0 + gap, 4), (False, "body"): (-8.0, 4)})
        alignment, _, _, _ = alignment_score(
            _candidate(body="body"), Task(id="t", description="d"), provider
        )
        assert alignment > previous
        previous = alignment


def test_alignment_wraps_provider_failure():
    class Failing:
        def score_likelihood(self, condition, continuation):
            from skillforge.errors import ProviderError

            raise ProviderError("down", retryable=False)

    with pytest.raises(ScoringError):
        alignment_score(_candidate(body="body"), Task(id="t", description="d"), Failing())


def test_combined_score_cases():
    assert combined_score(1.0, 1.0) == 1.0
    assert combined_score(0.0, 0.9) == 0.0
    assert combined_score(1.0, 0.25) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InputError):
        combined_score(1.2, 0.5)


def test_score_record_consistency_property():
    rng = random.Random(7)
    index = make_index(["a", "b", "c", "d"])
    for _ in range(50):
        tags = tuple(rng.sample(["a", "b", "c", "d"], rng.randint(1, 4)))
        target = frozenset(rng.sample(["a", "b", "c", "d"], rng.randint(1, 4)))
        cond = -rng.uniform(1, 50)
        uncond = -rng.uniform(1, 50)
        count = rng.randint(1, 40)
        provider = StubLikelihood({(True, "body"): (cond, count), (False, "body"): (uncond, count)})
        candidate = _candidate(tags=tags, body="body")
        scored = score_candidate(candidate, target, Task(id="t", description="d"), index, provider)
        assert (scored.skill, scored.source_pair_id) == (candidate, "t")
        record = scored.scores
        assert record.combined == pytest.approx(
            math.sqrt(record.f_tag * record.alignment), abs=1e-12
        )
        assert record.alignment == pytest.approx(
            sigmoid((record.cond_logprob - record.uncond_logprob) / record.token_count), abs=1e-12
        )
        if record.p_tag + record.r_tag > 0:
            expected_f = 2 * record.p_tag * record.r_tag / (record.p_tag + record.r_tag)
        else:
            expected_f = 0.0
        assert record.f_tag == pytest.approx(expected_f, abs=1e-12)


def test_retention_rule_examples():
    assert retention_count(10, 0.2) == 2
    assert retention_count(1, 0.2) == 1
    assert retention_count(1, 1.0) == 1
    assert retention_count(0, 0.2) == 0
    assert retention_count(3, 1.0) == 3


def test_retention_ratio_bounds():
    with pytest.raises(ConfigError):
        retention_count(10, 0.0)
    with pytest.raises(ConfigError):
        retention_count(10, 1.1)


def test_filter_keeps_top_two_of_ten():
    candidates = [_scored(f"c{i:02d}", combined=i / 10) for i in range(10)]
    library = SkillLibrary()
    updated, retained, rows = filter_and_update(candidates, library, 0.2)
    assert len(retained) == 2
    assert [c.skill.id for c in retained] == ["c09", "c08"]
    assert len(updated) == 2
    assert updated.epoch == 1
    assert sum(1 for row in rows if row["retained"]) == 2


def test_filter_zero_candidates_only_bumps_epoch():
    library = SkillLibrary(skills=(make_skill("a"),), epoch=2)
    updated, retained, rows = filter_and_update([], library, 0.2)
    assert retained == ()
    assert rows == []
    assert updated.ids() == ("a",)
    assert updated.epoch == 3


def test_ranking_tie_breaks_combined_then_f_tag_then_id():
    candidates = [
        _scored("c_b", combined=0.8, f_tag=0.5),
        _scored("c_a", combined=0.8, f_tag=0.5),
        _scored("c_c", combined=0.8, f_tag=0.9),
        _scored("c_d", combined=0.9, f_tag=0.1),
    ]
    ranked = rank_candidates(candidates)
    assert [c.skill.id for c in ranked] == ["c_d", "c_c", "c_a", "c_b"]


def test_ranking_is_scale_invariant():
    base = [random.Random(3).uniform(0.1, 0.9) for _ in range(12)]
    original = [_scored(f"c{i:02d}", combined=v) for i, v in enumerate(base)]
    scaled = [_scored(f"c{i:02d}", combined=v / 2) for i, v in enumerate(base)]
    assert [c.skill.id for c in rank_candidates(original)] == [
        c.skill.id for c in rank_candidates(scaled)
    ]


def test_retained_set_matches_retention_count_for_all_sizes():
    for n in (1, 2, 5, 17):
        for ratio in (0.1, 0.2, 0.5, 1.0):
            candidates = [_scored(f"c{i:03d}", combined=i / (n + 1)) for i in range(n)]
            _, retained, _ = filter_and_update(candidates, SkillLibrary(), ratio)
            assert len(retained) == retention_count(n, ratio)


def test_score_csv_round_trip(tmp_path):
    candidates = [_scored("c1", combined=0.9), _scored("c2", combined=0.1)]
    _, _, rows = filter_and_update(candidates, SkillLibrary(), 0.5)
    path = tmp_path / "scores.csv"
    write_score_csv(rows, path)
    assert path.read_bytes() == (
        b"candidate_id,pair_id,p_tag,r_tag,f_tag,alignment,combined,retained\r\n"
        b"c1,task-001,0.5,0.5,0.5,0.5,0.9,True\r\n"
        b"c2,task-001,0.5,0.5,0.5,0.5,0.1,False\r\n"
    )
