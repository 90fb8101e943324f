"""Acceptance suite: one test per criterion, one pass/fail line each.

The end-to-end criteria run against the seeded default synthetic world
(50 tasks, 40% base-coverable, seed 7) with the deterministic mock
providers; everything stays offline.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from skillforge.cover import CoverInstance, brute_force_select, select_sources
from skillforge.harness import (
    RunConfig,
    mock_provider_factory,
    run_kfold,
    scorer_sensitivity,
    strip_wall_clock,
)
from skillforge.model import SkillLibrary, Task
from skillforge.retrieval import build_index, retrieve
from skillforge.scoring import combined_score, retention_count, sigmoid
from skillforge.tags import tag_quality_metrics
from skillforge.world import WorldConfig, generate_world

from conftest import StubLikelihood, make_index, make_skill

DEFAULT_SEED = 7


@pytest.fixture(scope="module")
def default_world():
    return generate_world(WorldConfig(seed=DEFAULT_SEED))


@pytest.fixture(scope="module")
def default_report(default_world):
    started = time.monotonic()
    report = run_kfold(RunConfig(seed=DEFAULT_SEED), default_world, mock_provider_factory())
    return report, time.monotonic() - started


def test_criterion_1_set_cover_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        n_classes = rng.randint(1, 10)
        classes = [f"c{i}" for i in range(n_classes)]
        target = frozenset(rng.sample(classes, rng.randint(0, n_classes)))
        skills = {
            f"s{i:02d}": frozenset(rng.sample(classes, rng.randint(0, min(4, n_classes))))
            for i in range(rng.randint(1, 12))
        }
        instance = CoverInstance(target_classes=target, skill_classes=skills)
        oracle = brute_force_select(instance)
        for strategy in ("greedy", "primal_dual", "lp_round"):
            result = select_sources(instance, strategy)
            assert result.covered == oracle.covered, (strategy, instance)
            assert oracle.irrelevant_count <= result.irrelevant_count, (strategy, instance)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 200
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"criterion 1 (set-cover oracle equivalence, 200 instances, {elapsed:.1f}s): PASS")


def test_criterion_2_formula_unit_suite():
    assert sigmoid(0.0) == pytest.approx(0.5, abs=1e-9)
    assert sigmoid(math.log(3)) == pytest.approx(0.75, abs=1e-9)
    assert combined_score(1.0, 0.25) == pytest.approx(0.5, abs=1e-9)
    index = make_index(["a", "b", "c"])
    report = tag_quality_metrics(frozenset({"a", "b"}), frozenset({"b", "c"}), index)
    assert report.exact_precision == pytest.approx(0.5, abs=1e-9)
    assert report.exact_recall == pytest.approx(0.5, abs=1e-9)
    assert report.exact_f1 == pytest.approx(0.5, abs=1e-9)
    print("criterion 2 (formula unit suite): PASS")


def test_criterion_3_filter_rule():
    for n in range(1, 101):
        for ratio in (0.1, 0.2, 0.5, 1.0):
            assert retention_count(n, ratio) == max(1, math.floor(ratio * n + 0.5)), (n, ratio)
    assert retention_count(10, 0.2) == 2
    print("criterion 3 (retention rule over n=1..100, four ratios): PASS")


def test_criterion_4_semantic_dominates_exact():
    rng = random.Random(401)
    checked = 0
    while checked < 500:
        predicted = {f"p{i}_{rng.randint(0, 9)}" for i in range(rng.randint(0, 6))}
        reference = {f"r{i}_{rng.randint(0, 9)}" for i in range(rng.randint(0, 6))}
        shared = {f"s{i}_x" for i in range(rng.randint(0, 3))}
        predicted |= shared
        reference |= shared
        # Equivalences form a partial matching across the two sets, keeping
        # the class map injective on each side (the provable setting).
        p_only = sorted(predicted - reference)
        r_only = sorted(reference - predicted)
        n_pairs = rng.randint(0, min(len(p_only), len(r_only)))
        groups = [(p_only[i], r_only[i]) for i in range(n_pairs)]
        index = make_index(sorted(predicted | reference), groups=groups)
        report = tag_quality_metrics(frozenset(predicted), frozenset(reference), index)
        assert report.semantic_f1 >= report.exact_f1 - 1e-12, (predicted, reference, groups)
        checked += 1
    print("criterion 4 (semantic F1 >= exact F1, 500 seeded pairs): PASS")


def test_criterion_5_end_to_end_synthetic_improvement(default_world, default_report):
    report, elapsed = default_report
    assert elapsed < 60.0, f"default run took {elapsed:.1f}s"
    assert report.providers == ("MockChatProvider", "MockEmbedder", "MockLikelihoodScorer")

    coverable = sum(1 for t in default_world.tasks if t.metadata["coverable"] == "true")
    assert len(default_world.tasks) == 50 and coverable == 20

    summary = report.per_epoch_summary()
    base = summary[0]["mean_holdout_pass_rate"]
    final = summary[3]["mean_holdout_pass_rate"]
    assert final - base >= 0.15, f"improvement {final - base:.3f} below 15 points"

    # Library size strictly increases in every epoch that saw failures.
    for cell in report.cells:
        for row_prev, row_next in zip(cell.rows, cell.rows[1:]):
            if row_next.n_failures and row_next.n_failures >= 1:
                assert row_next.library_size > row_prev.library_size, cell
    print(
        f"criterion 5 (end-to-end improvement {base:.3f} -> {final:.3f}, {elapsed:.1f}s): PASS"
    )


def test_criterion_6_epoch_sweep_shape(default_report):
    report, _ = default_report
    rates = [row["mean_holdout_pass_rate"] for row in report.per_epoch_summary()]
    gains = [after - before for before, after in zip(rates, rates[1:])]
    assert all(gain >= -1e-12 for gain in gains), gains
    assert gains[0] >= gains[-1], gains
    print(f"criterion 6 (epoch gains {['%.3f' % g for g in gains]}, early >= late): PASS")


def test_criterion_7_filter_ratio_sweep(default_world):
    noisy = mock_provider_factory(noise_rate=0.5)
    strict = run_kfold(RunConfig(seed=DEFAULT_SEED, filter_ratio=0.2), default_world, noisy)
    keep_all = run_kfold(RunConfig(seed=DEFAULT_SEED, filter_ratio=1.0), default_world, noisy)
    base = keep_all.base_pass_rate
    assert strict.final_pass_rate >= keep_all.final_pass_rate >= base, (
        strict.final_pass_rate,
        keep_all.final_pass_rate,
        base,
    )
    print(
        "criterion 7 (ratio 0.2 %.3f >= ratio 1.0 %.3f >= base %.3f): PASS"
        % (strict.final_pass_rate, keep_all.final_pass_rate, base)
    )


def test_criterion_8_scorer_sensitivity_self_check():
    candidates = {
        f"task-{i}": make_skill(f"c{i}", tags=("t_x",), body=f"body{i}", origin="evolved", created_epoch=1)
        for i in range(4)
    }
    tasks = {f"task-{i}": Task(id=f"task-{i}", description=f"task {i}") for i in range(4)}

    def scorer(gaps, name):
        table = {}
        for i, gap in enumerate(gaps):
            table[(True, f"body{i}")] = (-8.0 + 4 * gap, 4)
            table[(False, f"body{i}")] = (-8.0, 4)
        return StubLikelihood(table, name=name)

    reference = scorer([0.4, 0.3, 0.2, 0.1], "ref")
    rows = scorer_sensitivity(candidates, tasks, [reference, reference])
    assert rows[1]["mae"] == 0.0
    assert rows[1]["spearman"] == 1.0
    assert rows[1]["top_overlap"] == 1.0

    swapped = scorer([0.4, 0.2, 0.3, 0.1], "swap")
    rows = scorer_sensitivity(candidates, tasks, [reference, swapped])
    assert rows[1]["spearman"] == pytest.approx(0.8, abs=1e-9)
    print("criterion 8 (scorer self-check exact; adjacent swap rho=0.8): PASS")


def test_criterion_9_cli_determinism(tmp_path):
    from skillforge.cli import dispatch

    world_dir = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--out", str(world_dir)]) == 0
    for run in ("run1", "run2"):
        code = dispatch(
            ["evolve", "--mock", "--seed", "7", "--world-dir", str(world_dir), "--out", str(tmp_path / run)]
        )
        assert code == 0
    lib1 = (tmp_path / "run1" / "library.jsonl").read_bytes()
    lib2 = (tmp_path / "run2" / "library.jsonl").read_bytes()
    assert lib1 == lib2
    report1 = strip_wall_clock(json.loads((tmp_path / "run1" / "report.json").read_text()))
    report2 = strip_wall_clock(json.loads((tmp_path / "run2" / "report.json").read_text()))
    assert json.dumps(report1, sort_keys=True) == json.dumps(report2, sort_keys=True)
    print("criterion 9 (evolve --mock --seed 7 twice: byte-identical outputs): PASS")


def test_criterion_10_bm25_fixture():
    library = SkillLibrary(
        skills=(
            make_skill("d1", tags=(), name="", description="", body="table formatting basics"),
            make_skill("d2", tags=(), name="", description="", body="pdf table extraction"),
            make_skill("d3", tags=(), name="", description="", body="video editing guide"),
        )
    )
    index = build_index(library)
    # Uniform document length 3 = avgdl makes the tf factor exactly 1, so each
    # matched term contributes idf = ln(1 + (N - df + 0.5)/(df + 0.5)).
    idf_table = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))
    idf_formatting = math.log(1 + (3 - 1 + 0.5) / (1 + 0.5))
    results = retrieve(index, ["table formatting"], 3)[0]
    assert [doc for doc, _ in results] == ["d1", "d2"]
    assert results[0][1] == pytest.approx(idf_table + idf_formatting, abs=1e-12)
    assert results[1][1] == pytest.approx(idf_table, abs=1e-12)
    # Equal scores fall back to id order.
    tied = retrieve(index, ["table"], 3)[0]
    assert [doc for doc, _ in tied] == ["d1", "d2"]
    assert tied[0][1] == pytest.approx(tied[1][1], abs=1e-12)
    print("criterion 10 (BM25 hand-computed fixture, ties by id): PASS")
