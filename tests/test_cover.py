from __future__ import annotations

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib.machinery import ModuleSpec
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from skillforge import memo
from skillforge.cover import (
    CoverInstance,
    _HIGHS,
    _greedy,
    _highs,
    _result,
    _solve_lp,
    brute_force_select,
    greedy_select,
    lp_round_select,
    primal_dual_select,
    prune_redundant,
    select_sources,
)
from skillforge.errors import ConfigError, InputError, SizeError

from conftest import write_instance

ALL_STRATEGIES = ("greedy", "primal_dual", "lp_round", "brute_force")


def _instance(targets, skills):
    return CoverInstance(
        target_classes=frozenset(targets),
        skill_classes={sid: frozenset(classes) for sid, classes in skills.items()},
    )


# The worked three-skill instance: s3 beats s2 on the irrelevant tie-break.
FIXTURE = _instance(
    ["t1", "t2", "t3"],
    {"s1": ["t1", "t2"], "s2": ["t2", "t3", "u1"], "s3": ["t3"]},
)


def _random_instance(rng, max_skills=12, max_classes=10):
    n_classes = rng.randint(1, max_classes)
    classes = [f"c{i}" for i in range(n_classes)]
    target = frozenset(rng.sample(classes, rng.randint(0, n_classes)))
    skills = {
        f"s{i:02d}": frozenset(rng.sample(classes, rng.randint(0, min(4, n_classes))))
        for i in range(rng.randint(1, max_skills))
    }
    return CoverInstance(target_classes=target, skill_classes=skills)


def test_empty_target_selects_nothing():
    instance = _instance([], {"s1": ["a"]})
    for strategy in ALL_STRATEGIES:
        result = select_sources(instance, strategy)
        assert result.selected == ()
        assert result.covered == frozenset()
        assert result.uncovered == frozenset()
        assert result.irrelevant_count == 0


def test_empty_library_reports_all_targets_uncovered():
    instance = _instance(["t1", "t2"], {})
    for strategy in ALL_STRATEGIES:
        result = select_sources(instance, strategy)
        assert result.selected == ()
        assert result.uncovered == frozenset({"t1", "t2"})


def test_fixture_greedy_matches_hand_trace():
    result = greedy_select(FIXTURE)
    assert result.selected == ("s1", "s3")
    assert result.covered == frozenset({"t1", "t2", "t3"})
    assert result.irrelevant_count == 0


def test_fixture_brute_force_is_optimal():
    result = brute_force_select(FIXTURE)
    assert result.covered == frozenset({"t1", "t2", "t3"})
    assert result.irrelevant_count == 0


def test_fixture_all_strategies_reach_full_coverage():
    oracle = brute_force_select(FIXTURE)
    for strategy in ALL_STRATEGIES:
        result = select_sources(FIXTURE, strategy)
        assert result.covered == oracle.covered
        assert result.irrelevant_count <= 1


def test_fixture_lp_matches_brute_force_when_integral():
    lp = lp_round_select(FIXTURE)
    oracle = brute_force_select(FIXTURE)
    assert lp.covered == oracle.covered
    assert lp.irrelevant_count == oracle.irrelevant_count


def test_single_covering_skill_selected_alone():
    instance = _instance(["t1", "t2"], {"s1": ["t1", "t2"], "s2": ["t1"]})
    assert greedy_select(instance).selected == ("s1",)


def test_identical_skills_pick_first_in_order():
    instance = _instance(["t1"], {"s_a": ["t1"], "s_b": ["t1"]})
    result = greedy_select(instance)
    assert result.selected == ("s_a",)


def test_uncoverable_classes_pass_through_to_uncovered():
    instance = _instance(["t1", "t9"], {"s1": ["t1"]})
    for strategy in ALL_STRATEGIES:
        result = select_sources(instance, strategy)
        assert result.covered == frozenset({"t1"})
        assert result.uncovered == frozenset({"t9"})


def test_unknown_strategy_is_config_error():
    with pytest.raises(ConfigError):
        select_sources(FIXTURE, "annealing")


def test_prune_drops_subsumed_skill():
    instance = _instance(["t1", "t2"], {"s_all": ["t1", "t2"], "s_sub": ["t1"]})
    assert prune_redundant(instance, ["s_all", "s_sub"]) == ("s_all",)


def test_prune_keeps_minimal_selection():
    instance = _instance(["t1", "t2"], {"s1": ["t1"], "s2": ["t2"]})
    assert prune_redundant(instance, ["s1", "s2"]) == ("s1", "s2")


def test_prune_rejects_unknown_skill():
    with pytest.raises(InputError):
        prune_redundant(FIXTURE, ["nope"])


def test_prune_preserves_coverage_on_random_instances():
    rng = random.Random(23)
    for _ in range(200):
        instance = _random_instance(rng)
        ids = list(instance.skill_order)
        selection = rng.sample(ids, rng.randint(0, len(ids)))

        def covered(sel):
            union = set()
            for sid in sel:
                union |= instance.skill_classes[sid]
            return frozenset(union & instance.target_classes)

        def irrelevant(sel):
            union = set()
            for sid in sel:
                union |= instance.skill_classes[sid]
            return len(union - instance.target_classes)

        pruned = prune_redundant(instance, selection)
        assert set(pruned) <= set(selection)
        assert covered(pruned) == covered(selection)
        assert irrelevant(pruned) <= irrelevant(selection)


def test_brute_force_single_skill_library():
    covering = _instance(["t1"], {"s1": ["t1", "u1"]})
    assert brute_force_select(covering).selected == ("s1",)
    useless = _instance(["t1"], {"s1": ["u1"]})
    assert brute_force_select(useless).selected == ()


def test_brute_force_size_cap():
    skills = {f"s{i:02d}": ["t1"] for i in range(21)}
    with pytest.raises(SizeError):
        brute_force_select(_instance(["t1"], skills))


def test_brute_force_tie_breaks_lexicographically():
    instance = _instance(["t1"], {"s_b": ["t1"], "s_a": ["t1"]})
    assert brute_force_select(instance).selected == ("s_a",)


def _assert_lp_round_picks(instance, expected):
    result = lp_round_select(instance)
    assert result.selected == expected
    assert result.covered == instance.coverable
    assert result == _reference_lp_round(instance) == _reference_lp_round(instance, _milp)


def test_lp_round_takes_more_than_500_skills():
    skills = {f"s{i:03d}": ["t1"] for i in range(501)}
    _assert_lp_round_picks(_instance(["t1"], skills), ("s000",))


def test_lp_round_takes_more_than_500_classes():
    wide = {"s1": ["t1"] + [f"u{i:03d}" for i in range(500)]}
    _assert_lp_round_picks(_instance(["t1"], wide), ("s1",))


def test_lp_fractional_optimum_rounds_to_nothing_and_repair_recovers():
    # Three skills all covering the single target class; each pair shares one
    # junk class. The relaxation's unique optimum is x = (1/3, 1/3, 1/3)
    # (verified against an independent solve below), so rounding at 0.5
    # selects nothing and the repair pass must achieve coverage.
    instance = _instance(
        ["e"],
        {
            "s1": ["e", "j12", "j13"],
            "s2": ["e", "j12", "j23"],
            "s3": ["e", "j13", "j23"],
        },
    )

    from scipy.optimize import linprog

    # Independent formulation: minimize z12+z13+z23 subject to coverage and
    # z_jk >= x_i for each skill i containing junk class jk.
    c = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])  # x1 x2 x3 z12 z13 z23
    a_ub = np.array(
        [
            [-1, -1, -1, 0, 0, 0],  # coverage of e
            [1, 0, 0, -1, 0, 0],  # s1 -> j12
            [0, 1, 0, -1, 0, 0],  # s2 -> j12
            [1, 0, 0, 0, -1, 0],  # s1 -> j13
            [0, 0, 1, 0, -1, 0],  # s3 -> j13
            [0, 1, 0, 0, 0, -1],  # s2 -> j23
            [0, 0, 1, 0, 0, -1],  # s3 -> j23
        ]
    )
    b_ub = np.array([-1.0, 0, 0, 0, 0, 0, 0])
    solved = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * 6, method="highs")
    assert solved.status == 0
    assert solved.x[:3] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-6)

    result = lp_round_select(instance)
    assert result.covered == frozenset({"e"})
    assert len(result.selected) == 1


def test_lp_half_integral_cycle_prunes_to_optimum():
    # Odd-cycle instance whose LP optimum is half-integral; rounding keeps all
    # three skills and pruning drops one.
    instance = _instance(
        ["e1", "e2", "e3"],
        {"s1": ["e1", "e2", "j1"], "s2": ["e2", "e3", "j2"], "s3": ["e3", "e1", "j3"]},
    )
    result = lp_round_select(instance)
    oracle = brute_force_select(instance)
    assert result.covered == oracle.covered
    assert len(result.selected) == 2
    assert oracle.irrelevant_count <= result.irrelevant_count


def test_primal_dual_zero_irrelevant_dominant_instance():
    instance = _instance(["t1", "t2"], {"s1": ["t1", "t2"], "s2": ["t1", "u1"]})
    result = primal_dual_select(instance)
    assert result.selected == ("s1",)
    assert result.irrelevant_count == 0


# An instance where the cost-aware strategies beat greedy on irrelevant count:
# greedy grabs the broad-but-noisy s1 (gain 2) and ends with irrelevant {u1,u2};
# pricing irrelevant classes into the cost steers primal-dual and the LP to the
# clean singles {s2,s3,s4}, matching the brute-force optimum of 1 irrelevant.
NOISY_BROAD = _instance(
    ["a", "b", "c"],
    {
        "s1": ["a", "b", "u1", "u2"],
        "s2": ["a"],
        "s3": ["b"],
        "s4": ["c", "u1"],
    },
)


def test_cost_aware_strategies_beat_greedy_on_irrelevant_count():
    greedy = greedy_select(NOISY_BROAD)
    dual = primal_dual_select(NOISY_BROAD)
    lp = lp_round_select(NOISY_BROAD)
    oracle = brute_force_select(NOISY_BROAD)
    assert greedy.selected == ("s1", "s4")
    assert greedy.irrelevant_count == 2
    assert dual.selected == ("s2", "s3", "s4")
    assert dual.irrelevant_count == 1
    assert lp.irrelevant_count == 1
    assert oracle.irrelevant_count == 1
    for result in (greedy, dual, lp, oracle):
        assert result.covered == frozenset({"a", "b", "c"})


def test_determinism_across_repeated_runs():
    rng = random.Random(31)
    for _ in range(20):
        instance = _random_instance(rng)
        for strategy in ALL_STRATEGIES:
            assert select_sources(instance, strategy) == select_sources(instance, strategy)


def test_strategies_match_oracle_coverage_on_random_instances():
    rng = random.Random(47)
    for _ in range(60):
        instance = _random_instance(rng)
        oracle = brute_force_select(instance)
        for strategy in ("greedy", "primal_dual", "lp_round"):
            result = select_sources(instance, strategy)
            assert result.covered == oracle.covered
            assert oracle.irrelevant_count <= result.irrelevant_count
            assert result.uncovered == instance.target_classes - result.covered
            assert not (result.covered & result.uncovered)


def test_greedy_coverage_equals_oracle_on_12_skill_instances():
    rng = random.Random(59)
    for _ in range(20):
        n_classes = 8
        classes = [f"c{i}" for i in range(n_classes)]
        skills = {
            f"s{i:02d}": frozenset(rng.sample(classes, rng.randint(1, 4))) for i in range(12)
        }
        target = frozenset(rng.sample(classes, rng.randint(1, n_classes)))
        instance = CoverInstance(target_classes=target, skill_classes=skills)
        assert greedy_select(instance).covered == brute_force_select(instance).covered


def test_instance_file_round_trip(tmp_path):
    path = tmp_path / "instance.json"
    write_instance(FIXTURE, path)
    loaded = CoverInstance.from_file(path)
    assert loaded.target_classes == FIXTURE.target_classes
    assert loaded.skill_classes == FIXTURE.skill_classes


def _reference_greedy(instance):
    """The stand-alone greedy loop that ``greedy_select`` used to carry."""
    order_index = {sid: i for i, sid in enumerate(instance.skill_order)}
    remaining = set(instance.coverable)
    introduced: set[str] = set()
    selected: list[str] = []
    while remaining:
        best_sid = None
        best_key = None
        for sid in instance.skill_order:
            if sid in selected:
                continue
            classes = instance.skill_classes[sid]
            gain = len(classes & remaining)
            if gain == 0:
                continue
            key = (-gain, len((classes - instance.target_classes) - introduced), order_index[sid])
            if best_key is None or key < best_key:
                best_key, best_sid = key, sid
        if best_sid is None:
            break
        selected.append(best_sid)
        remaining -= instance.skill_classes[best_sid]
        introduced |= instance.skill_classes[best_sid] - instance.target_classes
    return _result(instance, list(prune_redundant(instance, selected)))


def _reference_primal_dual(instance):
    """The stand-alone loop that ``primal_dual_select`` used to carry."""
    order_index = {sid: i for i, sid in enumerate(instance.skill_order)}
    coverable = instance.coverable
    uncovered = set(coverable)
    duals = {e: 0.0 for e in coverable}
    introduced: set[str] = set()
    selected: list[str] = []
    chosen: set[str] = set()
    while uncovered:
        best_sid = None
        best_key = None
        for sid in instance.skill_order:
            if sid in chosen:
                continue
            classes = instance.skill_classes[sid]
            newly = classes & uncovered
            if not newly:
                continue
            cost = 1 + len((classes - instance.target_classes) - introduced)
            paid = sum(duals[e] for e in classes & coverable)
            delta = (cost - paid) / len(newly)
            key = (delta, len((classes - instance.target_classes) - introduced), order_index[sid])
            if best_key is None or key < best_key:
                best_key, best_sid = key, sid
        if best_sid is None:
            break
        step = max(best_key[0], 0.0)
        for e in uncovered:
            duals[e] += step
        chosen.add(best_sid)
        selected.append(best_sid)
        uncovered -= instance.skill_classes[best_sid]
        introduced |= instance.skill_classes[best_sid] - instance.target_classes
    return _result(instance, list(prune_redundant(instance, selected)))


def _linprog(cost, a_ub, b_ub):
    return scipy.optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")


def _milp(cost, a_ub, b_ub):
    return scipy.optimize.milp(cost, constraints=(a_ub, -np.inf, b_ub), bounds=scipy.optimize.Bounds(0.0, 1.0))


def _reference_lp_round(instance, solve=_linprog):
    """The dense-row LP build that ``lp_round_select`` used to carry, solved
    through one of scipy's public entries to HiGHS (``_linprog`` or
    ``_milp``), so a match checks the binding-level solve against it."""
    n_skills = len(instance.skill_order)
    all_classes = set().union(*instance.skill_classes.values())
    coverable = sorted(instance.coverable)
    irrelevant = sorted(all_classes - instance.target_classes)
    selected = []
    if coverable and n_skills:
        sid_index = {sid: i for i, sid in enumerate(instance.skill_order)}
        irr_index = {c: n_skills + j for j, c in enumerate(irrelevant)}
        n_vars = n_skills + len(irrelevant)
        cost = np.zeros(n_vars)
        cost[n_skills:] = 1.0
        rows, rhs = [], []
        for cls in coverable:
            row = np.zeros(n_vars)
            for sid in instance.skill_order:
                if cls in instance.skill_classes[sid]:
                    row[sid_index[sid]] = -1.0
            rows.append(row)
            rhs.append(-1.0)
        for sid in instance.skill_order:
            for cls in instance.skill_classes[sid] - instance.target_classes:
                row = np.zeros(n_vars)
                row[sid_index[sid]] = 1.0
                row[irr_index[cls]] = -1.0
                rows.append(row)
                rhs.append(0.0)
        outcome = solve(cost, np.array(rows), np.array(rhs))
        if outcome.status == 0:
            selected = [sid for sid in instance.skill_order if outcome.x[sid_index[sid]] >= 0.5]
    return _greedy(instance, selected)


def _renamed(instance):
    """The same numeric LP model under other skill ids and class names: the
    prefixes keep every sort order, so only the names change."""
    return CoverInstance(
        target_classes=frozenset("k" + c for c in instance.target_classes),
        skill_classes={
            "r" + sid: frozenset("k" + c for c in classes)
            for sid, classes in instance.skill_classes.items()
        },
    )


# Skill ids of mixed prefixes and widths, so that the order in which an
# instance lists its skills, their id order and their class sets vary apart.
_SKILL_IDS = ("a", "b7", "s1", "s10", "s02", "S3", "x", "k07", "k7", "zz", "m0", "B")


@st.composite
def _instances(draw):
    classes = [f"c{i}" for i in range(draw(st.integers(1, 8)))]
    subsets = st.sets(st.sampled_from(classes), max_size=4)
    ids = draw(st.lists(st.sampled_from(_SKILL_IDS), unique=True, max_size=8))
    return CoverInstance(
        target_classes=frozenset(draw(st.sets(st.sampled_from(classes)))),
        skill_classes={sid: draw(subsets) for sid in ids},
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(instance=_instances())
def test_greedy_matches_the_stand_alone_loop(instance):
    assert greedy_select(instance) == _reference_greedy(instance)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(instance=_instances())
def test_primal_dual_matches_the_stand_alone_loop(instance):
    assert primal_dual_select(instance) == _reference_primal_dual(instance)


def test_primal_dual_never_lowers_a_dual():
    # A step's best price goes negative here; raising the duals by it instead
    # of by 0 would select s0 and s5.
    instance = _instance(
        ["c2", "c4", "c6", "c7"],
        {
            "s0": ["c1", "c2", "c3", "c4", "c6"],
            "s1": ["c0", "c1", "c3"],
            "s2": ["c6"],
            "s3": ["c3", "c4", "c6"],
            "s4": ["c0", "c2", "c4", "c5"],
            "s5": ["c0", "c7"],
            "s6": ["c0", "c1", "c2", "c3", "c7"],
        },
    )
    assert primal_dual_select(instance).selected == ("s3", "s6")
    assert primal_dual_select(instance) == _reference_primal_dual(instance)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(instances=st.lists(_instances(), min_size=1, max_size=4))
def test_lp_memo_returns_what_a_fresh_solve_returns(instances):
    batch = [variant for instance in instances for variant in (instance, _renamed(instance), instance)]
    fresh = [lp_round_select(instance) for instance in batch]
    assert fresh == [_reference_lp_round(instance) for instance in batch]
    with memo.scope():
        memoized = [lp_round_select(instance) for instance in batch]
    assert memoized == fresh


# Mixed prefixes and widths again, enough for the workload's largest models.
_WIDE_IDS = tuple(f"{p}{i}" for p in ("s", "k0", "B") for i in range(12))


@st.composite
def _workload_sized_instances(draw):
    """Instances as large as kfold-lp-threaded's: 8-27 skills, 1-5 coverable
    target classes (plus up to 2 no skill has), and 0-4 irrelevant classes per
    skill from a pool of 10."""
    ids = draw(st.lists(st.sampled_from(_WIDE_IDS), min_size=8, max_size=27, unique=True))
    # Four draws from 0-13 per skill, of which those under 10 name a class:
    # quicker to draw than a set per skill.
    picks = st.lists(st.integers(0, 13), min_size=4, max_size=4)
    classes = {sid: {f"u{j}" for j in draw(picks) if j < 10} for sid in ids}
    coverable = [f"t{i}" for i in range(draw(st.integers(1, 5)))]
    for target in coverable:
        for sid in draw(st.sets(st.sampled_from(ids), min_size=1, max_size=6)):
            classes[sid].add(target)
    missing = [f"v{i}" for i in range(draw(st.integers(0, 2)))]
    return _instance(coverable + missing, classes)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(instance=_workload_sized_instances())
def test_lp_round_matches_the_linprog_reference_on_workload_sized_models(instance):
    expected = _reference_lp_round(instance)
    assert _reference_lp_round(instance, _milp) == expected
    assert lp_round_select(instance) == expected
    with memo.scope():
        assert [lp_round_select(instance) for _ in range(2)] == [expected] * 2


def test_lp_memo_shares_one_solve_between_renamed_models(lp_solves):
    renamed = _renamed(FIXTURE)
    with memo.scope():
        first = lp_round_select(FIXTURE)
        second = lp_round_select(renamed)
        assert lp_round_select(FIXTURE) == first
    assert len(lp_solves) == 1
    assert second.selected == tuple("r" + sid for sid in first.selected)
    assert second == lp_round_select(renamed)
    assert len(lp_solves) == 2


def test_nothing_is_memoized_outside_lp_memo(lp_solves):
    lp_round_select(FIXTURE)
    lp_round_select(FIXTURE)
    with memo.scope():
        with memo.scope():
            lp_round_select(FIXTURE)
        lp_round_select(FIXTURE)  # the inner scope's tables ended with it
    lp_round_select(FIXTURE)
    assert len(lp_solves) == 5


@pytest.fixture
def no_simplex_iterations(monkeypatch):
    """Solve with presolve off and a simplex iteration limit of 0, so HiGHS
    stops at ``kIterationLimit`` before any optimum. Returns the model status
    of each solve."""
    from scipy.optimize._highspy import _core

    statuses = []
    options = _core.HighsOptions

    def capped():
        capped_options = options()
        capped_options.presolve = "off"
        capped_options.simplex_iteration_limit = 0
        return capped_options

    class Recorded(_core._Highs):
        def run(self):
            status = super().run()
            statuses.append(self.getModelStatus())
            return status

    monkeypatch.setattr(_core, "HighsOptions", capped)
    monkeypatch.setattr(_core, "_Highs", Recorded)
    return statuses


def test_memoized_failed_solve_still_falls_through_to_repair(no_simplex_iterations):
    from scipy.optimize._highspy import _core

    with memo.scope():
        results = [lp_round_select(NOISY_BROAD) for _ in range(2)]
    assert no_simplex_iterations == [_core.HighsModelStatus.kIterationLimit]
    assert results == [greedy_select(NOISY_BROAD)] * 2


def test_a_solve_without_an_optimum_picks_nothing_and_greedy_covers(no_simplex_iterations):
    from scipy.optimize._highspy import _core

    # FIXTURE's model: s1, s2, s3 and u1 in columns 0-3; t1, t2, t3 in rows
    # 0-2 and s2's link to u1 in row 3. Its optimum picks s1 and s3.
    entries = ((0, 0, -1.0), (1, 0, -1.0), (1, 1, -1.0), (2, 1, -1.0), (2, 2, -1.0), (3, 1, 1.0), (3, 3, -1.0))
    assert _solve_lp(3, 4, 3, entries) == ()
    rng = random.Random(29)
    instances = [FIXTURE, NOISY_BROAD] + [_random_instance(rng) for _ in range(40)]
    for instance in instances:
        result = lp_round_select(instance)
        assert result.covered == instance.coverable
        assert result == greedy_select(instance)
    # One solve above, then one per instance with a coverable class.
    assert len(no_simplex_iterations) == 1 + sum(bool(instance.coverable) for instance in instances)
    assert _core.HighsModelStatus.kOptimal not in no_simplex_iterations


SRC = Path(__file__).resolve().parents[1] / "src"


def _in_a_fresh_interpreter(script):
    """Run ``script`` in a new interpreter that imports ``skillforge`` from
    this checkout; return what it prints last, read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _as_source(instance):
    return f"CoverInstance({sorted(instance.target_classes)!r}, {instance.skill_classes!r})"


def test_the_binding_loads_by_itself_and_a_named_import_gets_the_same_module():
    script = f"""
import json, sys
from skillforge.cover import CoverInstance, _highs, lp_round_select
picks = list(lp_round_select({_as_source(FIXTURE)}).selected)
loaded, alone = _highs(), "scipy.optimize" not in sys.modules
from scipy.optimize._highspy import _core
print(json.dumps([alone, _core is loaded, picks]))
"""
    expected = list(_reference_lp_round(FIXTURE, _milp).selected)
    assert _in_a_fresh_interpreter(script) == [True, True, expected]


def test_first_solves_racing_in_threads_equal_the_serial_ones():
    rng = random.Random(32)
    instances = [FIXTURE, NOISY_BROAD] + [_random_instance(rng) for _ in range(6)]
    # A tiny switch interval makes the threads trade the interpreter lock
    # often during the binding's first load.
    script = f"""
import json, sys, threading
from skillforge.cover import CoverInstance, lp_round_select
sys.setswitchinterval(1e-6)
instances = [{", ".join(map(_as_source, instances))}]
start = threading.Barrier(4)
picks = [None] * 4
def solve(i):
    start.wait()
    picks[i] = [list(lp_round_select(instance).selected) for instance in instances]
threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
    assert not thread.is_alive()
print(json.dumps(picks))
"""
    serial = [list(lp_round_select(instance).selected) for instance in instances]
    assert _in_a_fresh_interpreter(script) == [serial] * 4


def test_racing_first_calls_load_the_binding_once(monkeypatch):
    _highs()
    monkeypatch.delitem(sys.modules, _HIGHS)
    loads = []
    module_from_spec = importlib.util.module_from_spec

    def slow_load(spec):
        loads.append(spec.name)
        time.sleep(0.05)  # holds the load open while the other threads arrive
        return module_from_spec(spec)

    monkeypatch.setattr(importlib.util, "module_from_spec", slow_load)
    with ThreadPoolExecutor(4) as pool:
        modules = list(pool.map(lambda _: _highs(), range(4)))
    assert loads == [_HIGHS]
    assert all(module is sys.modules[_HIGHS] for module in modules)


def test_a_missing_binding_file_raises_import_error_naming_the_directory(tmp_path, monkeypatch):
    searched = tmp_path / "optimize" / "_highspy"
    searched.mkdir(parents=True)
    (searched / "__init__.py").write_text("", encoding="utf-8")
    _highs()
    monkeypatch.delitem(sys.modules, _HIGHS)
    scipy = ModuleSpec("scipy", None, origin=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=re.escape(str(searched))):
        _highs()
