"""Source-skill selection as a bi-criteria set-cover problem.

The objective is lexicographic: first cover as many target tag classes as
possible, then among maximum-coverage selections introduce as few irrelevant
classes as possible. Every strategy runs to coverage exhaustion, so the
covered set always equals the coverable subset of the target (classes some
library skill can provide); the remaining target classes are reported as
uncovered and flow into candidate generation.

Strategies:

* ``greedy``      - largest marginal coverage, ties broken by fewer newly
                    introduced irrelevant classes, then by skill order.
* ``primal_dual`` - dual variables on uncovered target classes are raised
                    uniformly until some skill's dual sum reaches its cost
                    (1 + newly introduced irrelevant classes; the +1 floor
                    keeps zero-irrelevant skills comparable).
* ``lp_round``    - fractional relaxation minimizing the number of introduced
                    irrelevant classes subject to coverage, rounded at 0.5,
                    then completed by the greedy routine.
* ``brute_force`` - exhaustive oracle over all subsets (at most 20 skills).

Inside an ``lp_memo()`` block (one per run seed or evolve call) each distinct
numeric LP model is solved once. The key is the whole model and the value the
rounded skill columns, mapped back through each instance's ``skill_order``, so
instances differing only in names share a solve and, HiGHS being
deterministic, a hit returns what a fresh solve would.

All strategies finish with a redundancy prune that drops, scanning in reverse
order of addition, any skill whose removal leaves the covered target classes
unchanged.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skillforge.errors import ConfigError, InputError, SizeError

STRATEGIES = ("greedy", "primal_dual", "lp_round", "brute_force")

LP_SIZE_CAP = 500
BRUTE_FORCE_CAP = 20

# LP model -> picked skill columns, for the innermost active ``lp_memo()``.
_LP_MEMO: ContextVar[dict[tuple, tuple[int, ...]] | None] = ContextVar("lp_memo", default=None)


@dataclass(frozen=True)
class CoverInstance:
    """Canonicalized selection instance: target classes and per-skill classes."""

    target_classes: frozenset[str]
    skill_classes: dict[str, frozenset[str]]
    skill_order: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        order = self.skill_order or tuple(sorted(self.skill_classes))
        if sorted(order) != sorted(self.skill_classes):
            raise InputError("skill_order must be a permutation of the skill ids")
        object.__setattr__(self, "skill_order", order)
        object.__setattr__(
            self,
            "skill_classes",
            {sid: frozenset(classes) for sid, classes in self.skill_classes.items()},
        )
        object.__setattr__(self, "target_classes", frozenset(self.target_classes))

    @property
    def coverable(self) -> frozenset[str]:
        return self.target_classes & _union(self.skill_classes.values())

    @classmethod
    def from_file(cls, path: str | Path) -> CoverInstance:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            target_classes=frozenset(raw["targets"]),
            skill_classes={sid: frozenset(classes) for sid, classes in raw["skills"].items()},
        )


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[str, ...]
    covered: frozenset[str]
    uncovered: frozenset[str]
    irrelevant_count: int


def _union(class_sets: Iterable[frozenset[str]]) -> frozenset[str]:
    """Union of skill class sets, e.g. of a selection or a whole library."""
    return frozenset().union(*class_sets)


def _result(instance: CoverInstance, selected: list[str]) -> SelectionResult:
    union = _union(instance.skill_classes[sid] for sid in selected)
    covered = union & instance.target_classes
    return SelectionResult(
        selected=tuple(selected),
        covered=covered,
        uncovered=frozenset(instance.target_classes - covered),
        irrelevant_count=len(union - instance.target_classes),
    )


def prune_redundant(instance: CoverInstance, selection: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    """Drop skills (latest additions first) whose removal keeps coverage intact."""
    for sid in selection:
        if sid not in instance.skill_classes:
            raise InputError(f"selection references unknown skill {sid!r}")
    kept = list(selection)

    def covered(ids: list[str]) -> frozenset[str]:
        return _union(instance.skill_classes[sid] for sid in ids) & instance.target_classes

    for sid in list(reversed(kept)):
        trial = [s for s in kept if s != sid]
        if covered(trial) == covered(kept):
            kept = trial
    return tuple(kept)


def greedy_select(instance: CoverInstance) -> SelectionResult:
    return _result(instance, list(prune_redundant(instance, _greedy_repair(instance, []))))


def primal_dual_select(instance: CoverInstance) -> SelectionResult:
    order_index = {sid: i for i, sid in enumerate(instance.skill_order)}
    coverable = instance.coverable
    uncovered = set(coverable)
    duals = {e: 0.0 for e in coverable}
    introduced: set[str] = set()
    selected: list[str] = []
    chosen: set[str] = set()
    while uncovered:
        best_sid = None
        best_key: tuple[float, int, int] | None = None
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
                best_key = key
                best_sid = sid
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


def lp_round_select(instance: CoverInstance) -> SelectionResult:
    n_skills = len(instance.skill_order)
    all_classes = _union(instance.skill_classes.values())
    if n_skills > LP_SIZE_CAP or len(all_classes | instance.target_classes) > LP_SIZE_CAP:
        raise SizeError(
            f"instance exceeds the LP cap of {LP_SIZE_CAP} skills/classes; use the greedy strategy"
        )

    coverable = sorted(instance.coverable)
    irrelevant = sorted(all_classes - instance.target_classes)
    selected: list[str] = []

    if coverable and n_skills:
        sid_index = {sid: i for i, sid in enumerate(instance.skill_order)}
        irr_index = {c: n_skills + j for j, c in enumerate(irrelevant)}

        # Nonzero constraint entries (row, column, value) of A_ub x <= b_ub.
        entries: list[tuple[int, int, float]] = []
        # Coverage: each coverable target class needs fractional selection >= 1.
        for row, cls in enumerate(coverable):
            for sid in instance.skill_order:
                if cls in instance.skill_classes[sid]:
                    entries.append((row, sid_index[sid], -1.0))
        # Linking: selecting a skill forces its irrelevant classes on.
        row = len(coverable)
        for sid in instance.skill_order:
            for cls in instance.skill_classes[sid] - instance.target_classes:
                entries.append((row, sid_index[sid], 1.0))
                entries.append((row, irr_index[cls], -1.0))
                row += 1

        model = (n_skills, n_skills + len(irrelevant), len(coverable), tuple(entries))
        memo = _LP_MEMO.get()
        picks = memo.get(model) if memo is not None else None
        if picks is None:
            picks = _solve_lp(*model)
            if memo is not None:
                memo[model] = picks
        selected = [instance.skill_order[i] for i in picks]
        # A failed solve picks nothing and falls through to the repair pass,
        # which still guarantees maximum coverage.

    selected = _greedy_repair(instance, selected)
    return _result(instance, list(prune_redundant(instance, selected)))


@contextmanager
def lp_memo() -> Iterator[None]:
    """Share ``lp_round_select`` solves between identical LP models inside the block.

    The key is the whole numeric model, so a hit returns what a fresh solve
    would. Outside any block every call solves afresh.
    """
    token = _LP_MEMO.set({})
    try:
        yield
    finally:
        _LP_MEMO.reset(token)


def _solve_lp(
    n_skills: int, n_vars: int, n_cover: int, entries: tuple[tuple[int, int, float], ...]
) -> tuple[int, ...]:
    """Solve the relaxation minimizing introduced irrelevant classes and return
    the skill columns at or above 0.5, or ``()`` if the solve fails."""
    from scipy.optimize import linprog

    n_rows = entries[-1][0] + 1  # entries come in row order
    a_ub = np.zeros((n_rows, n_vars))
    rows, cols, values = zip(*entries)
    a_ub[rows, cols] = values
    cost = np.zeros(n_vars)
    cost[n_skills:] = 1.0
    b_ub = np.zeros(n_rows)
    b_ub[:n_cover] = -1.0
    outcome = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * n_vars, method="highs"
    )
    if outcome.status != 0:
        return ()
    return tuple(i for i in range(n_skills) if outcome.x[i] >= 0.5)


def _greedy_repair(instance: CoverInstance, selected: list[str]) -> list[str]:
    """Extend a partial selection until all coverable target classes are covered."""
    order_index = {sid: i for i, sid in enumerate(instance.skill_order)}
    chosen = set(selected)
    union = _union(instance.skill_classes[sid] for sid in selected)
    remaining = set(instance.coverable) - union
    introduced = union - instance.target_classes
    result = list(selected)
    while remaining:
        best_sid = None
        best_key: tuple[int, int, int] | None = None
        for sid in instance.skill_order:
            if sid in chosen:
                continue
            classes = instance.skill_classes[sid]
            gain = len(classes & remaining)
            if gain == 0:
                continue
            key = (-gain, len((classes - instance.target_classes) - introduced), order_index[sid])
            if best_key is None or key < best_key:
                best_key = key
                best_sid = sid
        if best_sid is None:
            break
        chosen.add(best_sid)
        result.append(best_sid)
        remaining -= instance.skill_classes[best_sid]
        introduced |= instance.skill_classes[best_sid] - instance.target_classes
    return result


def brute_force_select(instance: CoverInstance) -> SelectionResult:
    """Exhaustive oracle: maximum coverage, then minimum irrelevant classes,
    then fewest skills, then lexicographically smallest id tuple."""
    ids = instance.skill_order
    n = len(ids)
    if n > BRUTE_FORCE_CAP:
        raise SizeError(f"brute force is capped at {BRUTE_FORCE_CAP} skills, got {n}")

    class_ids = sorted(instance.target_classes | _union(instance.skill_classes.values()))
    bit = {c: i for i, c in enumerate(class_ids)}
    target_mask = 0
    for c in instance.target_classes:
        target_mask |= 1 << bit[c]
    skill_masks = []
    for sid in ids:
        mask = 0
        for c in instance.skill_classes[sid]:
            mask |= 1 << bit[c]
        skill_masks.append(mask)

    union_masks = [0] * (1 << n)
    for subset in range(1, 1 << n):
        low = subset & -subset
        union_masks[subset] = union_masks[subset ^ low] | skill_masks[low.bit_length() - 1]

    best_subset = 0
    best_cov = 0
    best_irr = 0
    best_size = 0
    best_ids: tuple[str, ...] = ()
    for subset in range(1 << n):
        mask = union_masks[subset]
        cov = (mask & target_mask).bit_count()
        irr = (mask & ~target_mask).bit_count()
        size = subset.bit_count()
        if subset and cov == 0:
            continue
        if (cov, -irr, -size) < (best_cov, -best_irr, -best_size):
            continue
        subset_ids = tuple(sorted(ids[i] for i in range(n) if subset >> i & 1))
        if (cov, -irr, -size) == (best_cov, -best_irr, -best_size) and subset_ids >= best_ids:
            continue
        best_subset, best_cov, best_irr, best_size, best_ids = subset, cov, irr, size, subset_ids

    order = [ids[i] for i in range(n) if best_subset >> i & 1]
    return _result(instance, order)


def select_sources(instance: CoverInstance, strategy: str = "greedy") -> SelectionResult:
    if strategy == "greedy":
        return greedy_select(instance)
    if strategy == "primal_dual":
        return primal_dual_select(instance)
    if strategy == "lp_round":
        return lp_round_select(instance)
    if strategy == "brute_force":
        return brute_force_select(instance)
    raise ConfigError(f"unknown selection strategy {strategy!r}; expected one of {STRATEGIES}")
