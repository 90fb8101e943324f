"""Source-skill selection as a bi-criteria set-cover problem.

The objective is lexicographic: first cover as many target tag classes as
possible, then among maximum-coverage selections introduce as few irrelevant
classes as possible. Every strategy runs to coverage exhaustion, so the
covered set always equals the coverable subset of the target (classes some
library skill can provide); the remaining target classes are reported as
uncovered and flow into candidate generation.

Greedy, primal-dual and the completion of LP rounding share one step routine,
which adds the best-ranked skill covering something new, ties broken by id:

* ``greedy``      - largest marginal coverage, ties broken by fewer newly
                    introduced irrelevant classes.
* ``primal_dual`` - dual variables on uncovered target classes are raised
                    uniformly until some skill's dual sum reaches its cost
                    (1 + newly introduced irrelevant classes; the +1 floor
                    keeps zero-irrelevant skills comparable).
* ``lp_round``    - fractional relaxation minimizing the number of introduced
                    irrelevant classes subject to coverage, solved by HiGHS
                    through scipy's bundled ``highspy`` binding (the layer
                    under ``milp``, loaded from its file without importing
                    ``scipy.optimize``), rounded at 0.5, then completed by
                    the greedy step; the sparse model takes any size.
* ``brute_force`` - exhaustive oracle over all subsets (at most 20 skills,
                    past which it raises ``SizeError``).

Inside a ``memo.scope()`` (one per ``harness._protocol`` call, which
``run_kfold`` and ``evolve_library`` both make, across all its run seeds)
each distinct numeric LP model is solved once, kept in the ``"lp"`` table.
The key is the whole model and the value the rounded skill columns in
sorted-id order, so instances differing only in names that keep their sort
order share a solve and, HiGHS being deterministic, a hit returns what a
fresh solve would.

All strategies finish with a redundancy prune that drops, scanning in reverse
order of addition, any skill whose removal leaves the covered target classes
unchanged.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from operator import itemgetter
from pathlib import Path

from skillforge import memo
from skillforge.errors import ConfigError, InputError, SizeError
from skillforge.model import _field, _read_json

BRUTE_FORCE_CAP = 20
_HIGHS = "scipy.optimize._highspy._core"
_HIGHS_LOAD = threading.Lock()


@dataclass(frozen=True)
class CoverInstance:
    """Canonicalized selection instance: target classes and per-skill classes.
    ``skill_order`` is the sorted skill ids, the order every tie is broken in."""

    target_classes: frozenset[str]
    skill_classes: dict[str, frozenset[str]]
    skill_order: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        skill_classes = {sid: frozenset(classes) for sid, classes in self.skill_classes.items()}
        object.__setattr__(self, "skill_classes", skill_classes)
        object.__setattr__(self, "target_classes", frozenset(self.target_classes))
        object.__setattr__(self, "skill_order", tuple(sorted(self.skill_classes)))

    @property
    def coverable(self) -> frozenset[str]:
        return self.target_classes & _union(self.skill_classes.values())

    def with_targets(self, target_classes: Iterable[str]) -> CoverInstance:
        """These skills against other target classes, built without
        ``__post_init__``: the new instance shares this one's ``skill_classes``
        and ``skill_order`` instead of freezing and sorting them again, which
        is safe since nothing mutates them. Setting each field, as
        ``__init__`` does, keeps attribute reads as fast as on a built one."""
        instance = object.__new__(type(self))
        object.__setattr__(instance, "target_classes", frozenset(target_classes))
        object.__setattr__(instance, "skill_classes", self.skill_classes)
        object.__setattr__(instance, "skill_order", self.skill_order)
        return instance

    @classmethod
    def from_file(cls, path: str | Path) -> CoverInstance:
        """Raises ``ParseError`` naming the file and a missing or mistyped field."""

        def parse(raw: dict) -> CoverInstance:
            skills = _field(raw, "skills", dict, items=list)
            return cls(
                target_classes=frozenset(_field(raw, "targets", list)),
                skill_classes={sid: frozenset(_field(skills, sid, list)) for sid in skills},
            )

        return _read_json(path, "instance", parse)


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


def _most_coverage(classes: frozenset[str], newly: frozenset[str], irrelevant: int) -> tuple[int, int]:
    return -len(newly), irrelevant


def _greedy(instance: CoverInstance, selected: list[str], key=_most_coverage, picked=None) -> SelectionResult:
    """Add skills to ``selected`` until every coverable target class is covered,
    then prune. Each step takes the unchosen skill covering something new with
    the lowest ``key(classes, newly, newly introduced irrelevant count)``, the
    first in id order on a tie, and calls ``picked(best_key, uncovered)`` first."""
    chosen = set(selected)
    union = _union(instance.skill_classes[sid] for sid in selected)
    uncovered = set(instance.coverable) - union
    introduced = union - instance.target_classes
    selected = list(selected)
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
            rank = key(classes, newly, len((classes - instance.target_classes) - introduced))
            if best_key is None or rank < best_key:
                best_key, best_sid = rank, sid
        if picked is not None:
            picked(best_key, uncovered)
        chosen.add(best_sid)
        selected.append(best_sid)
        uncovered -= instance.skill_classes[best_sid]
        introduced |= instance.skill_classes[best_sid] - instance.target_classes
    return _result(instance, list(prune_redundant(instance, selected)))


def greedy_select(instance: CoverInstance) -> SelectionResult:
    return _greedy(instance, [])


def primal_dual_select(instance: CoverInstance) -> SelectionResult:
    coverable = instance.coverable
    duals = {e: 0.0 for e in coverable}

    def price(classes: frozenset[str], newly: frozenset[str], irrelevant: int) -> tuple[float, int]:
        paid = sum(duals[e] for e in classes & coverable)
        return ((1 + irrelevant) - paid) / len(newly), irrelevant

    def raise_duals(key: tuple[float, int], uncovered: set[str]) -> None:
        step = max(key[0], 0.0)
        for e in uncovered:
            duals[e] += step

    return _greedy(instance, [], price, raise_duals)


def lp_round_select(instance: CoverInstance) -> SelectionResult:
    n_skills = len(instance.skill_order)
    coverable = sorted(instance.coverable)
    irrelevant = sorted(_union(instance.skill_classes.values()) - instance.target_classes)
    selected: list[str] = []

    if coverable:
        irr_index = {c: n_skills + j for j, c in enumerate(irrelevant)}

        # Nonzero constraint entries (row, column, value) of A_ub x <= b_ub.
        entries: list[tuple[int, int, float]] = []
        # Coverage: each coverable target class needs fractional selection >= 1.
        for row, cls in enumerate(coverable):
            for col, sid in enumerate(instance.skill_order):
                if cls in instance.skill_classes[sid]:
                    entries.append((row, col, -1.0))
        # Linking: selecting a skill forces its irrelevant classes on.
        row = len(coverable)
        for col, sid in enumerate(instance.skill_order):
            for cls in instance.skill_classes[sid] - instance.target_classes:
                entries.append((row, col, 1.0))
                entries.append((row, irr_index[cls], -1.0))
                row += 1

        model = (n_skills, n_skills + len(irrelevant), len(coverable), tuple(entries))
        picks = memo.cached(memo.table("lp"), model, lambda lp_model: _solve_lp(*lp_model))
        selected = [instance.skill_order[i] for i in picks]
        # A failed solve picks nothing and falls through to the greedy steps,
        # which still guarantee maximum coverage.

    return _greedy(instance, selected)


def _solve_lp(
    n_skills: int, n_vars: int, n_cover: int, entries: tuple[tuple[int, int, float], ...]
) -> tuple[int, ...]:
    """Solve the relaxation minimizing introduced irrelevant classes and return
    the skill columns at or above 0.5, or ``()`` unless HiGHS reports an
    optimum. The model goes straight to HiGHS through scipy's bundled
    ``highspy`` binding (from ``_highs``, so ``scipy.optimize`` is never
    imported), the layer under ``milp``: the same column-wise matrix, bounds
    and options ``milp`` would hand it, without its per-call validation,
    dense-to-sparse conversion, option checks and dual read-out. Each solve
    gets a fresh solver object, so no solver state passes between solves."""
    highs = _highs()

    n_rows = entries[-1][0] + 1  # entries come in row order
    by_column = sorted(entries, key=itemgetter(1))  # stable: rows stay ascending
    columns = [col for _, col, _ in by_column]
    lp = highs.HighsLp()
    lp.num_col_ = n_vars
    lp.num_row_ = n_rows
    lp.col_cost_ = [0.0] * n_skills + [1.0] * (n_vars - n_skills)
    lp.col_lower_ = [0.0] * n_vars
    lp.col_upper_ = [1.0] * n_vars
    lp.row_lower_ = [-highs.kHighsInf] * n_rows
    lp.row_upper_ = [-1.0] * n_cover + [0.0] * (n_rows - n_cover)
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_ = n_vars
    matrix.num_row_ = n_rows
    matrix.start_ = [bisect_left(columns, col) for col in range(n_vars + 1)]
    matrix.index_ = [row for row, _, _ in by_column]
    matrix.value_ = [value for _, _, value in by_column]
    options = highs.HighsOptions()
    options.log_to_console = False
    solver = highs._Highs()
    failed = highs.HighsStatus.kError
    if (
        solver.passOptions(options) == failed
        or solver.passModel(lp) == failed
        or solver.run() == failed
        or solver.getModelStatus() != highs.HighsModelStatus.kOptimal
    ):
        return ()
    x = solver.getSolution().col_value
    return tuple(i for i in range(n_skills) if x[i] >= 0.5)


def _highs():
    """scipy's bundled HiGHS binding, loaded from its file on the first call
    and registered under its own name, so a named import gets this module and
    ``scipy.optimize``'s ``__init__`` never runs. The lock keeps racing first
    calls from getting a module another thread's load has not filled yet."""
    with _HIGHS_LOAD:
        if _HIGHS not in sys.modules:
            directory = Path(importlib.util.find_spec("scipy").origin).parent / "optimize" / "_highspy"
            spec = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_HIGHS)
            if spec is None:
                raise ImportError(f"no {_HIGHS} extension in {directory}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_HIGHS] = module
        return sys.modules[_HIGHS]


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

    best_cov = best_irr = best_size = 0
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
        subset_ids = tuple(ids[i] for i in range(n) if subset >> i & 1)
        if (cov, -irr, -size) == (best_cov, -best_irr, -best_size) and subset_ids >= best_ids:
            continue
        best_cov, best_irr, best_size, best_ids = cov, irr, size, subset_ids
    return _result(instance, list(best_ids))


_SELECTORS = {
    "greedy": greedy_select,
    "primal_dual": primal_dual_select,
    "lp_round": lp_round_select,
    "brute_force": brute_force_select,
}
STRATEGIES = tuple(_SELECTORS)


def select_sources(instance: CoverInstance, strategy: str = "greedy") -> SelectionResult:
    select = _SELECTORS.get(strategy)
    if select is None:
        raise ConfigError(f"unknown selection strategy {strategy!r}; expected one of {STRATEGIES}")
    return select(instance)
