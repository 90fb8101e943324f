"""End-to-end orchestration: epoch loop, k-fold protocol, sweeps, reports.

One evolution epoch evaluates every training task against the current
library, which yields one outcome per task: ``None`` for a pass and a
``FailurePair`` for a failure, so no record is built for a passing task. It
then infers the failures' required tags, selects covering source skills,
generates and scores candidate skills, and folds the retained top fraction
back into the library. One cell loop (``_evolve_cell``) runs the epochs of
every entry point, and one protocol body (``_protocol``) runs it per fold
and run seed, evolving on all folds but one and measuring pass rate on the
held-out fold. ``run_kfold`` is that protocol; ``evolve_library`` is its
one-fold, one-run case, a single cell on every task with nothing held out,
the leaky protocol that ``folds=1`` also gets. Epoch 0 is always evaluated
first so the no-evolution baseline anchors each report. One ``memo.scope()``
serves each ``_protocol`` call (each ``run_kfold`` or ``evolve_library``
call), and each run seed sends its provider calls through one ``_Session``,
which memoizes accepted temperature-0 chat replies (as the values their
consumers parsed), likelihood scores and embeddings and counts the tokens of
every reply and score it serves; each epoch reports the growth of that
count. A fault in embedding one batch of target or candidate tags drops only
the pairs or candidates whose own tags fail.

Wall-clock numbers come from an injectable monotonic clock and are excluded
from determinism comparisons (see ``strip_wall_clock``).
"""

from __future__ import annotations

import json
import logging
import random
import statistics
import threading
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass, fields, replace
from functools import reduce
from operator import or_
from pathlib import Path

import numpy as np

from skillforge import memo
from skillforge._parallel import DEFAULT_MAX_WORKERS, parallel_map
from skillforge.cover import STRATEGIES
from skillforge.errors import PAIR_FAULTS, ConfigError, InputError, ParseError
from skillforge.evolve import generate_candidates
from skillforge.model import FailurePair, Skill, SkillLibrary, Task, Trajectory, _field, write_csv, write_text_atomic
from skillforge.providers.base import (
    ChatProvider,
    ChatRequest,
    ChatResponse,
    EmbeddingProvider,
    LikelihoodProvider,
    LikelihoodResult,
    validate_embed_inputs,
)
from skillforge.providers.mock import MockChatProvider, MockEmbedder, MockLikelihoodScorer
from skillforge.retrieval import QueryBatch, Rankings, build_index, distinct_rows, retrieve
from skillforge.scoring import (
    DEFAULT_FILTER_RATIO,
    alignment_score,
    filter_and_update,
    retention_count,
    score_candidate,
)
from skillforge.tags import EquivalenceIndex, TagSet, generate_target_tags
from skillforge.world import SyntheticWorld, WorldConfig, generate_transfer_worlds, generate_world

logger = logging.getLogger(__name__)

REPORT_VERSION = 1

EPOCH_SWEEP_VALUES = (0, 1, 2, 3, 4, 5)
RATIO_SWEEP_VALUES = (0.1, 0.2, 0.5, 1.0)
LABEL_SCALE_SWEEP_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP_DIMENSIONS = ("epochs", "filter_ratio", "label_scale", "transfer")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings. ``max_workers`` bounds the thread pools of the
    stages that call providers (target-tag inference, generation, scoring).
    Those stages use pools only when some provider of the run is not in
    process (``providers.base``); with the mocks they run serially and start
    no thread, as evaluation and sweep cells always do."""

    epochs: int = 3
    filter_ratio: float = DEFAULT_FILTER_RATIO
    strategy: str = "greedy"
    delta: float = 0.9
    retrieval_k: int = 5
    folds: int = 3
    runs: int = 3
    seed: int = 7
    label_scale: float = 1.0
    max_workers: int = DEFAULT_MAX_WORKERS

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not 0.0 < self.filter_ratio <= 1.0:
            raise ConfigError("filter_ratio must lie in (0, 1]")
        if self.retrieval_k < 1:
            raise ConfigError("retrieval_k must be at least 1")
        if self.folds < 1 or self.runs < 1:
            raise ConfigError("folds and runs must be at least 1")
        if not 0.0 <= self.label_scale <= 1.0:
            raise ConfigError("label_scale must lie in [0, 1]")
        if self.max_workers < 1:
            raise ConfigError("max_workers must be at least 1")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown selection strategy {self.strategy!r}; expected one of {STRATEGIES}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ProviderBundle:
    chat: ChatProvider
    embedder: EmbeddingProvider
    likelihood: LikelihoodProvider

    def audit_names(self) -> tuple[str, ...]:
        return (
            type(self.chat).__name__,
            type(self.embedder).__name__,
            type(self.likelihood).__name__,
        )


def mock_provider_factory(noise_rate: float = 0.0) -> Callable[[int], ProviderBundle]:
    """Factory of seeded mock bundles; the embedder takes no seed because the
    embedding model does not change between runs."""

    def factory(seed: int) -> ProviderBundle:
        return ProviderBundle(
            chat=MockChatProvider(seed=seed, noise_rate=noise_rate),
            embedder=MockEmbedder(),
            likelihood=MockLikelihoodScorer(seed=seed),
        )

    return factory


class _Session:
    """One run's stand-in for all three roles of a bundle, memoizing replies
    and metering tokens.

    ``complete`` always sends the request. ``accept(request, reply, parsed)``
    keeps, for a temperature-0 request, the reply's token count and the value
    the consumer parsed from it, and ``recall(request)`` serves that value
    (``None`` when nothing is kept), so ``providers.base.ask`` neither sends
    nor parses a request twice, while re-asks and warmer requests reach the
    provider. ``score_likelihood`` keeps each (condition, continuation) score;
    ``embed`` validates every call, hits included, and sends each text to the
    embedder once (a text must get the same vector in any batch). A raising
    call stores nothing. ``tokens`` sums ``tokens_in + tokens_out`` of every
    reply and ``token_count`` of every score served, memo hits included,
    under the lock, since stages call the session from threads. Chat and
    likelihood misses are sent unlocked, so two threads missing on one
    request at once may both send it. ``in_process`` is true when all three
    providers declare ``in_process = True``; ``run_epoch`` then runs its
    stages serially, so no two calls are ever in flight at once and that
    race cannot happen.
    """

    chat = embedder = likelihood = property(lambda self: self)

    def __init__(self, providers: ProviderBundle) -> None:
        self._providers = providers
        roles = (providers.chat, providers.embedder, providers.likelihood)
        self.in_process = all(getattr(provider, "in_process", False) for provider in roles)
        self._lock = threading.Lock()
        self._replies: dict[ChatRequest, tuple[int, object]] = {}
        self._scores: dict[tuple[str, str], LikelihoodResult] = {}
        self._vectors: dict[str, np.ndarray] = {}
        self.tokens = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        reply = self._providers.chat.complete(request)
        self._add(reply.tokens_in + reply.tokens_out)
        return reply

    def recall(self, request: ChatRequest):
        tokens, parsed = self._replies.get(request, (0, None))
        self._add(tokens)
        return parsed

    def accept(self, request: ChatRequest, reply: ChatResponse, parsed) -> None:
        if request.temperature == 0.0:
            self._replies[request] = (reply.tokens_in + reply.tokens_out, parsed)

    def score_likelihood(self, condition: str, continuation: str) -> LikelihoodResult:
        key = (condition, continuation)
        if key not in self._scores:
            self._scores[key] = self._providers.likelihood.score_likelihood(condition, continuation)
        result = self._scores[key]
        self._add(result.token_count)
        return result

    def _add(self, tokens: int) -> None:
        with self._lock:
            self.tokens += tokens

    def embed(self, texts):
        texts = validate_embed_inputs(texts)
        with self._lock:
            missing = [t for t in dict.fromkeys(texts) if t not in self._vectors]
            if missing:
                self._vectors.update(zip(missing, self._providers.embedder.embed(missing)))
            return np.array([self._vectors[t] for t in texts])


def _covers(required_mask: int, retrieved_mask: int, coverage_threshold: float) -> bool:
    """Whether ``retrieved_mask`` covers at least ``coverage_threshold`` of
    the classes of ``required_mask`` (an empty one is covered);
    ``int.bit_count`` gives the same integer ratio a set intersection would."""
    n_required = required_mask.bit_count()
    fraction = (required_mask & retrieved_mask).bit_count() / n_required if n_required else 1.0
    return fraction >= coverage_threshold - 1e-9


def simulate_agent(
    task: Task, hits: Sequence[tuple[str, float]], missing_mask: int, class_names: Sequence[str]
) -> FailurePair:
    """The oracle agent's record of one failed task of the synthetic world.

    ``evaluate_tasks`` has already judged the task failed; this only writes
    the ``FailurePair``. Equivalence classes are bits: ``class_names[i]``
    names bit ``i``. ``hits`` are the task's retrieved (skill id, score)
    pairs and ``missing_mask`` the required classes they do not cover. The
    trajectory records the retrieved skill ids and the missing classes, which
    is what later tag inference reads. ``class_names`` is sorted, so the
    missing names come out sorted.
    """
    missing = []
    while missing_mask:
        low = missing_mask & -missing_mask
        missing.append(class_names[low.bit_length() - 1])
        missing_mask ^= low
    retrieved_note = ", ".join([sid for sid, _ in hits]) if hits else "none"
    missing_note = ", ".join(missing)
    steps = (
        ("retrieve_skills", f"retrieved: {retrieved_note}"),
        ("check_coverage", f"missing knowledge: {missing_note}"),
    )
    trajectory = Trajectory(task_id=task.id, steps=steps, final_output=f"failure: missing {missing_note}")
    return FailurePair(task=task, trajectory=trajectory)


class TaskTable(tuple):
    """Tasks prepared once for every evaluation of them or of their rows:
    the tasks, ``required_sets`` (each distinct ``world.required_tag_sets``
    set once), ``required_id`` (each task's position in it), ``queries``
    (the descriptions' ``QueryBatch``) and ``rows`` (each task's slot in
    ``queries``). The entry points build theirs from tasks sorted by id, so a
    task set is a list of row numbers."""

    def __new__(cls, tasks: Iterable[Task], world: SyntheticWorld) -> TaskTable:
        table = super().__new__(cls, tasks)
        ids: dict[TagSet, int] = {}
        required = world.required_tag_sets(table)
        table.required_id = np.array([ids.setdefault(tag_set, len(ids)) for tag_set in required], dtype=np.intp)
        table.required_sets = tuple(ids)
        table.queries = QueryBatch(task.description for task in table)
        table.rows = np.arange(len(table), dtype=np.intp)
        return table

    def take(self, rows: Sequence[int]) -> TaskTable:
        """The table of ``rows``, row numbers of this one, sharing its
        ``required_sets`` and ``queries``."""
        rows = np.asarray(rows, dtype=np.intp)
        taken = tuple.__new__(TaskTable, map(self.__getitem__, rows.tolist()))
        taken.required_sets, taken.queries = self.required_sets, self.queries
        taken.required_id, taken.rows = self.required_id[rows], self.rows[rows]
        return taken


def evaluate_tasks(
    tasks: Sequence[Task],
    library: SkillLibrary,
    world: SyntheticWorld,
    config: RunConfig,
    embedder: EmbeddingProvider,
    eq: EquivalenceIndex | None = None,
    ranked: Rankings | None = None,
    *,
    build_failures: bool = True,
) -> list[FailurePair | Task | None]:
    """Judge every task against ``library`` and return one outcome per task,
    in task order: ``None`` for a pass and the task's ``FailurePair`` for a
    failure. A caller that reads only the pass rate passes
    ``build_failures=False``: a failure's outcome is then the ``Task``
    itself and nothing is built for it.

    ``tasks`` may be a ``TaskTable``, made once for every evaluation of its
    rows; any other sequence gets a table of its own. The library's tags and
    the tasks' required tags are added to ``eq``, a fresh equivalence index
    when not given. A caller may pass the index it gave the evaluation of
    the same tasks against an earlier library of this one: it then holds
    this evaluation's tags and no other, and the partition is the one a
    fresh index would find, since it does not depend on the order tags
    arrive in. ``ranked`` is ``retrieve``'s
    ranking of all of ``tasks.queries`` against ``library``'s BM25 index at
    ``config.retrieval_k``, one slot per query, so evaluations of rows of
    one table against one library can share it; it is computed here
    when not given. Each class gets one bit, in sorted order of the class
    names, and each skill and task the Python-int mask of its tags'
    classes. The work is paid per distinct input, not per task: each
    distinct required-tag set is masked once, each distinct ranking's skill
    masks are ORed once, and each distinct code ``slot *
    len(tasks.required_sets) + required_id`` (ranking and required-tag set)
    gets one coverage verdict, here and nowhere else.
    Only a failing task goes to ``simulate_agent``, which writes its
    ``FailurePair`` from the required classes its hits miss, and only when
    ``build_failures`` is set. Evaluation calls no provider beyond ``eq``'s
    embeddings, so the tasks run serially.
    """
    if not isinstance(tasks, TaskTable):
        tasks = TaskTable(tasks, world)
    if ranked is None:
        ranked = retrieve(build_index(library), tasks.queries, config.retrieval_k)
    if len(ranked.slot) != len(tasks.queries):
        raise InputError(f"ranked has {len(ranked.slot)} slots for a table of {len(tasks.queries)} tasks")
    if eq is None:
        eq = EquivalenceIndex(config.delta)
    set_ids = set(tasks.required_id.tolist())
    required = [tasks.required_sets[set_id] for set_id in set_ids]
    tags = set().union(*(skill.tags for skill in library), *required)
    eq.add_tags(tags, embedder)
    class_of = {tag: eq.representative(tag) for tag in tags}
    class_names = sorted(set(class_of.values()))
    bit = {name: 1 << i for i, name in enumerate(class_names)}
    tag_bit = {tag: bit[name] for tag, name in class_of.items()}

    def mask(tag_set: TagSet) -> int:
        return reduce(or_, map(tag_bit.__getitem__, tag_set), 0)

    skill_masks = {skill.id: mask(skill.tags) for skill in library}
    required_masks = dict(zip(set_ids, map(mask, required)))
    n_sets = len(tasks.required_sets)
    codes, inverse = distinct_rows((ranked.slot[tasks.rows] * n_sets + tasks.required_id)[:, None])
    slots, code_sets = (part.tolist() for part in np.divmod(codes[:, 0], n_sets))
    hit_masks = {
        slot: reduce(or_, (skill_masks[sid] for sid, _ in ranked.distinct[slot]), 0) for slot in dict.fromkeys(slots)
    }
    # Per code: None for a pass, else the ranking and the classes it misses.
    verdicts = [
        None
        if _covers(required_masks[set_id], hit_masks[slot], world.coverage_threshold)
        else (ranked.distinct[slot], required_masks[set_id] & ~hit_masks[slot])
        for slot, set_id in zip(slots, code_sets)
    ]
    outcomes = map(verdicts.__getitem__, inverse.tolist())
    if not build_failures:
        return [None if verdict is None else task for task, verdict in zip(tasks, outcomes)]
    return [
        None if verdict is None else simulate_agent(task, *verdict, class_names)
        for task, verdict in zip(tasks, outcomes)
    ]


def pass_rate(outcomes: Sequence[FailurePair | Task | None]) -> float:
    """The share of passes (``None``) among ``evaluate_tasks`` outcomes."""
    if not outcomes:
        return 0.0
    return outcomes.count(None) / len(outcomes)


@dataclass(frozen=True)
class EpochStats:
    """What one evolution step did: counts, mean scores, and costs."""

    n_failures: int
    n_candidates: int
    n_retained: int
    mean_f_tag: float | None
    mean_alignment: float | None
    tokens_used: int
    wall_clock_ms: int
    score_rows: tuple[dict, ...] = ()


def run_epoch(
    library: SkillLibrary,
    tasks: Sequence[Task],
    world: SyntheticWorld,
    providers: _Session,
    config: RunConfig,
    clock: Callable[[], float] = time.monotonic,
    dump_dir: str | Path | None = None,
    ranked: Rankings | None = None,
    eq: EquivalenceIndex | None = None,
) -> tuple[list[FailurePair | None], SkillLibrary, EpochStats]:
    """One full evolution epoch over ``tasks``; returns the evaluation's
    outcomes (measured on the incoming library: ``None`` per pass, a
    ``FailurePair`` per failure, in task order), the updated library, and the
    stats row.
    ``providers`` is the run's ``_Session``, handed to every stage; the
    epoch's ``tokens_used`` is the growth of ``providers.tokens`` while it
    runs. That is exact as long as nothing else calls chat or likelihood on
    the session meanwhile, which holds: folds and sweep cells run serially,
    evaluation only embeds, the stages' pools join before this returns, and
    the epoch-0 and final rows carry 0 tokens. The stages run in pools of
    ``config.max_workers`` threads only when the session is not
    ``in_process``; otherwise each runs serially.
    ``ranked`` is the ranking of ``tasks``' table against the incoming
    library, computed when not given (see ``evaluate_tasks``).
    The evaluation adds its tags to ``eq``, a fresh equivalence index when
    not given; target and candidate tags then join a fork of it, so ``eq``
    ends holding the evaluation's tags only and can serve the next epoch's
    evaluation of the same tasks."""
    tokens_before = providers.tokens
    started = clock()
    # Threads only take turns running in-process providers.
    workers = 1 if providers.in_process else config.max_workers

    if eq is None:
        eq = EquivalenceIndex(config.delta)
    outcomes = evaluate_tasks(tasks, library, world, config, providers.embedder, eq, ranked)
    # Target and candidate tags join a fork, so ``eq`` keeps only the
    # evaluation's tags.
    eq = eq.fork()
    failures = [outcome for outcome in outcomes if outcome is not None]

    def _infer(pair):
        try:
            return generate_target_tags(pair, providers)
        except PAIR_FAULTS as exc:
            logger.warning("skipping pair %s: %s", pair.task.id, exc)
            return None

    inferred = parallel_map(_infer, failures, max_workers=workers)
    target_tags = {pair.task.id: tags for pair, tags in zip(failures, inferred) if tags is not None}
    target_tags = _add_tags_or_drop(eq, target_tags, providers.embedder, "pair")

    generated = generate_candidates(
        [pair for pair in failures if pair.task.id in target_tags],
        library,
        eq,
        providers,
        library.epoch,
        target_tags,
        strategy=config.strategy,
        dump_dir=dump_dir,
        max_workers=workers,
    )

    kept = _add_tags_or_drop(eq, {s.id: s.tags for s in generated.values()}, providers.embedder, "candidate")
    tasks_by_id = {task.id: task for task in tasks}

    def _score(item: tuple[str, Skill]):
        pair_id, skill = item
        try:
            return score_candidate(skill, target_tags[pair_id], tasks_by_id[pair_id], eq, providers)
        except PAIR_FAULTS as exc:
            logger.warning("dropping candidate %s: %s", skill.id, exc)
            return None

    joined = [(pair_id, skill) for pair_id, skill in generated.items() if skill.id in kept]
    scored = [c for c in parallel_map(_score, joined, max_workers=workers) if c]

    updated, retained, rows = filter_and_update(scored, library, config.filter_ratio)
    stats = EpochStats(
        n_failures=len(failures),
        n_candidates=len(scored),
        n_retained=len(retained),
        mean_f_tag=_mean([c.scores.f_tag for c in scored]),
        mean_alignment=_mean([c.scores.alignment for c in scored]),
        tokens_used=providers.tokens - tokens_before,
        wall_clock_ms=int((clock() - started) * 1000),
        score_rows=tuple(rows),
    )
    return outcomes, updated, stats


def _add_tags_or_drop(
    eq: EquivalenceIndex, tags_of: dict[str, TagSet], embedder: EmbeddingProvider, what: str
) -> dict[str, TagSet]:
    """Add the tags of every item (pair or candidate id -> tag set) to ``eq``
    and return the items whose tags joined. One batch serves them all unless
    it raises one of ``PAIR_FAULTS``; then each item's tags are added alone
    and an item whose own tags fail is dropped with a warning. A raising
    ``add_tags`` changes nothing, and the partition does not depend on the
    order tags arrive in, so the kept items' classes are those of one batch."""
    try:
        eq.add_tags(set().union(*tags_of.values()), embedder)
        return tags_of
    except PAIR_FAULTS:
        pass
    kept = {}
    for item, tags in tags_of.items():
        try:
            eq.add_tags(tags, embedder)
            kept[item] = tags
        except PAIR_FAULTS as exc:
            logger.warning("skipping %s %s: %s", what, item, exc)
    return kept


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    library_size: int
    train_pass_rate: float
    holdout_pass_rate: float
    n_failures: int | None = None
    n_candidates: int | None = None
    n_retained: int | None = None
    mean_f_tag: float | None = None
    mean_alignment: float | None = None
    tokens_used: int = 0
    wall_clock_ms: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> EpochRow:
        return cls(
            epoch=_field(raw, "epoch", int),
            library_size=_field(raw, "library_size", int),
            train_pass_rate=_field(raw, "train_pass_rate", float),
            holdout_pass_rate=_field(raw, "holdout_pass_rate", float),
            n_failures=_field(raw, "n_failures", int, None),
            n_candidates=_field(raw, "n_candidates", int, None),
            n_retained=_field(raw, "n_retained", int, None),
            mean_f_tag=_field(raw, "mean_f_tag", float, None),
            mean_alignment=_field(raw, "mean_alignment", float, None),
            tokens_used=_field(raw, "tokens_used", int, 0),
            wall_clock_ms=_field(raw, "wall_clock_ms", int, 0),
        )


@dataclass(frozen=True)
class CellResult:
    fold: int
    run: int
    seed: int
    rows: tuple[EpochRow, ...]

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "run": self.run,
            "seed": self.seed,
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, raw: dict, position: int) -> CellResult:
        """Raises ``ParseError`` naming a missing or mistyped field; one in a
        row also names the cell, at ``position`` in the report, and the row."""
        fold, run, seed = _field(raw, "fold", int), _field(raw, "run", int), _field(raw, "seed", int)
        rows = []
        for r, row in enumerate(_field(raw, "rows", list, items=dict)):
            try:
                rows.append(EpochRow.from_dict(row))
            except ParseError as exc:
                raise ParseError(f"{exc} (cell {position}: fold {fold}, run {run}; row {r})") from exc
        return cls(fold=fold, run=run, seed=seed, rows=tuple(rows))


@dataclass(frozen=True)
class EvolutionReport:
    config: dict
    leaky: bool
    providers: tuple[str, ...]
    cells: tuple[CellResult, ...]

    def per_epoch_summary(self) -> list[dict]:
        epochs = max((len(cell.rows) for cell in self.cells), default=0)
        summary = []
        for e in range(epochs):
            rows = [cell.rows[e] for cell in self.cells if e < len(cell.rows)]
            holdout = [row.holdout_pass_rate for row in rows]
            f_tags = [row.mean_f_tag for row in rows if row.mean_f_tag is not None]
            aligns = [row.mean_alignment for row in rows if row.mean_alignment is not None]
            summary.append(
                {
                    "epoch": e,
                    "mean_holdout_pass_rate": _mean(holdout),
                    "std_holdout_pass_rate": statistics.pstdev(holdout) if len(holdout) > 1 else 0.0,
                    "mean_train_pass_rate": _mean([row.train_pass_rate for row in rows]),
                    "mean_library_size": _mean([float(row.library_size) for row in rows]),
                    "mean_f_tag": _mean(f_tags),
                    "mean_alignment": _mean(aligns),
                    "tokens_used": sum(row.tokens_used for row in rows),
                    "wall_clock_ms": sum(row.wall_clock_ms for row in rows),
                }
            )
        return summary

    @property
    def base_pass_rate(self) -> float:
        summary = self.per_epoch_summary()
        return summary[0]["mean_holdout_pass_rate"] if summary else 0.0

    @property
    def final_pass_rate(self) -> float:
        summary = self.per_epoch_summary()
        return summary[-1]["mean_holdout_pass_rate"] if summary else 0.0

    @property
    def total_tokens(self) -> int:
        return sum(row.tokens_used for cell in self.cells for row in cell.rows)

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "config": dict(self.config),
            "leaky": self.leaky,
            "providers": list(self.providers),
            "success_rule": "synthetic tag-coverage world (artifact construction)",
            "cells": [cell.to_dict() for cell in self.cells],
            "summary": {
                "per_epoch": self.per_epoch_summary(),
                "base_pass_rate": self.base_pass_rate,
                "final_pass_rate": self.final_pass_rate,
                "total_tokens": self.total_tokens,
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> EvolutionReport:
        """Raises ``ParseError`` naming a missing or mistyped field."""
        return cls(
            config=dict(_field(raw, "config", dict, items=None)),
            leaky=_field(raw, "leaky", bool),
            providers=tuple(_field(raw, "providers", list)),
            cells=tuple(
                CellResult.from_dict(cell, i) for i, cell in enumerate(_field(raw, "cells", list, items=dict))
            ),
        )

    def markdown(self) -> str:
        cfg = self.config
        lines = [
            "# Evolution report",
            "",
            f"- seed: {cfg.get('seed')}",
            f"- folds: {cfg.get('folds')}, runs: {cfg.get('runs')}, epochs: {cfg.get('epochs')}",
            f"- strategy: {cfg.get('strategy')}, filter ratio: {cfg.get('filter_ratio')}, "
            f"delta: {cfg.get('delta')}, retrieval k: {cfg.get('retrieval_k')}",
            f"- label scale: {cfg.get('label_scale')}",
            f"- leaky protocol: {'yes' if self.leaky else 'no'}",
            f"- providers: {', '.join(self.providers)}",
            "- success rule: synthetic tag-coverage world (artifact construction)",
            "",
            "| epoch | library size | train pass | holdout pass | coverage F1 | alignment | tokens | time (ms) |",
            "|------:|-------------:|-----------:|-------------:|------------:|----------:|-------:|----------:|",
        ]
        for row in self.per_epoch_summary():
            f_tag = f"{row['mean_f_tag']:.3f}" if row["mean_f_tag"] is not None else "-"
            align = f"{row['mean_alignment']:.3f}" if row["mean_alignment"] is not None else "-"
            lines.append(
                f"| {row['epoch']} | {row['mean_library_size']:.1f} "
                f"| {row['mean_train_pass_rate']:.3f} | {row['mean_holdout_pass_rate']:.3f} "
                f"| {f_tag} | {align} | {row['tokens_used']} | {row['wall_clock_ms']} |"
            )
        lines.append("")
        lines.append(
            f"Base pass rate {self.base_pass_rate:.3f}, final pass rate {self.final_pass_rate:.3f}."
        )
        return "\n".join(lines) + "\n"


def apply_label_scale(world: SyntheticWorld, scale: float, seed: int) -> SkillLibrary:
    """Keep a seeded fraction of the world's human-labeled initial skills,
    shuffled from id order, so the subset does not depend on their file order."""
    skills = list(world.initial_library())
    keep = round(len(skills) * scale)
    rng = random.Random(seed ^ 0xAB5C)
    rng.shuffle(skills)
    return SkillLibrary(skills=tuple(skills[:keep]), epoch=0)


def _partition_folds(n_tasks: int, folds: int, seed: int) -> list[list[int]]:
    """A seeded split of rows ``0 .. n_tasks - 1`` into ``folds`` folds."""
    rows = list(range(n_tasks))
    random.Random(seed ^ 0xF01D).shuffle(rows)
    return [rows[i::folds] for i in range(folds)]


def _evolve_cell(
    library: SkillLibrary,
    train: Sequence[Task],
    holdout: Sequence[Task] | None,
    world: SyntheticWorld,
    providers: _Session,
    config: RunConfig,
    clock: Callable[[], float],
    dump_dir: str | Path | None = None,
) -> tuple[SkillLibrary, list[EpochRow], list[EpochStats]]:
    """Evolve ``library`` on ``train`` for ``config.epochs`` epochs.

    Row ``e`` measures the library as it enters epoch ``e`` (the last row the
    final library) and carries the stats of the epoch that produced it.
    ``holdout=None`` is the leaky protocol: the held-out pass rate is the
    train pass rate and no second evaluation runs. Only the pass rate of the
    held-out and the final evaluations is read, so they build no
    ``FailurePair``. The indexes grow with the library, which an epoch only
    ever adds to. Each epoch ranks all the table's tasks once, against one
    BM25 index of its library grown from the previous epoch's, and both of
    its evaluations read that ranking. The held-out and the
    training tasks each keep one equivalence index for the whole cell: the
    next evaluation's tag set is this one's plus the retained skills' tags,
    and the partition does not depend on insertion order, so each
    evaluation sees the classes a fresh index would. The two are kept
    apart, since union-find over a larger tag set could merge classes. Both
    task sets are rows of one ``TaskTable`` that the caller made, so a bad
    task was reported then, in the table's task order, not from either set.
    ``build_index``, ``retrieve``, ``evaluate_tasks`` and ``run_epoch`` are
    looked up as module globals on each call, so wrappers installed on this
    module see every epoch.
    """
    rows: list[EpochRow] = []
    stats_list: list[EpochStats] = []
    index = None
    train_eq = EquivalenceIndex(config.delta)
    holdout_eq = EquivalenceIndex(config.delta) if holdout is not None else None
    for epoch in range(config.epochs + 1):
        index = build_index(library, base=index)
        ranked = retrieve(index, train.queries, config.retrieval_k)
        holdout_rate = None
        if holdout is not None:
            holdout_rate = pass_rate(
                evaluate_tasks(
                    holdout, library, world, config, providers.embedder, holdout_eq, ranked, build_failures=False
                )
            )
        if epoch < config.epochs:
            outcomes, new_library, stats = run_epoch(
                library, train, world, providers, config, clock=clock, dump_dir=dump_dir,
                ranked=ranked, eq=train_eq,
            )
        else:
            outcomes = evaluate_tasks(
                train, library, world, config, providers.embedder, train_eq, ranked, build_failures=False
            )
            new_library, stats = library, None
        train_rate = pass_rate(outcomes)
        rows.append(
            EpochRow(
                epoch=epoch,
                library_size=len(library),
                train_pass_rate=train_rate,
                holdout_pass_rate=train_rate if holdout_rate is None else holdout_rate,
                # The stats of the step that produced this library, if any; else EpochRow's defaults.
                **{
                    f.name: getattr(pending, f.name)
                    for pending in stats_list[-1:]
                    for f in fields(EpochStats)
                    if f.name != "score_rows"
                },
            )
        )
        if stats is not None:
            stats_list.append(stats)
        library = new_library
    return library, rows, stats_list


def check_task_count(world: SyntheticWorld, folds: int) -> None:
    """Raise ``ConfigError`` unless ``world`` has a task for each of ``folds`` folds."""
    if len(world.tasks) < folds:
        raise ConfigError(f"{len(world.tasks)} task(s) cannot fill {folds} fold(s): a run needs a task per fold")


def _protocol(
    config: RunConfig,
    world: SyntheticWorld,
    factory: Callable[[int], ProviderBundle],
    clock: Callable[[], float],
    dump_dir: str | Path | None = None,
) -> tuple[EvolutionReport, SkillLibrary, list[EpochStats]]:
    """The protocol body of both entry points: evolve on all folds but one
    and score the held-out fold, per run seed; returns the report and the
    last cell's final library and per-epoch stats.

    With ``folds=1`` evolution and evaluation share the same tasks, nothing
    is held out and the report is flagged leaky. Each run seed gets its own
    provider session, while one ``memo.scope()`` serves the whole call: its
    tables are keyed by their whole input (the numeric LP model, the text)
    and depend on no seed, so a hit from another run seed returns what a
    fresh solve or tokenization would. Every cell evaluates rows of one
    table of the tasks in id order, so the folds do not depend on the order
    given.
    """
    check_task_count(world, config.folds)
    leaky = config.folds == 1
    cells: list[CellResult] = []
    table = TaskTable(sorted(world.tasks, key=lambda t: t.id), world)
    with memo.scope():
        for run_idx in range(config.runs):
            run_seed = config.seed + run_idx
            providers = factory(run_seed)
            audit = providers.audit_names()
            providers = _Session(providers)
            fold_lists = _partition_folds(len(table), config.folds, run_seed)
            for fold_idx in range(config.folds):
                # The leaky cell trains on its only fold and holds nothing out.
                holdout = None if leaky else table.take(fold_lists[fold_idx])
                train = table.take(sorted(
                    row for i, fold in enumerate(fold_lists) if leaky or i != fold_idx for row in fold
                ))
                library = apply_label_scale(world, config.label_scale, run_seed)
                library, rows, stats = _evolve_cell(library, train, holdout, world, providers, config, clock, dump_dir)
                cells.append(CellResult(fold=fold_idx, run=run_idx, seed=run_seed, rows=tuple(rows)))

    report = EvolutionReport(config=config.to_dict(), leaky=leaky, providers=audit, cells=tuple(cells))
    return report, library, stats


def run_kfold(
    config: RunConfig,
    world: SyntheticWorld,
    provider_factory: Callable[[int], ProviderBundle] | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> EvolutionReport:
    """Evolve on all folds but one and score the held-out fold, per run seed
    (see ``_protocol``). ``folds=1`` is the leaky protocol, which is logged
    as a warning."""
    if config.folds == 1:
        logger.warning("folds=1: evolving and evaluating on the same tasks (leaky protocol)")
    return _protocol(config, world, provider_factory or mock_provider_factory(), clock)[0]


def evolve_library(
    config: RunConfig,
    world: SyntheticWorld,
    providers: ProviderBundle,
    clock: Callable[[], float] = time.monotonic,
    dump_dir: str | Path | None = None,
) -> tuple[SkillLibrary, EvolutionReport, list[EpochStats]]:
    """Evolve on every task of the world (no folding) and return the final
    library, the report and the per-epoch stats (with their score rows, for
    CSV dumps): ``_protocol``'s one leaky cell, at one fold and one run seed,
    ``config.seed``. The report echoes ``config`` as given."""
    report, library, stats = _protocol(replace(config, folds=1, runs=1), world, lambda seed: providers, clock, dump_dir)
    return library, replace(report, config=config.to_dict()), stats


def sweep(
    config: RunConfig,
    dimension: str,
    world: SyntheticWorld | None = None,
    provider_factory: Callable[[int], ProviderBundle] | None = None,
    world_config: WorldConfig | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> list[dict]:
    """Rerun the k-fold protocol over one sweep dimension, one row per cell.
    The transfer sweep builds its own two worlds from ``world_config`` and
    takes no ``world``."""
    if dimension not in SWEEP_DIMENSIONS:
        raise ConfigError(f"unknown sweep dimension {dimension!r}; expected one of {SWEEP_DIMENSIONS}")
    if world is not None and dimension == "transfer":
        raise ConfigError("the transfer sweep builds its own two worlds from the world config; it takes no world")
    factory = provider_factory or mock_provider_factory()
    world_config = world_config or WorldConfig(seed=config.seed)
    if world is None and dimension != "transfer":
        world = generate_world(world_config)

    # Each grid dimension is a ``RunConfig`` field name.
    grids = {
        "epochs": EPOCH_SWEEP_VALUES,
        "filter_ratio": RATIO_SWEEP_VALUES,
        "label_scale": LABEL_SCALE_SWEEP_VALUES,
    }
    rows: list[dict] = []
    if dimension in grids:
        # Cells run one after another: each cell's stages open their own
        # pools, so running cells in a pool too would exceed max_workers.
        rows = [
            _sweep_row(dimension, value, run_kfold(replace(config, **{dimension: value}), world, factory, clock))
            for value in grids[dimension]
        ]
    else:
        world_a, world_b = generate_transfer_worlds(world_config)
        named = {"A": world_a, "B": world_b}
        for source_name, source_world in named.items():
            providers = factory(config.seed)
            library, _, _ = evolve_library(config, source_world, providers, clock=clock)
            for target_name, target_world in named.items():
                outcomes = evaluate_tasks(
                    target_world.tasks, library, target_world, config, providers.embedder, build_failures=False
                )
                rows.append(
                    {
                        "dimension": "transfer",
                        "value": f"{source_name}->{target_name}",
                        "source": source_name,
                        "target": target_name,
                        "base_pass_rate": None,
                        "final_pass_rate": pass_rate(outcomes),
                        "total_tokens": None,
                    }
                )
    return rows


def _sweep_row(dimension: str, value, report: EvolutionReport) -> dict:
    return {
        "dimension": dimension,
        "value": value,
        "source": None,
        "target": None,
        "base_pass_rate": report.base_pass_rate,
        "final_pass_rate": report.final_pass_rate,
        "total_tokens": report.total_tokens,
    }


def write_sweep_csv(rows: Sequence[dict], path: str | Path) -> None:
    columns = ("dimension", "value", "source", "target", "base_pass_rate", "final_pass_rate", "total_tokens")
    write_csv(rows, columns, path)


def average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n in ascending value order, ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman correlation with average-rank ties.

    Two identical constant sequences count as perfectly correlated; a single
    constant side has no defined ranking and scores 0.
    """
    if len(x) != len(y) or len(x) < 2:
        raise InputError("spearman needs two sequences of equal length >= 2")
    if list(x) == list(y):
        return 1.0
    rx = average_ranks(x)
    ry = average_ranks(y)
    mean_r = (len(x) + 1) / 2
    num = sum((a - mean_r) * (b - mean_r) for a, b in zip(rx, ry))
    den_x = sum((a - mean_r) ** 2 for a in rx)
    den_y = sum((b - mean_r) ** 2 for b in ry)
    if den_x == 0 or den_y == 0:
        logger.warning("constant ranking in spearman; correlation undefined, reporting 0")
        return 0.0
    return num / (den_x * den_y) ** 0.5


def scorer_sensitivity(
    candidates: Mapping[str, Skill],
    tasks_by_id: Mapping[str, Task],
    scorers: Sequence[LikelihoodProvider],
) -> list[dict]:
    """Recompute task alignment under each scorer and compare to the first.

    ``candidates`` maps each pair id to the skill generated from it, as
    ``generate_candidates`` returns them. Each scorer uses its own token
    counts. Reported per scorer: mean alignment, mean absolute difference
    from the reference, Spearman correlation of the alignment rankings, and
    the overlap of the top ``DEFAULT_FILTER_RATIO`` candidate sets (the
    filter rule's retention count).
    """
    if len(candidates) < 2:
        raise InputError("scorer sensitivity needs at least 2 candidates")
    if len(scorers) < 1:
        raise InputError("scorer sensitivity needs at least 1 scorer")

    ordered = sorted(candidates.items(), key=lambda item: item[1].id)
    ids = [skill.id for _, skill in ordered]
    alignments = [
        [alignment_score(skill, tasks_by_id[pair_id], scorer)[0] for pair_id, skill in ordered]
        for scorer in scorers
    ]

    k = retention_count(len(ordered), DEFAULT_FILTER_RATIO)

    def top_set(values: Sequence[float]) -> frozenset[str]:
        ranked = sorted(range(len(ids)), key=lambda i: (-values[i], ids[i]))
        return frozenset(ids[i] for i in ranked[:k])

    reference = alignments[0]
    reference_top = top_set(reference)
    rows = []
    for idx, (scorer, values) in enumerate(zip(scorers, alignments)):
        name = getattr(scorer, "name", f"scorer-{idx}")
        rows.append(
            {
                "scorer": name,
                "mean_alignment": _mean(values),
                "mae": _mean([abs(a - b) for a, b in zip(values, reference)]),
                "spearman": spearman(values, reference),
                "top_overlap": len(top_set(values) & reference_top) / k,
            }
        )
    return rows


def emit_report(report: EvolutionReport, base_path: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.json`` and ``<base>.md`` for a finished report."""
    base = Path(base_path)
    json_path = base.with_suffix(".json")
    md_path = base.with_suffix(".md")
    write_text_atomic(json_path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    write_text_atomic(md_path, report.markdown())
    return json_path, md_path


def strip_wall_clock(obj):
    """Zero every wall_clock_ms field, recursively; used by determinism checks."""
    if isinstance(obj, dict):
        return {
            key: (0 if key == "wall_clock_ms" else strip_wall_clock(value))
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [strip_wall_clock(item) for item in obj]
    return obj
