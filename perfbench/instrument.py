"""Provider metering and span tracing, applied from outside the engine.

``ProviderLedger`` times the three provider methods at the ``ProviderBundle``
boundary, through the factory the engine is handed, so mock cost is kept
apart from engine cost. It runs on every pass. It times each call in CPU
seconds of the calling thread: on a thread pool the workers share the GIL,
so a call's wall time would also hold the other thread's engine work and
provider calls.

``Tracer`` records a span around each call into a layer's public functions.
The harness and evolve modules import their callees by name, so those names
are replaced where they are looked up (``skillforge.harness.retrieve``,
``skillforge.evolve.select_sources`` ...); methods are replaced on their
classes. It is installed only for traced passes and removed afterwards.
"""

from __future__ import annotations

import gzip
import itertools
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

PROVIDER_METHODS = (("chat", "complete"), ("embed", "embed"), ("likelihood", "score_likelihood"))
PROVIDER_ATTRS = {"chat": "chat", "embed": "embedder", "likelihood": "likelihood"}


class ProviderLedger:
    """Calls, busy seconds (CPU time of the calling thread) and embedded
    texts per provider role for one pass."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.calls = {role: 0 for role, _ in PROVIDER_METHODS}
        self.busy_s = {role: 0.0 for role, _ in PROVIDER_METHODS}
        self.embed_texts = 0

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    @property
    def total_busy_s(self) -> float:
        return sum(self.busy_s.values())

    @property
    def reference_s(self) -> float:
        """Mean seconds of one chat call plus one likelihood call plus one
        embedded text: a fixed unit of mock-provider work, whatever the
        number of calls the engine makes."""
        return (
            self.busy_s["chat"] / max(self.calls["chat"], 1)
            + self.busy_s["likelihood"] / max(self.calls["likelihood"], 1)
            + self.busy_s["embed"] / max(self.embed_texts, 1)
        )

    def factory(self, make_bundle, tracer: Tracer | None = None):
        """A provider factory whose bundles report to this ledger. Methods are
        replaced on the instances, so ``audit_names`` and the report stay as
        they are without the ledger."""

        def make(seed: int):
            bundle = make_bundle(seed)
            for role, method in PROVIDER_METHODS:
                provider = getattr(bundle, PROVIDER_ATTRS[role])
                timed = self._timed(role, getattr(provider, method))
                if tracer is not None:
                    timed = tracer.wrap_provider(role, timed)
                setattr(provider, method, timed)
            return bundle

        return make

    def _timed(self, role: str, fn):
        lock, clock = self._lock, time.thread_time

        def timed(*args):
            started = clock()
            result = fn(*args)
            elapsed = clock() - started
            with lock:
                self.calls[role] += 1
                self.busy_s[role] += elapsed
                if role == "embed":
                    self.embed_texts += len(args[0])
            return result

        return timed


# Functions replaced by name in the module that looks them up:
# (span name, module, attribute).
MODULE_TARGETS = (
    ("retrieval.retrieve", "skillforge.harness", "retrieve"),
    ("retrieval.build_index", "skillforge.harness", "build_index"),
    ("tags.generate_target_tags", "skillforge.harness", "generate_target_tags"),
    ("tags.generate_skill_tags", "skillforge.evolve", "generate_skill_tags"),
    ("cover.select_sources", "skillforge.evolve", "select_sources"),
    ("evolve.generate_candidates", "skillforge.harness", "generate_candidates"),
    ("evolve.build_cover_instance", "skillforge.evolve", "build_cover_instance"),
    ("evolve.assemble_generation_prompt", "skillforge.evolve", "assemble_generation_prompt"),
    ("scoring.score_candidate", "skillforge.harness", "score_candidate"),
    ("scoring.filter_and_update", "skillforge.harness", "filter_and_update"),
    ("model.add_skills", "skillforge.scoring", "add_skills"),
    ("harness.evaluate_tasks", "skillforge.harness", "evaluate_tasks"),
    ("harness.simulate_agent", "skillforge.harness", "simulate_agent"),
    ("harness.run_epoch", "skillforge.harness", "run_epoch"),
    ("parallel.parallel_map", "skillforge.harness", "parallel_map"),
    ("parallel.parallel_map", "skillforge.evolve", "parallel_map"),
)
# Methods replaced on their classes: (span name, module, class, method).
CLASS_TARGETS = (
    ("tags.add_tags", "skillforge.tags", "EquivalenceIndex", "add_tags"),
    ("tags.canonical_set", "skillforge.tags", "EquivalenceIndex", "canonical_set"),
    ("model.library_get", "skillforge.model", "SkillLibrary", "get"),
)


class Tracer:
    """In-memory spans ``(id, name, start, end, parent, pass, thread)`` plus
    the counts that per-layer ratios need, kept per pass.

    Each thread keeps its own parent stack, so spans opened inside a
    ``parallel_map`` worker nest under that worker's item span, whose parent
    is the ``parallel_map`` span in the calling thread. Self time subtracts
    only children that ran on the span's own thread.

    The counting done for the ratios runs through ``tally``, in a
    ``trace.tally`` span of its own: like any child span, its time comes off
    the self time of the span that called the wrapped function, and shares
    leave it out. The wrappers' own bookkeeping, and the per-epoch checks of
    ``checks.EpochChecker`` (a set of the library's ids and two
    comparisons per ``run_epoch`` call), still count in their caller's self
    time.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.pass_id = 0
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen_tags: dict[int, set[str]] = defaultdict(set)
        self._restore: list[tuple] = []
        # tally(fn, *args) runs counting work fn(*args) in its own span.
        self.tally = self.wrap("trace.tally", lambda fn, *args: fn(*args))

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, parent_of=None):
        """``fn`` inside a span. ``parent_of`` overrides the parent for the
        first span of a thread (used for parallel_map items)."""
        spans, ids, clock, get_ident = self.spans, self._ids, time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (parent_of or 0)
            span_id = next(ids)
            stack.append(span_id)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans.append((span_id, name, started, ended, parent, self.pass_id, get_ident()))

        return traced

    def add_counts(self, amounts: dict[str, float]) -> None:
        with self._lock:
            counts = self.counts[self.pass_id]
            for key, amount in amounts.items():
                counts[key] += amount

    def top(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap_provider(self, role: str, fn):
        traced = self.wrap(f"providers.{role}", fn)
        if role != "chat":
            return traced
        from skillforge import prompts
        from skillforge.errors import ParseError
        from skillforge.evolve import parse_skill_response
        from skillforge.tags import parse_tag_list

        def count_accepted(request, reply) -> None:
            # Accepted means the consumer parses the reply and does not re-ask.
            if request.system == prompts.GENERATE_SYSTEM:
                try:
                    parse_skill_response(reply.text)
                    accepted = True
                except ParseError:
                    accepted = False
            else:
                accepted = bool(parse_tag_list(reply.text))
            self.add_counts({"chat.accepted": accepted})

        def chat(request):
            reply = traced(request)
            self.tally(count_accepted, request, reply)
            return reply

        return chat

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        for name, module_name, attr in MODULE_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._observed(name, original))
        for name, module_name, cls_name, method in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._observed(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _observed(self, name: str, fn):
        """The traced function plus the counts its layer's ratios need,
        taken through ``tally``."""
        if name == "parallel.parallel_map":
            # Items get their own spans; an item running on a worker thread
            # takes the parallel_map span (the top of this stack) as parent.
            return self.wrap(
                name,
                lambda item_fn, items, *args, **kwargs: fn(
                    self.wrap("parallel.item", item_fn, parent_of=self.top()), items, *args, **kwargs
                ),
            )
        traced, tally = self.wrap(name, fn), self.tally
        if name == "tags.add_tags":

            def split_new(index, tags):
                tags = set(tags)
                return tags, {t for t in tags if t not in index}

            def count_new(index, new) -> None:
                with self._lock:
                    seen = self._seen_tags[self.pass_id]
                    counts = self.counts[self.pass_id]
                    counts["add_tags.new_tags"] += len(new)
                    counts["add_tags.reinserted"] += len(new & seen)
                    counts["index_size_max"] = max(counts["index_size_max"], len(index))
                    seen |= new

            def add_tags(index, tags, embedder):
                tags, new = tally(split_new, index, tags)
                traced(index, tags, embedder)
                tally(count_new, index, new)

            return add_tags
        if name == "retrieval.retrieve":

            def retrieve(index, query, k):
                tally(self.add_counts, {"retrieve.docs": index.size})
                return traced(index, query, k)

            return retrieve
        if name == "cover.select_sources":

            def select_sources(instance, strategy="greedy"):
                result = traced(instance, strategy)
                tally(self.add_counts, {"select_sources.skills": len(result.selected)})
                return result

            return select_sources
        if name == "evolve.generate_candidates":

            def generate_candidates(failures, *args, **kwargs):
                result = traced(failures, *args, **kwargs)
                tally(self.add_counts, {
                    "generate_candidates.pairs": len(failures),
                    "generate_candidates.candidates": len(result),
                })
                return result

            return generate_candidates
        if name == "scoring.filter_and_update":

            def filter_and_update(candidates, *args, **kwargs):
                updated, retained, rows = traced(candidates, *args, **kwargs)
                tally(self.add_counts, {
                    "filter.candidates": len(candidates), "filter.retained": len(retained),
                })
                return updated, retained, rows

            return filter_and_update
        return traced

    # -- reading -------------------------------------------------------------

    def pass_table(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds in one pass."""
        spans = [s for s in self.spans if s[5] == pass_id]
        thread_of = {s[0]: s[6] for s in spans}
        child_s: dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _, thread in spans:
            if parent and thread_of.get(parent) == thread:
                child_s[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span_id, name, start, end, _, _, _ in spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[span_id]
        return table

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, with a header, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span_id\tname\tstart\tend\tparent\tpass\tthread\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


# Spans that get no share: parallel_map's self time on a thread pool is its
# caller waiting for the workers, and trace.tally is the tracer's own counting.
UNSHARED = ("parallel.parallel_map", "trace.tally")


def busy_self_s(table: dict) -> float:
    """Self time of all spans except the unshared ones. Shares divide by it."""
    return sum(row["self_s"] for name, row in table.items() if name not in UNSHARED)


def layer_metrics(table: dict, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""

    def calls(name):
        return table.get(name, {}).get("calls", 0.0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    all_self = busy_self_s(table)
    m = {
        "retrieval.retrieve.calls": calls("retrieval.retrieve"),
        "retrieval.retrieve.self_s": self_s("retrieval.retrieve"),
        "retrieval.retrieve.docs_per_call": ratio(counts["retrieve.docs"], calls("retrieval.retrieve")),
        "retrieval.retrieve.share": ratio(self_s("retrieval.retrieve"), all_self),
        "retrieval.build_index.calls": calls("retrieval.build_index"),
        "retrieval.build_index.self_s": self_s("retrieval.build_index"),
        "tags.add_tags.calls": calls("tags.add_tags"),
        "tags.add_tags.self_s": self_s("tags.add_tags"),
        "tags.add_tags.share": ratio(self_s("tags.add_tags"), all_self),
        "tags.add_tags.new_tags": counts["add_tags.new_tags"],
        "tags.add_tags.reinserted_ratio": ratio(counts["add_tags.reinserted"], counts["add_tags.new_tags"]),
        "tags.index_size_max": counts["index_size_max"],
        "tags.canonical_set.calls": calls("tags.canonical_set"),
        "tags.canonical_set.self_s": self_s("tags.canonical_set"),
        "tags.generate_target_tags.calls": calls("tags.generate_target_tags"),
        "tags.generate_target_tags.self_s": self_s("tags.generate_target_tags"),
        "tags.generate_skill_tags.calls": calls("tags.generate_skill_tags"),
        "tags.generate_skill_tags.self_s": self_s("tags.generate_skill_tags"),
        "cover.select_sources.calls": calls("cover.select_sources"),
        "cover.select_sources.self_s": self_s("cover.select_sources"),
        "cover.select_sources.share": ratio(self_s("cover.select_sources"), all_self),
        "cover.select_sources.skills_mean": ratio(counts["select_sources.skills"], calls("cover.select_sources")),
        "evolve.generate_candidates.self_s": self_s("evolve.generate_candidates"),
        "evolve.build_cover_instance.self_s": self_s("evolve.build_cover_instance"),
        "evolve.assemble_generation_prompt.self_s": self_s("evolve.assemble_generation_prompt"),
        "evolve.yield_ratio": ratio(counts["generate_candidates.candidates"], counts["generate_candidates.pairs"]),
        "scoring.score_candidate.calls": calls("scoring.score_candidate"),
        "scoring.score_candidate.self_s": self_s("scoring.score_candidate"),
        "scoring.filter_and_update.self_s": self_s("scoring.filter_and_update"),
        "scoring.retained_ratio": ratio(counts["filter.retained"], counts["filter.candidates"]),
        "providers.chat.calls": calls("providers.chat"),
        "providers.chat.busy_s": total_s("providers.chat"),
        "providers.chat.useful_ratio": ratio(counts["chat.accepted"], calls("providers.chat")),
        "providers.embed.calls": calls("providers.embed"),
        "providers.embed.texts": counts["embed.texts"],
        "providers.embed.busy_s": total_s("providers.embed"),
        "providers.likelihood.calls": calls("providers.likelihood"),
        "providers.likelihood.busy_s": total_s("providers.likelihood"),
        "model.library_get.calls": calls("model.library_get"),
        "model.library_get.self_s": self_s("model.library_get"),
        "model.add_skills.self_s": self_s("model.add_skills"),
        "model.save_library.self_s": self_s("model.save_library"),
        "harness.evaluate_tasks.calls": calls("harness.evaluate_tasks"),
        "harness.evaluate_tasks.self_s": self_s("harness.evaluate_tasks"),
        "harness.simulate_agent.calls": calls("harness.simulate_agent"),
        "harness.simulate_agent.self_s": self_s("harness.simulate_agent"),
        "harness.run_epoch.calls": calls("harness.run_epoch"),
        "harness.run_epoch.self_s": self_s("harness.run_epoch"),
        "harness.emit_report.self_s": self_s("harness.emit_report"),
        "parallel.parallel_map.calls": calls("parallel.parallel_map"),
        "parallel.parallel_map.wall_s": total_s("parallel.parallel_map"),
        "parallel.items_busy_s": total_s("parallel.item"),
        "parallel.overlap_ratio": ratio(total_s("parallel.item"), total_s("parallel.parallel_map")),
    }
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
