"""Single-layer probes on fixed seeded inputs, run in traced mode.

``EquivalenceIndex.add_tags`` is timed on synthetic tag sets of 500, 1000
and 2000 tags, with embeddings computed before the clock starts, so the
probe times the index and not the mock embedder. ``select_sources`` is
timed per strategy over the 200 seeded instances of acceptance criterion 1.
"""

from __future__ import annotations

import random
import time

ADD_TAGS_SIZES = (500, 1000, 2000)
STRATEGIES = ("greedy", "primal_dual", "lp_round", "brute_force")
_WORDS = (
    "pdf", "table", "video", "audio", "image", "csv", "json", "regex", "date", "unit",
    "chart", "text", "file", "api", "html", "sql", "password", "email", "geo", "currency",
    "sheet", "markdown", "latex", "color", "parse", "format", "extract", "render", "filter",
    "merge", "split", "hash", "scrape", "convert", "validate", "summarize", "compress", "crop",
)


def synthetic_tags(n: int, seed: int = 0) -> list[str]:
    """n distinct snake_case tags of two or three seeded words."""
    rng = random.Random(seed * 100_003 + n)
    tags: set[str] = set()
    while len(tags) < n:
        tags.add("_".join(rng.sample(_WORDS, rng.randint(2, 3))))
    return sorted(tags)


class _PrecomputedEmbedder:
    def __init__(self, texts, embedder) -> None:
        self._rows = dict(zip(texts, embedder.embed(texts)))

    def embed(self, texts):
        import numpy as np

        return np.array([self._rows[t] for t in texts])


def add_tags_probe(n: int) -> float:
    from skillforge.providers.mock import MockEmbedder
    from skillforge.tags import EquivalenceIndex

    tags = synthetic_tags(n)
    embedder = _PrecomputedEmbedder(tags, MockEmbedder())
    index = EquivalenceIndex(delta=0.9)
    started = time.perf_counter()
    index.add_tags(tags, embedder)
    return time.perf_counter() - started


def cover_instances():
    """The 200 instances of acceptance criterion 1, drawn the same way."""
    from skillforge.cover import CoverInstance

    rng = random.Random(101)
    instances = []
    for _ in range(200):
        n_classes = rng.randint(1, 10)
        classes = [f"c{i}" for i in range(n_classes)]
        target = frozenset(rng.sample(classes, rng.randint(0, n_classes)))
        skills = {
            f"s{i:02d}": frozenset(rng.sample(classes, rng.randint(0, min(4, n_classes))))
            for i in range(rng.randint(1, 12))
        }
        instances.append(CoverInstance(target_classes=target, skill_classes=skills))
    return instances


def select_sources_probe(strategy: str, instances) -> float:
    from skillforge.cover import select_sources

    started = time.perf_counter()
    for instance in instances:
        select_sources(instance, strategy)
    return time.perf_counter() - started


def run_probes() -> dict[str, float]:
    metrics = {f"tags.add_tags.probe_{n}_s": add_tags_probe(n) for n in ADD_TAGS_SIZES}
    instances = cover_instances()
    for strategy in STRATEGIES:
        metrics[f"cover.select_sources.probe_{strategy}_s"] = select_sources_probe(strategy, instances)
    return metrics
