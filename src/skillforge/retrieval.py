"""BM25 retrieval over the skill library.

Documents are the concatenated name, description, and body of each skill.
The tokenizer lowercases and splits on non-alphanumeric characters. IDF uses
the always-nonnegative variant ln(1 + (N - df + 0.5) / (df + 0.5)), which
avoids negative weights on tiny corpora.

The index is inverted: when it is built, the idf of every term and the
length norm k1 * (1 - b + b * dl / avgdl) of every document are computed
once, and each term's postings list holds, in document-id order, the term's
BM25 contribution idf * tf * (k1 + 1) / (tf + norm) to each document that
contains it. A query then touches only the documents that share a term with
it, adding the contributions term by term in query order (duplicates
included), so every score is the same float a full scan would compute.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

from skillforge.errors import InputError
from skillforge.model import SkillLibrary

_TOKEN_RE = re.compile(r"[a-z0-9]+")

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Index:
    documents: dict[str, Counter]
    doc_lengths: dict[str, int]
    df: dict[str, int]
    avgdl: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    postings: dict[str, tuple[tuple[str, float], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n_docs = len(self.documents)
        idf = {term: math.log(1 + (n_docs - df + 0.5) / (df + 0.5)) for term, df in self.df.items()}
        postings: dict[str, list[tuple[str, float]]] = {}
        for doc_id in sorted(self.documents):
            counts = self.documents[doc_id]
            if not counts:
                continue  # no postings; every document may be empty, leaving avgdl 0
            norm = self.k1 * (1 - self.b + self.b * self.doc_lengths[doc_id] / self.avgdl)
            for term, tf in counts.items():
                weight = idf[term] * tf * (self.k1 + 1) / (tf + norm)
                postings.setdefault(term, []).append((doc_id, weight))
        object.__setattr__(self, "postings", {term: tuple(p) for term, p in postings.items()})

    @property
    def size(self) -> int:
        return len(self.documents)


def build_index(library: SkillLibrary, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Bm25Index:
    documents: dict[str, Counter] = {}
    doc_lengths: dict[str, int] = {}
    df: Counter = Counter()
    for skill in library:
        tokens = tokenize(f"{skill.name} {skill.description} {skill.body}")
        counts = Counter(tokens)
        documents[skill.id] = counts
        doc_lengths[skill.id] = len(tokens)
        for term in counts:
            df[term] += 1
    avgdl = sum(doc_lengths.values()) / len(doc_lengths) if doc_lengths else 0.0
    return Bm25Index(documents=documents, doc_lengths=doc_lengths, df=dict(df), avgdl=avgdl, k1=k1, b=b)


def retrieve(index: Bm25Index, query: str, k: int) -> list[tuple[str, float]]:
    """Top-k skill ids by BM25 score, descending, ties by id; zero scores dropped."""
    if k < 1:
        raise InputError("k must be at least 1")
    scores: dict[str, float] = {}
    for term in tokenize(query):
        for doc_id, weight in index.postings.get(term, ()):
            scores[doc_id] = scores.get(doc_id, 0.0) + weight
    ranked = sorted([(-score, doc_id) for doc_id, score in scores.items() if score > 0.0])
    return [(doc_id, -negated) for negated, doc_id in ranked[:k]]
