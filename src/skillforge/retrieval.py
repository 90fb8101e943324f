"""BM25 retrieval over the skill library.

Documents are the concatenated name, description, and body of each skill.
The tokenizer lowercases and splits on non-alphanumeric characters. IDF uses
the always-nonnegative variant ln(1 + (N - df + 0.5) / (df + 0.5)), which
avoids negative weights on tiny corpora.

When the index is built, the idf of every term and the length norm
k1 * (1 - b + b * dl / avgdl) of every document are computed once. Documents
become columns in id order, and each term's postings hold the columns of the
documents that contain it with the term's BM25 contribution
idf * tf * (k1 + 1) / (tf + norm) to each.

``retrieve`` ranks a batch of queries in one pass. It fills a dense matrix
``weights`` with one row per distinct known term of the batch (row 0 is all
zeros and stands for unknown terms and padding) and one column per document,
and a matrix ``positions`` whose row i lists, position by position, the rows
of query i's terms, duplicates included, padded with row 0. Scores start at
zero and ``scores += weights[positions[:, j]]`` adds position j of every
query at once. A document therefore receives its contributions one at a
time, in query order, like a term-by-term loop; every other add is
``x + 0.0``, which is exact for the non-negative finite scores BM25
produces, so every score is the same float a full scan computes. Ranking is
a stable argsort of ``-scores`` along each row: tied documents keep column
order, which is id order, exactly as sorting ``(-score, id)`` would. Scores
that are not positive are dropped.

Inside a ``token_memo()`` block (one per run seed or evolve call, opened
beside ``cover.lp_memo()``) each distinct document text is tokenized once,
kept as its ``(Counter, length)``, and each distinct query text once, kept as
its token list. Both are keyed by the text itself, never by a skill id: one
``candidate_id`` can name different bodies in different folds, while equal
texts always tokenize alike. ``build_index`` still folds the cached counts
into ``df``, ``avgdl`` and the postings in library order, so every index and
every score is the float a memo-less build computes. The cached values are
never mutated. Outside any block nothing is cached, so separate runs share
no work.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from skillforge.errors import InputError
from skillforge.model import SkillLibrary

_TOKEN_RE = re.compile(r"[a-z0-9]+")

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# (document text -> (Counter, length), query text -> tokens) for the
# innermost active ``token_memo()``.
_TOKEN_MEMO: ContextVar[tuple[dict, dict] | None] = ContextVar("token_memo", default=None)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@contextmanager
def token_memo() -> Iterator[None]:
    """Tokenize each distinct document and query text once inside the block."""
    token = _TOKEN_MEMO.set(({}, {}))
    try:
        yield
    finally:
        _TOKEN_MEMO.reset(token)


def _memoized(table: dict | None, text: str, compute):
    if table is None:
        return compute(text)
    value = table.get(text)
    if value is None:
        value = table[text] = compute(text)
    return value


def _document_counts(text: str) -> tuple[Counter, int]:
    tokens = tokenize(text)
    return Counter(tokens), len(tokens)


@dataclass(frozen=True)
class Bm25Index:
    documents: dict[str, Counter]
    doc_lengths: dict[str, int]
    df: dict[str, int]
    avgdl: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    doc_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    postings: dict[str, tuple[list[int], list[float]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n_docs = len(self.documents)
        idf = {term: math.log(1 + (n_docs - df + 0.5) / (df + 0.5)) for term, df in self.df.items()}
        doc_ids = tuple(sorted(self.documents))
        postings: dict[str, tuple[list[int], list[float]]] = {}
        for column, doc_id in enumerate(doc_ids):
            counts = self.documents[doc_id]
            if not counts:
                continue  # no postings; every document may be empty, leaving avgdl 0
            norm = self.k1 * (1 - self.b + self.b * self.doc_lengths[doc_id] / self.avgdl)
            for term, tf in counts.items():
                columns, weights = postings.setdefault(term, ([], []))
                columns.append(column)
                weights.append(idf[term] * tf * (self.k1 + 1) / (tf + norm))
        object.__setattr__(self, "doc_ids", doc_ids)
        object.__setattr__(self, "postings", postings)

    @property
    def size(self) -> int:
        return len(self.documents)


def build_index(library: SkillLibrary, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Bm25Index:
    documents: dict[str, Counter] = {}
    doc_lengths: dict[str, int] = {}
    df: Counter = Counter()
    memo, _ = _TOKEN_MEMO.get() or (None, None)
    for skill in library:
        text = f"{skill.name} {skill.description} {skill.body}"
        counts, length = _memoized(memo, text, _document_counts)
        documents[skill.id] = counts
        doc_lengths[skill.id] = length
        for term in counts:
            df[term] += 1
    avgdl = sum(doc_lengths.values()) / len(doc_lengths) if doc_lengths else 0.0
    return Bm25Index(documents=documents, doc_lengths=doc_lengths, df=dict(df), avgdl=avgdl, k1=k1, b=b)


def retrieve(index: Bm25Index, queries: Sequence[str], k: int) -> list[list[tuple[str, float]]]:
    """Top-k skill ids by BM25 score for each query, descending, ties by id;
    zero scores dropped. One ranked list per query, in query order."""
    if k < 1:
        raise InputError("k must be at least 1")
    if isinstance(queries, str):
        raise InputError("retrieve takes a sequence of queries, not a single string")
    _, memo = _TOKEN_MEMO.get() or (None, None)
    terms = [_memoized(memo, query, tokenize) for query in queries]
    rows: dict[str, int] = {}  # row 0 is the zero row
    for term in dict.fromkeys(chain.from_iterable(terms)):
        if term in index.postings:
            rows[term] = len(rows) + 1
    if not rows:
        return [[] for _ in terms]
    weights = np.zeros((len(rows) + 1, len(index.doc_ids)))
    for term, row in rows.items():
        columns, contributions = index.postings[term]
        weights[row, columns] = contributions
    lengths = np.array([len(query) for query in terms], dtype=np.intp)
    positions = np.zeros((len(terms), lengths.max()), dtype=np.intp)
    # A boolean mask fills row by row: query i's terms, then query i + 1's.
    positions[np.arange(positions.shape[1]) < lengths[:, None]] = [
        rows.get(term, 0) for term in chain.from_iterable(terms)
    ]
    scores = np.zeros((len(terms), len(index.doc_ids)))
    for j in range(positions.shape[1]):
        scores += weights[positions[:, j]]
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    top_scores = np.take_along_axis(scores, top, axis=1).tolist()
    ids = index.doc_ids
    return [
        [(ids[column], score) for column, score in zip(columns, row_scores) if score > 0.0]
        for columns, row_scores in zip(top.tolist(), top_scores)
    ]
