"""BM25 retrieval over the skill library.

Documents are the concatenated name, description, and body of each skill.
The tokenizer lowercases and splits on non-alphanumeric characters. IDF uses
the always-nonnegative variant ln(1 + (N - df + 0.5) / (df + 0.5)), which
avoids negative weights on tiny corpora.

An index stores each statistic once: the skill id of each column
(documents become columns in append order), each column's length in tokens,
and per term the postings ``(columns, tfs)``, the columns of the documents
holding it and its count in each. A term's document frequency is the length
of its posting; ``avgdl``, the columns in id order and the size are derived.
``build_index(library, base=previous)`` grows the previous epoch's index,
which is safe because an epoch only ever adds skills: it copies ``base``'s
columns, lengths and postings, tokenizes only the skills ``base`` lacks,
appends them as new columns, shares every posting they do not touch and
concatenates the ones they do, and never writes to ``base``.

A ``QueryBatch`` prepares query texts once for any number of ``retrieve``
calls, against indexes that may differ: it tokenizes each text and holds an
n × L matrix of the batch's term ids, padded with 0. ``retrieve`` makes a
plain sequence of texts into a batch on entry, so every call takes one path.

``retrieve`` computes BM25 contributions for the batch's known terms only,
in the order of operations a full scan uses: idf per term with
``math.log(1 + (N - df + 0.5) / (df + 0.5))``, the length norm
``K1 * ((1 - B) + B * dl / avgdl)`` with numpy, and every contribution in
one vectorized ``idf * tf * (K1 + 1) / (tf + norm)``, where ``K1`` and
``B`` are the module's fixed BM25 parameters. It fills a dense matrix
``weights`` with one row per known term (row 0 is all zeros) and one column
per document in id order: each column's weight goes to the id-order
position that the index computed once at build time, because appended
``evo-...`` ids sort before ``human-...`` ones. A query is keyed by the
rows of its known terms, in query order, duplicates included, padded with
row 0; its unknown terms are left out, since their row 0 would only add
``x + 0.0``. Queries with equal keys get the same scores, so each distinct
key is scored and ranked once, into a tuple that every query with that key
shares: no copy is made per query, and being immutable, no caller can
change another query's ranking through it. Scores start at zero and
``scores += weights[keys[:, j]]`` adds position j of every key at once. A
document therefore receives its contributions one at a time, in query
order, like a term-by-term loop; every other add is ``x + 0.0``, which is
exact for the non-negative finite scores BM25 produces, so every score is
the same float a full scan computes. Each key's top k come from ``min(k,
N)`` passes of ``argmax``, each setting the picked score to -1, below any
BM25 score: ``argmax`` returns the first maximum, so tied documents keep id
order, exactly as sorting ``(-score, id)`` would. Scores that are not
positive are dropped.

Inside a ``memo.scope()`` (one per ``harness._protocol`` call, which
``run_kfold`` and ``evolve_library`` both make, across all its run seeds)
each distinct document text is tokenized once, kept as its
``(Counter, length)`` in the ``"documents"`` table. It is keyed by the text
itself, never by a skill id: one ``candidate_id`` can name different bodies
in different folds, while equal texts always tokenize alike. This pays even
with grown indexes: every fold starts from an initial library drawn from the
same human skills, and candidate texts recur across folds and run seeds, so
a fold's appended skills are often texts an earlier fold already tokenized.
The cached values are never mutated. Outside any scope nothing is cached, so
separate calls share no work.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress

import numpy as np

from skillforge import memo
from skillforge.errors import InputError
from skillforge.model import SkillLibrary

_TOKEN_RE = re.compile(r"[a-z0-9]+")

K1 = 1.2
B = 0.75


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _document_counts(text: str) -> tuple[Counter, int]:
    tokens = tokenize(text)
    return Counter(tokens), len(tokens)


@dataclass(frozen=True)
class Bm25Index:
    """BM25 statistics, each stored once: ``columns`` holds the skill ids in
    append order, ``lengths`` each column's token count, and ``postings``
    maps a term to the columns holding it and its count in each. A term's
    document frequency is the length of its posting. ``avgdl``, ``doc_ids``
    (the columns in id order), ``size`` and the arrays ``retrieve`` reads are
    derived from these at construction."""

    columns: tuple[str, ...] = ()
    lengths: tuple[int, ...] = ()
    postings: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=dict)
    avgdl: float = field(init=False, repr=False, compare=False)
    doc_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _lengths: np.ndarray = field(init=False, repr=False, compare=False)
    _id_rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        columns = self.columns
        by_id = sorted(range(len(columns)), key=columns.__getitem__)
        id_rank = np.empty(len(columns), dtype=np.intp)
        id_rank[by_id] = np.arange(len(columns))
        object.__setattr__(self, "avgdl", sum(self.lengths) / len(self.lengths) if self.lengths else 0.0)
        object.__setattr__(self, "doc_ids", tuple(columns[column] for column in by_id))
        object.__setattr__(self, "_lengths", np.array(self.lengths, dtype=float))
        object.__setattr__(self, "_id_rank", id_rank)

    @property
    def size(self) -> int:
        return len(self.columns)


def build_index(library: SkillLibrary, base: Bm25Index | None = None) -> Bm25Index:
    """The BM25 index of ``library``, whose skills become columns in library
    order. ``base``, an index of some of the library's skills (the library of
    an earlier epoch), is grown rather than rebuilt: its columns come first,
    their lengths and postings copied, only the skills it lacks are tokenized
    and appended after them, and ``base`` itself is left as it was."""
    base = base or Bm25Index()
    unknown = sorted(set(base.columns) - set(library.ids()))
    if unknown:
        raise InputError(f"base index holds skills the library lacks: {unknown[:5]}")
    columns, lengths, postings = list(base.columns), list(base.lengths), dict(base.postings)
    known = set(columns)
    appended: dict[str, tuple[list[int], list[int]]] = {}
    documents = memo.table("documents")
    for skill in library:
        if skill.id in known:
            continue
        text = f"{skill.name} {skill.description} {skill.body}"
        counts, length = memo.cached(documents, text, _document_counts)
        for term, tf in counts.items():
            cols, tfs = appended.setdefault(term, ([], []))
            cols.append(len(columns))
            tfs.append(tf)
        columns.append(skill.id)
        lengths.append(length)
    for term, (cols, tfs) in appended.items():
        old_cols, old_tfs = postings.get(term, ((), ()))
        postings[term] = (old_cols + tuple(cols), old_tfs + tuple(tfs))
    return Bm25Index(tuple(columns), tuple(lengths), postings)


class QueryBatch(tuple):
    """Query texts prepared once for any number of ``retrieve`` calls, over
    indexes that may differ: the tuple of the texts, ``terms``, the batch's
    distinct terms in order of first use, and ``term_ids``, an n × L matrix
    whose row i holds query i's tokens as ids (term j has id j + 1), padded
    with 0."""

    terms: tuple[str, ...]
    term_ids: np.ndarray

    def __new__(cls, queries: Iterable[str]) -> QueryBatch:
        if isinstance(queries, str):
            raise InputError("retrieve takes a sequence of queries, not a single string")
        batch = super().__new__(cls, queries)
        tokens = [tokenize(query) for query in batch]
        ids: dict[str, int] = {}
        flat = [ids.setdefault(term, len(ids) + 1) for term in chain.from_iterable(tokens)]
        batch.terms = tuple(ids)
        batch.term_ids = _padded(np.array([len(query) for query in tokens], dtype=np.intp), flat)
        return batch


def _padded(lengths: np.ndarray, values) -> np.ndarray:
    """An n × max(lengths) matrix whose row i holds the next ``lengths[i]``
    of ``values``, padded with 0: a boolean mask fills row by row."""
    matrix = np.zeros((len(lengths), lengths.max(initial=0)), dtype=np.intp)
    matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = values
    return matrix


def distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer matrix, sorted, and each row's
    position among them: sorted by ``np.lexsort``, a row is new where it
    differs from the one before. (``np.unique`` would page in the code of
    another sort, about 0.3 MB of resident memory on first use.)"""
    order = np.lexsort(matrix.T)
    ordered = matrix[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = np.cumsum(new) - 1
    return ordered[new], slot


class Rankings(list):
    """``retrieve``'s result: one ranking per query, in query order, with
    ``distinct``, each distinct key's ranking, and ``slot``, an array of
    each query's position in ``distinct``."""

    def __init__(self, distinct: list[tuple[tuple[str, float], ...]], slot: np.ndarray) -> None:
        super().__init__(map(distinct.__getitem__, slot.tolist()))
        self.distinct, self.slot = distinct, slot


def retrieve(index: Bm25Index, queries: Sequence[str], k: int) -> Rankings:
    """Top-k skill ids by BM25 score for each query, descending, ties by id;
    zero scores dropped. One ranking per query, in query order: a tuple of
    ``(id, score)`` pairs, one object shared by all queries with equal keys,
    in a ``Rankings`` that also holds each key's ranking and each query's
    key. ``queries`` is a ``QueryBatch`` or a sequence of texts made into one."""
    if k < 1:
        raise InputError("k must be at least 1")
    if not isinstance(queries, QueryBatch):
        queries = QueryBatch(queries)
    # Row 0 is the zero row; known terms get rows 1.. in batch order.
    known = list(map(index.postings.__contains__, queries.terms))
    rows = list(compress(queries.terms, known))
    if not rows:  # also every index whose avgdl is 0: it has no postings
        return Rankings([()], np.zeros(len(queries), dtype=np.intp))
    row_of = np.zeros(len(known) + 1, dtype=np.intp)
    row_of[1:][known] = np.arange(1, len(rows) + 1)
    # A query's key is its known terms' rows, in order, duplicates included,
    # padded with row 0. Equal keys score alike, so each distinct key is
    # scored and ranked once.
    query_rows = row_of[queries.term_ids]
    known_at = query_rows != 0
    keys, slot_of = distinct_rows(_padded(np.count_nonzero(known_at, axis=1), query_rows[known_at]))
    n_docs = index.size
    postings = [index.postings[term] for term in rows]
    per_term = [len(term_columns) for term_columns, _ in postings]  # each term's df
    idf = [math.log(1 + (n_docs - df + 0.5) / (df + 0.5)) for df in per_term]
    posted = np.fromiter(chain.from_iterable(c for c, _ in postings), dtype=np.intp)
    tf = np.fromiter(chain.from_iterable(t for _, t in postings), dtype=float)
    norm = K1 * ((1 - B) + B * index._lengths / index.avgdl)
    contributions = np.repeat(idf, per_term) * tf * (K1 + 1) / (tf + norm[posted])
    weights = np.zeros((len(rows) + 1, n_docs))
    weights[np.repeat(np.arange(1, len(rows) + 1), per_term), index._id_rank[posted]] = contributions
    scores = np.zeros((len(keys), n_docs))
    for key_rows in keys.T:
        scores += weights[key_rows]
    # argmax takes the first maximum, in id order, as a stable sort would;
    # a picked score becomes -1, below every BM25 score.
    every_key = np.arange(len(keys))
    top = np.empty((len(keys), min(k, n_docs)), dtype=np.intp)
    top_scores = np.empty(top.shape)
    for j in range(top.shape[1]):
        top[:, j] = columns = scores.argmax(axis=1)
        top_scores[:, j] = scores[every_key, columns]
        scores[every_key, columns] = -1.0
    # No score is negative, so each row's positive scores are its first ones.
    positive = np.count_nonzero(top_scores > 0.0, axis=1).tolist()
    ids = index.doc_ids
    ranked = [
        tuple(zip(map(ids.__getitem__, columns[:n]), row_scores[:n]))
        for columns, row_scores, n in zip(top.tolist(), top_scores.tolist(), positive)
    ]
    return Rankings(ranked, slot_of)
