from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillforge import memo
from skillforge.errors import InputError
from skillforge.model import SkillLibrary
from skillforge.retrieval import B, K1, Bm25Index, QueryBatch, build_index, retrieve, tokenize

from conftest import make_skill


def _library(bodies: dict[str, str]) -> SkillLibrary:
    skills = tuple(make_skill(sid, tags=(), name="", description="", body=body) for sid, body in bodies.items())
    return SkillLibrary(skills=skills)


def test_tokenizer_lowercases_and_splits_non_alphanumeric():
    assert tokenize("PDF_text, Extraction! 2x") == ["pdf", "text", "extraction", "2x"]


def test_empty_library_index_returns_nothing():
    index = build_index(SkillLibrary())
    assert index.size == 0
    assert retrieve(index, ["anything at all"], 5)[0] == ()


def _by_id(index: Bm25Index) -> tuple:
    """The index's statistics keyed by skill id instead of column: each
    skill's length, per term its ``(id, tf)`` postings in id order, and avgdl."""
    lengths = dict(zip(index.columns, index.lengths))
    postings = {
        term: sorted((index.columns[column], tf) for column, tf in zip(columns, tfs))
        for term, (columns, tfs) in index.postings.items()
    }
    return lengths, postings, index.avgdl


def test_single_document_statistics():
    index = build_index(_library({"d1": "pdf extraction"}))
    assert _by_id(index) == ({"d1": 2}, {"pdf": [("d1", 1)], "extraction": [("d1", 1)]}, 2.0)


def test_rebuild_gives_identical_statistics():
    library = _library({"d1": "alpha beta", "d2": "beta gamma gamma"})
    a, b = build_index(library), build_index(library)
    assert _by_id(a) == _by_id(b) == (
        {"d1": 2, "d2": 3},
        {"alpha": [("d1", 1)], "beta": [("d1", 1), ("d2", 1)], "gamma": [("d2", 2)]},
        2.5,
    )


def test_unique_term_ranks_its_document_first():
    library = _library({"d1": "alpha beta", "d2": "gamma delta", "d3": "beta epsilon"})
    results = retrieve(build_index(library), ["gamma"], 3)[0]
    assert results[0][0] == "d2"
    assert len(results) == 1  # zero-score documents excluded


def test_query_without_indexed_terms_is_empty():
    library = _library({"d1": "alpha beta"})
    assert retrieve(build_index(library), ["zeta eta"], 5)[0] == ()


def test_k_must_be_positive():
    with pytest.raises(InputError):
        retrieve(build_index(_library({"d1": "alpha"})), ["alpha"], 0)


def test_three_document_fixture_matches_hand_computation():
    # All documents have length 3 = avgdl, so the tf factor is exactly 1 and
    # each matched term contributes its idf: ln(1 + (N - df + 0.5)/(df + 0.5)).
    library = _library(
        {
            "d1": "table formatting basics",
            "d2": "pdf table extraction",
            "d3": "video editing guide",
        }
    )
    results = retrieve(build_index(library), ["table formatting"], 3)[0]
    idf_table = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))
    idf_formatting = math.log(1 + (3 - 1 + 0.5) / (1 + 0.5))
    assert [doc for doc, _ in results] == ["d1", "d2"]
    assert results[0][1] == pytest.approx(idf_table + idf_formatting, abs=1e-12)
    assert results[1][1] == pytest.approx(idf_table, abs=1e-12)


def test_ties_break_by_document_id():
    library = _library({"d_b": "table notes extra", "d_a": "table other words"})
    results = retrieve(build_index(library), ["table"], 2)[0]
    assert [doc for doc, _ in results] == ["d_a", "d_b"]
    assert results[0][1] == pytest.approx(results[1][1])


def test_adding_unrelated_document_preserves_relative_order():
    # With uniform document lengths (avgdl unchanged) and every query term at
    # the same document frequency, the idf shift from growing the corpus is a
    # common factor, so prior ranks provably survive. Mixed-length corpora do
    # not carry this guarantee.
    rng = random.Random(13)
    doc_len = 6
    for trial in range(20):
        n_docs = rng.randint(3, 6)
        query_terms = [f"q{trial}term{j}" for j in range(3)]
        bodies = {f"d{i:02d}": [] for i in range(n_docs)}
        for term in query_terms:
            for doc in rng.sample(sorted(bodies), 2):
                bodies[doc].append(term)
        filler = 0
        for doc in bodies:
            while len(bodies[doc]) < doc_len:
                bodies[doc].append(f"filler{trial}x{filler}")
                filler += 1
        text_bodies = {doc: " ".join(tokens) for doc, tokens in bodies.items()}
        query = " ".join(query_terms)
        before = [doc for doc, _ in retrieve(build_index(_library(text_bodies)), [query], n_docs)[0]]
        text_bodies["zz_new"] = " ".join(f"unrelated{trial}x{j}" for j in range(doc_len))
        after = [doc for doc, _ in retrieve(build_index(_library(text_bodies)), [query], n_docs + 1)[0]]
        assert [d for d in after if d != "zz_new"] == before


def test_adding_unrelated_document_never_changes_the_matching_set():
    rng = random.Random(29)
    vocabulary = [f"w{i}" for i in range(12)]
    for _ in range(20):
        bodies = {
            f"d{i:02d}": " ".join(rng.choices(vocabulary, k=rng.randint(2, 8)))
            for i in range(rng.randint(2, 6))
        }
        query = " ".join(rng.sample(vocabulary, 3))
        before = {doc for doc, _ in retrieve(build_index(_library(bodies)), [query], len(bodies))[0]}
        bodies["zz_new"] = "unrelatedterm anotherunrelated"
        after = {doc for doc, _ in retrieve(build_index(_library(bodies)), [query], len(bodies))[0]}
        assert after - {"zz_new"} == before


def test_retrieve_full_depth_returns_all_positive_scoring():
    library = _library({"d1": "alpha beta", "d2": "alpha", "d3": "gamma"})
    results = retrieve(build_index(library), ["alpha"], 3)[0]
    assert {doc for doc, _ in results} == {"d1", "d2"}


def test_retrieval_is_deterministic():
    library = _library({"d1": "alpha beta gamma", "d2": "beta gamma", "d3": "gamma delta"})
    index = build_index(library)
    assert retrieve(index, ["beta gamma"], 3)[0] == retrieve(index, ["beta gamma"], 3)[0]


def test_library_of_empty_documents_returns_nothing():
    # Every document tokenizes to nothing, so avgdl is 0.
    library = SkillLibrary(skills=(make_skill("s1", tags=(), name="\u2014", description="", body="!!!"),))
    index = build_index(library)
    assert index.avgdl == 0.0
    assert retrieve(index, ["anything"], 5)[0] == ()


def test_bare_string_is_rejected():
    # A str is a Sequence[str]; taken as a batch it would rank each character.
    with pytest.raises(InputError):
        retrieve(build_index(_library({"d1": "alpha"})), "alpha", 3)


def test_batch_returns_one_ranking_per_query_in_order():
    library = _library({"d1": "alpha beta", "d2": "gamma", "d3": "alpha alpha"})
    index = build_index(library)
    queries = ["gamma", "", "alpha", "absent words", "alpha"]
    batch = retrieve(index, queries, 2)
    assert batch == [retrieve(index, [query], 2)[0] for query in queries]
    assert batch[1] == () and batch[3] == ()
    assert batch[2] == batch[4]
    assert retrieve(index, [], 2) == []


def test_many_tied_documents_keep_id_order():
    # Long enough rows that an unstable sort would reorder the ties.
    rng = random.Random(5)
    ids = [f"d{i:03d}" for i in range(300)]
    rng.shuffle(ids)
    bodies = {sid: rng.choice(["table a", "table b", "chart c", "table table d"]) for sid in ids}
    library = _library(bodies)
    built = build_index(library)
    # The same skills grown one at a time in shuffled order, so its columns
    # are in shuffled rather than id order.
    shuffled = None
    for end in range(1, len(ids) + 1):
        shuffled = build_index(_library({sid: bodies[sid] for sid in ids[:end]}), base=shuffled)
    assert shuffled.columns == tuple(ids) and built.columns == tuple(sorted(ids))
    queries = ["table", "chart table", "table chart table"]
    expected = [_full_scan(library, q, 400) for q in queries]
    for index in (built, shuffled):
        assert retrieve(index, queries, 400) == expected


def _full_scan(library: SkillLibrary, query: str, k: int) -> tuple[tuple[str, float], ...]:
    """Reference: tokenize every skill of ``library`` and score it term by
    term from its own counts, document frequencies and average length."""
    terms = tokenize(query)
    counts = {
        skill.id: Counter(tokenize(f"{skill.name} {skill.description} {skill.body}")) for skill in library
    }
    if not terms or not counts:
        return ()
    df = Counter(term for doc in counts.values() for term in doc)
    avgdl = sum(doc.total() for doc in counts.values()) / len(counts)
    scored: list[tuple[str, float]] = []
    for doc_id in sorted(counts):
        doc = counts[doc_id]
        if not doc:
            continue  # an empty document matches nothing (and avgdl may be 0)
        norm = K1 * (1 - B + B * doc.total() / avgdl)
        score = 0.0
        for term in terms:
            tf = doc.get(term, 0)
            if tf == 0:
                continue
            idf = math.log(1 + (len(counts) - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * tf * (K1 + 1) / (tf + norm)
        if score > 0.0:
            scored.append((doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(scored[:k])


# A small vocabulary makes shared terms, repeated terms and tied documents common.
_WORDS = st.sampled_from(["alpha", "beta", "gamma", "delta", "eps", "zeta", "x1", "x2"])
_QUERY = st.lists(st.one_of(_WORDS, st.just("absent"), st.just("")), max_size=12)


def _batch(queries: list[list[str]]) -> list[str]:
    """The drawn queries, each beside a copy with unindexed words spliced in,
    then all of them again in reverse order, then a query with no indexed
    word: equal keys recur both next to each other and far apart."""
    texts = []
    for query in queries:
        texts += [" ".join(query), " ".join(["nowhere", *query[:1], "absent", *query[1:], "nowhere"])]
    return texts + texts[::-1] + ["absent nowhere"]


def _retrieve_shared(index: Bm25Index, texts: list[str], k: int) -> list[tuple[tuple[str, float], ...]]:
    """``retrieve``, checking that every ranking is a tuple, that queries
    with equal keys (their indexed terms, in order) share one object, and
    that the per-key results name each query's ranking by its slot."""
    results = retrieve(index, texts, k)
    assert all(type(result) is tuple for result in results)
    assert [results.distinct[slot] for slot in results.slot.tolist()] == list(results)
    assert all(results.distinct[slot] is result for slot, result in zip(results.slot.tolist(), results))
    assert len(set(map(id, results.distinct))) == len(results.distinct)
    shared: dict[tuple[str, ...], tuple] = {}
    for text, result in zip(texts, results):
        key = tuple(term for term in tokenize(text) if term in index.postings)
        assert shared.setdefault(key, result) is result
    return results


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    bodies=st.lists(st.lists(st.one_of(_WORDS, st.just("!!")), max_size=9), min_size=1, max_size=10),
    copies=st.integers(min_value=0, max_value=2),
    queries=st.lists(_QUERY, max_size=8),
    k=st.integers(min_value=1, max_value=14),
)
def test_postings_match_the_full_scan_exactly(bodies, copies, queries, k):
    # Copies of the first body make tied documents; "!!" tokenizes to nothing,
    # so some corpora hold only empty documents.
    bodies = bodies + [bodies[0]] * copies
    library = _library({f"d{i:02d}": " ".join(words) for i, words in enumerate(bodies)})
    index = build_index(library)
    texts = _batch(queries)
    assert _retrieve_shared(index, texts, k) == [_full_scan(library, text, k) for text in texts]


def test_equal_queries_share_one_immutable_ranking():
    library = _library({"d1": "alpha beta", "d2": "beta gamma"})
    index = build_index(library)
    first, second, spliced, other = retrieve(index, ["beta", "beta", "absent beta", "gamma"], 2)
    assert first == second == spliced == _full_scan(library, "beta", 2)
    assert first is second is spliced and other is not first
    # A caller cannot change one query's ranking, and so not another's.
    with pytest.raises(AttributeError):
        first.clear()
    with pytest.raises(TypeError):
        first[0] = ("d9", 1.0)
    assert second == spliced == _full_scan(library, "beta", 2)


def _counting_tokenize(monkeypatch) -> list[str]:
    import skillforge.retrieval as retrieval

    calls: list[str] = []
    original = retrieval.tokenize

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(retrieval, "tokenize", counting)
    return calls


def test_outside_a_token_memo_nothing_is_cached(monkeypatch):
    calls = _counting_tokenize(monkeypatch)
    library = _library({"d1": "alpha beta", "d2": "beta gamma"})
    for _ in range(2):
        retrieve(build_index(library), ["beta", "gamma"], 2)
    assert len(calls) == 2 * (len(library) + 2)
    calls.clear()
    with memo.scope():
        with memo.scope():
            retrieve(build_index(library), ["beta", "gamma"], 2)
        retrieve(build_index(library), ["beta", "gamma"], 2)  # the inner scope's tables ended with it
        retrieve(build_index(library), ["beta", "gamma"], 2)  # documents served by the outer scope's table
    # Queries are never memoized: each call tokenizes both again.
    assert len(calls) == 2 * len(library) + 3 * 2


def test_a_token_memo_tokenizes_each_document_text_once_and_changes_no_score(monkeypatch):
    library = _library({"d1": "alpha beta beta", "d2": "beta gamma", "d3": "gamma"})
    grown = _library({"d1": "alpha beta beta", "d2": "beta gamma", "d3": "gamma", "d4": "delta beta"})
    # One id may name different bodies in different folds.
    renamed = _library({"d1": "delta delta", "d2": "beta gamma"})
    libraries = (library, grown, renamed)
    queries = ["beta gamma", "delta", "beta gamma"]
    plain = [(build_index(lib), retrieve(build_index(lib), queries, 3)) for lib in libraries]
    calls = _counting_tokenize(monkeypatch)
    with memo.scope():
        memoized = [(build_index(lib), retrieve(build_index(lib), queries, 3)) for lib in libraries]
    assert memoized == plain
    documents = [text for text in calls if text not in queries]
    assert sorted(documents) == sorted(set(documents))
    assert len(documents) == len(grown) + 1
    assert len(calls) - len(documents) == len(libraries) * len(queries)


def _frozen(index: Bm25Index) -> tuple:
    """Everything an index holds, copied deep enough to see any later write."""
    return (
        _by_id(index), index.columns, index.lengths, dict(index.postings), index.doc_ids,
        index._lengths.tolist(), index._id_rank.tolist(),
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    # Ids in drawn order: later batches often hold ids that sort first.
    docs=st.dictionaries(
        st.text(alphabet="abcz-", min_size=1, max_size=3),
        st.lists(st.one_of(_WORDS, st.just("!!")), max_size=9),
        min_size=1,
        max_size=14,
    ),
    cuts=st.lists(st.integers(0, 14), max_size=4),
    queries=st.lists(_QUERY, min_size=1, max_size=6),
    k=st.integers(min_value=1, max_value=16),
)
def test_a_chain_of_grown_indexes_ranks_like_fresh_builds(docs, cuts, queries, k):
    bodies = [(doc_id, " ".join(words)) for doc_id, words in docs.items()]
    texts = _batch(queries)
    index = None
    for end in sorted(set(cuts) | {len(bodies)}):
        library = _library(dict(bodies[:end]))
        before = None if index is None else _frozen(index)
        grown = build_index(library, base=index)
        if index is not None:
            assert _frozen(index) == before
        fresh = build_index(library)
        assert _by_id(grown) == _by_id(fresh)
        assert grown.doc_ids == fresh.doc_ids
        expected = [_full_scan(library, text, k) for text in texts]
        assert _retrieve_shared(grown, texts, k) == _retrieve_shared(fresh, texts, k) == expected
        index = grown


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    docs=st.dictionaries(
        st.text(alphabet="abcz-", min_size=1, max_size=3),
        st.lists(st.one_of(_WORDS, st.just("!!")), max_size=9),
        min_size=1,
        max_size=14,
    ),
    copies=st.integers(min_value=0, max_value=3),
    cuts=st.lists(st.integers(0, 17), max_size=4),
    queries=st.lists(_QUERY, max_size=6),
    k=st.integers(min_value=1, max_value=20),
)
def test_one_prepared_batch_ranks_like_plain_texts_across_grown_indexes(docs, copies, cuts, queries, k):
    # Copies of the first body make tied documents; k may exceed the document
    # count; _batch adds queries with no known term. The batch is prepared
    # once, before any index, and reused while the vocabulary grows.
    bodies = [(doc_id, " ".join(words)) for doc_id, words in docs.items()]
    bodies += [(f"{bodies[0][0]}~{i}", bodies[0][1]) for i in range(copies)]
    texts = _batch(queries)
    batch = QueryBatch(texts)
    term_ids = batch.term_ids.copy()
    assert batch == tuple(texts)
    index = None
    for end in sorted(set(cuts) | {len(bodies)}):
        library = _library(dict(bodies[:end]))
        index = build_index(library, base=index)
        expected = [_full_scan(library, text, k) for text in texts]
        assert _retrieve_shared(index, batch, k) == retrieve(index, texts, k) == expected
        assert np.array_equal(batch.term_ids, term_ids)


def test_a_grown_index_tokenizes_only_the_new_skills(monkeypatch):
    first = _library({"m1": "alpha beta", "z9": "beta"})
    grown = _library({"m1": "alpha beta", "z9": "beta", "a0": "alpha gamma", "n5": "!!"})
    base = build_index(first)
    calls = _counting_tokenize(monkeypatch)
    index = build_index(grown, base=base)
    assert sorted(text.strip() for text in calls) == ["!!", "alpha gamma"]
    assert index.doc_ids == ("a0", "m1", "n5", "z9")
    assert index.columns == ("m1", "z9", "a0", "n5")
    assert retrieve(index, ["alpha"], 4) == [_full_scan(grown, "alpha", 4)]


def test_a_base_with_a_skill_the_library_lacks_is_rejected():
    base = build_index(_library({"d1": "alpha", "d2": "beta"}))
    with pytest.raises(InputError, match="d2"):
        build_index(_library({"d1": "alpha", "d3": "gamma"}), base=base)
