"""Memo tables that live for one top-level call.

``run_kfold`` and ``evolve_library`` each open one ``scope()``; inside it,
``table(name)`` returns that scope's dict for ``name`` (created on first
use), and outside any scope it returns ``None``, so nothing is kept between
calls. A nested scope starts with tables of its own and the outer ones
return when it ends. Every table is keyed by a value's whole input (an LP
model, a text), never by a name that could mean different inputs, so a hit
returns what a fresh computation would. The tables in use: ``"lp"``
(``cover.lp_round_select``) and ``"documents"`` (``retrieval.build_index``).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_TABLES: ContextVar[dict[str, dict] | None] = ContextVar("memo_tables", default=None)


@contextmanager
def scope() -> Iterator[None]:
    """Give every table a fresh, empty dict inside the block."""
    token = _TABLES.set({})
    try:
        yield
    finally:
        _TABLES.reset(token)


def table(name: str) -> dict | None:
    """The innermost scope's table ``name``, or ``None`` outside any scope."""
    tables = _TABLES.get()
    return None if tables is None else tables.setdefault(name, {})


def cached(memo: dict | None, key: K, compute: Callable[[K], V]) -> V:
    """``compute(key)``, kept in ``memo`` on a miss and served from it on a
    hit; with no table (``None``), computed afresh every time."""
    if memo is None:
        return compute(key)
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute(key)
    return value
