"""Contracts for the three model capabilities the engine depends on.

Providers are duck-typed: anything with the right method shape works. The
engine ships seeded mocks (``skillforge.providers.mock``) and an
OpenAI-compatible HTTP adapter (``skillforge.providers.http``). Every chat
reply a consumer uses comes through ``ask``, the one routine that re-asks.

A provider whose calls do all their work in this process and wait on
nothing may declare the class attribute ``in_process = True``, as the mocks
do. A run whose three providers all declare it calls them serially, since
threads would only take turns under the GIL; a provider without it (the
HTTP adapter, any duck-typed one) is taken to wait, and the stages that call
it run in thread pools bounded by ``max_workers``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol, TypeVar

import numpy as np

from skillforge.errors import InputError, ParseError

logger = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.0
DEFAULT_MAX_TOKENS = 16394
ASK_ATTEMPTS = 3
T = TypeVar("T")


@dataclass(frozen=True)
class ChatRequest:
    system: str
    user: str
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise InputError("max_tokens must be at least 1")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise InputError("temperature must be finite and non-negative")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    tokens_in: int = 0
    tokens_out: int = 0

    def __post_init__(self) -> None:
        if self.tokens_in < 0 or self.tokens_out < 0:
            raise InputError("token counts must be non-negative")


@dataclass(frozen=True)
class LikelihoodResult:
    """Sum of token log-probabilities of a continuation, plus its token count."""

    sum_logprob: float
    token_count: int

    def __post_init__(self) -> None:
        if self.token_count < 1:
            raise InputError("token_count must be at least 1")
        if not math.isfinite(self.sum_logprob):
            raise InputError("sum_logprob must be finite")


class ChatProvider(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


class EmbeddingProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class LikelihoodProvider(Protocol):
    def score_likelihood(self, condition: str, continuation: str) -> LikelihoodResult: ...


def ask(chat: ChatProvider, request: ChatRequest, parse: Callable[[str], T], what: str) -> T:
    """``parse(reply.text)`` of the first reply to ``request`` that parses.
    An unparseable one (``parse`` raises ``ParseError``) is logged and the
    request sent again; the last attempt's error is raised, naming ``what``.
    A memoizing ``chat`` (one with ``recall`` and ``accept``) is asked first
    for the value it keeps for ``request``, which is returned unparsed, and
    is told which reply was taken and what it parsed to; only accepted
    replies may be served again. ``parse`` must be pure and return an
    immutable value, since a kept one is served to every later ask."""
    recalled = getattr(chat, "recall", lambda request: None)(request)
    if recalled is not None:
        return recalled
    for attempt in range(1, ASK_ATTEMPTS + 1):
        reply = chat.complete(request)
        try:
            parsed = parse(reply.text)
        except ParseError as exc:
            logger.warning("unparseable reply for %s (attempt %d of %d): %s", what, attempt, ASK_ATTEMPTS, exc)
            error = exc
            continue
        getattr(chat, "accept", lambda request, reply, parsed: None)(request, reply, parsed)
        return parsed
    raise type(error)(f"no parseable reply for {what} in {ASK_ATTEMPTS} attempts: {error}") from error


def validate_embed_inputs(texts: Sequence[str]) -> list[str]:
    texts = list(texts)
    for text in texts:
        if not text:
            raise InputError("cannot embed an empty text")
    return texts


def validate_continuation(continuation: str) -> None:
    if not continuation:
        raise InputError("continuation must be non-empty")
