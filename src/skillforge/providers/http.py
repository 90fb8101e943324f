"""HTTP adapter for OpenAI-compatible provider endpoints.

Request and response shapes:

* ``complete`` posts to a chat-completions endpoint:
  ``{"model", "messages": [{"role": "system"|"user", "content"}],
  "temperature", "max_tokens"}`` and reads
  ``choices[0].message.content`` plus ``usage.prompt_tokens`` /
  ``usage.completion_tokens``.
* ``embed`` posts ``{"model", "input": [texts]}`` to an embeddings endpoint
  and reads ``data[*].embedding``; vectors are re-normalized to unit length.
* ``score_likelihood`` posts ``{"model", "prompt": condition + continuation,
  "max_tokens": 0, "echo": true, "logprobs": 0}`` to a completions endpoint
  and sums ``choices[0].logprobs.token_logprobs`` over tokens whose
  ``text_offset`` lies inside the continuation span.

Prompt text is forwarded byte-for-byte; the adapter never rewrites payload
strings. A response body that is not JSON, one of the wrong shape, or one
with a value that cannot be read (a non-numeric or negative count, ragged
vectors, a non-finite logprob) raises ``ProviderError``, which is not
retried; an empty completion raises ``GenerationError``.
Transport failures and HTTP 5xx responses are retried with exponential
backoff, for at most ``retries`` attempts in all, with one warning logged
per retry; 4xx responses are not retried.

Endpoints come from ``SKILLFORGE_CHAT_URL``, ``SKILLFORGE_EMBED_URL``,
``SKILLFORGE_LOGPROB_URL``, and ``SKILLFORGE_API_KEY``.
"""

from __future__ import annotations

import logging
import os
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from skillforge.errors import ConfigError, GenerationError, InputError, ProviderError
from skillforge.providers.base import (
    ChatRequest,
    ChatResponse,
    LikelihoodResult,
    validate_continuation,
    validate_embed_inputs,
)

logger = logging.getLogger(__name__)

ENV_CHAT_URL = "SKILLFORGE_CHAT_URL"
ENV_EMBED_URL = "SKILLFORGE_EMBED_URL"
ENV_LOGPROB_URL = "SKILLFORGE_LOGPROB_URL"
ENV_API_KEY = "SKILLFORGE_API_KEY"

Transport = Callable[[str, dict, dict], dict]


def _requests_transport(url: str, payload: dict, headers: dict) -> dict:
    import requests

    try:
        response = requests.post(url, json=payload, headers=headers, timeout=120)
    except requests.RequestException as exc:
        raise ProviderError(f"transport failure: {exc}", retryable=True) from exc
    if response.status_code >= 500:
        raise ProviderError(f"server error {response.status_code}", retryable=True)
    if response.status_code >= 400:
        raise ProviderError(f"request rejected: {response.status_code} {response.text[:200]}")
    try:
        return response.json()
    except ValueError as exc:
        raise ProviderError(f"malformed response from {url}: the body is not JSON: {exc}") from exc


@dataclass
class HttpConfig:
    """Endpoints, models and retry policy. ``retries`` counts attempts, the
    first included: 3 sends a request at most three times, sleeping
    ``backoff_base``, then twice as long, before each repeat."""

    chat_url: str = ""
    embed_url: str = ""
    logprob_url: str = ""
    api_key: str = ""
    chat_model: str = "default"
    embed_model: str = "default"
    score_model: str = "default"
    retries: int = 3
    backoff_base: float = 0.5
    transport: Transport = field(default_factory=lambda: _requests_transport)
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.retries < 1:
            raise ConfigError(f"retries counts attempts and must be at least 1, got {self.retries}")

    @classmethod
    def from_env(cls, **overrides) -> HttpConfig:
        values = {
            "chat_url": os.environ.get(ENV_CHAT_URL, ""),
            "embed_url": os.environ.get(ENV_EMBED_URL, ""),
            "logprob_url": os.environ.get(ENV_LOGPROB_URL, ""),
            "api_key": os.environ.get(ENV_API_KEY, ""),
        }
        values.update(overrides)
        return cls(**values)

    def headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers


@contextmanager
def _reading(what: str) -> Iterator[None]:
    """Turn any fault in reading a response body into a ``ProviderError``."""
    try:
        yield
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError, InputError) as exc:
        raise ProviderError(f"malformed {what} response: {exc!r}") from exc


class _HttpBase:
    def __init__(self, config: HttpConfig) -> None:
        self.config = config

    def _post(self, url: str, payload: dict) -> dict:
        if not url:
            raise ConfigError("provider endpoint URL is not configured")
        attempts = self.config.retries
        delay = self.config.backoff_base
        for attempt in range(1, attempts + 1):
            try:
                return self.config.transport(url, payload, self.config.headers())
            except ProviderError as exc:
                if not exc.retryable or attempt == attempts:
                    raise
                logger.warning("retrying %s after attempt %d of %d failed: %s", url, attempt, attempts, exc)
                self.config.sleep(delay)
                delay *= 2
        raise ProviderError("unreachable retry state")  # pragma: no cover


class HttpChatProvider(_HttpBase):
    def complete(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": self.config.chat_model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        raw = self._post(self.config.chat_url, payload)
        with _reading("chat"):
            text = raw["choices"][0]["message"]["content"]
            if not text:
                raise GenerationError("provider returned an empty completion")
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not a string")
            usage = raw.get("usage", {})
            return ChatResponse(
                text=text,
                tokens_in=int(usage.get("prompt_tokens", 0)),
                tokens_out=int(usage.get("completion_tokens", 0)),
            )


class HttpEmbeddingProvider(_HttpBase):
    def embed(self, texts: Sequence[str]) -> np.ndarray:
        texts = validate_embed_inputs(texts)
        payload = {"model": self.config.embed_model, "input": list(texts)}
        raw = self._post(self.config.embed_url, payload)
        with _reading("embedding"):
            vectors = np.array([row["embedding"] for row in raw["data"]], dtype=np.float64)
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        if vectors.shape[0] != len(texts):
            raise ProviderError("embedding response count does not match input count")
        norms[norms == 0] = 1.0
        return vectors / norms


class HttpLikelihoodProvider(_HttpBase):
    def score_likelihood(self, condition: str, continuation: str) -> LikelihoodResult:
        validate_continuation(continuation)
        prompt = condition + continuation
        payload = {
            "model": self.config.score_model,
            "prompt": prompt,
            "max_tokens": 0,
            "echo": True,
            "logprobs": 0,
        }
        raw = self._post(self.config.logprob_url, payload)
        with _reading("logprob"):
            logprobs = raw["choices"][0]["logprobs"]
            boundary = len(condition)
            total = 0.0
            count = 0
            for offset, logprob in zip(logprobs["text_offset"], logprobs["token_logprobs"]):
                if offset < boundary:
                    continue
                count += 1
                if logprob is not None:
                    total += float(logprob)
            if count == 0:
                raise ProviderError("no tokens fell inside the continuation span")
            return LikelihoodResult(sum_logprob=total, token_count=count)
