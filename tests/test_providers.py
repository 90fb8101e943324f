from __future__ import annotations

import json
import logging
import random

import numpy as np
import pytest

from skillforge.errors import PAIR_FAULTS, ConfigError, GenerationError, InputError, ProviderError
from skillforge.providers.base import ChatRequest, LikelihoodResult
from skillforge.providers.http import (
    HttpChatProvider,
    HttpConfig,
    HttpEmbeddingProvider,
    HttpLikelihoodProvider,
)
from skillforge.providers.mock import MockChatProvider, MockEmbedder, MockLikelihoodScorer

from conftest import requests_reply


def test_chat_request_validation():
    with pytest.raises(InputError):
        ChatRequest(system="s", user="u", max_tokens=0)
    with pytest.raises(InputError):
        ChatRequest(system="s", user="u", temperature=float("nan"))


def test_chat_request_defaults_match_engine_settings():
    request = ChatRequest(system="s", user="u")
    assert request.temperature == 0.0
    assert request.max_tokens == 16394


def test_mock_chat_is_deterministic():
    provider = MockChatProvider(seed=3)
    request = ChatRequest(system="anything", user="hello world")
    assert provider.complete(request) == provider.complete(request)


def test_mock_chat_differs_across_user_texts():
    provider = MockChatProvider(seed=3)
    rng = random.Random(9)
    for _ in range(100):
        a = f"payload {rng.random():.12f}"
        b = f"payload {rng.random():.12f}"
        ra = provider.complete(ChatRequest(system="free-form", user=a))
        rb = provider.complete(ChatRequest(system="free-form", user=b))
        assert ra.text != rb.text


def test_mock_chat_response_text_nonempty_and_counted():
    response = MockChatProvider(seed=0).complete(ChatRequest(system="x", user="y z"))
    assert response.text
    assert response.tokens_in == 3
    assert response.tokens_out == len(response.text.split())


def test_mock_embed_deterministic_and_normalized():
    embedder = MockEmbedder()
    first = embedder.embed(["abc"])
    second = embedder.embed(["abc"])
    assert np.array_equal(first, second)
    vectors = embedder.embed(["abc", "pdf_text_extraction", "q"])
    norms = np.linalg.norm(vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)


def test_mock_embed_self_cosine_is_one():
    embedder = MockEmbedder()
    v = embedder.embed(["x"])[0]
    assert float(np.dot(v, v)) == pytest.approx(1.0, abs=1e-12)


def test_mock_embed_rejects_empty_text():
    with pytest.raises(InputError):
        MockEmbedder().embed(["ok", ""])


def test_mock_likelihood_condition_overlap_raises_logprob():
    scorer = MockLikelihoodScorer(seed=1)
    body = "extract the table rows then verify the totals"
    conditioned = scorer.score_likelihood("verify table totals for the report", body)
    unconditioned = scorer.score_likelihood("", body)
    assert conditioned.token_count == unconditioned.token_count
    assert conditioned.sum_logprob > unconditioned.sum_logprob


def test_mock_likelihood_is_deterministic():
    scorer = MockLikelihoodScorer(seed=4)
    a = scorer.score_likelihood("cond", "some continuation text")
    b = scorer.score_likelihood("cond", "some continuation text")
    assert a == b


def test_mock_likelihood_rejects_empty_continuation():
    with pytest.raises(InputError):
        MockLikelihoodScorer().score_likelihood("cond", "")


def test_likelihood_result_validation():
    with pytest.raises(InputError):
        LikelihoodResult(sum_logprob=-1.0, token_count=0)
    with pytest.raises(InputError):
        LikelihoodResult(sum_logprob=float("inf"), token_count=1)


# --- HTTP adapter (fake transports only; no network) ---


def _config(transport, **kwargs):
    return HttpConfig(
        chat_url="http://chat",
        embed_url="http://embed",
        logprob_url="http://logprob",
        api_key="k",
        transport=transport,
        sleep=lambda _: None,
        **kwargs,
    )


def test_http_chat_payload_preserves_text_bytes():
    captured = {}

    def transport(url, payload, headers):
        captured["url"] = url
        captured["payload"] = payload
        captured["headers"] = headers
        return {
            "choices": [{"message": {"content": "ok"}}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 1},
        }

    system = "système\nwith ünïcode"
    user = "line one\n  indented line\ttab"
    response = HttpChatProvider(_config(transport)).complete(
        ChatRequest(system=system, user=user, temperature=0.0, max_tokens=99)
    )
    assert captured["url"] == "http://chat"
    assert captured["payload"]["messages"][0]["content"] == system
    assert captured["payload"]["messages"][1]["content"] == user
    # byte-for-byte: the JSON encoding round-trips the exact strings
    encoded = json.dumps(captured["payload"]["messages"][1]["content"], ensure_ascii=False)
    assert json.loads(encoded) == user
    assert captured["payload"]["max_tokens"] == 99
    assert captured["headers"]["Authorization"] == "Bearer k"
    assert response.text == "ok"
    assert response.tokens_in == 5
    assert response.tokens_out == 1


def test_http_chat_empty_completion_is_generation_error():
    def transport(url, payload, headers):
        return {"choices": [{"message": {"content": ""}}]}

    with pytest.raises(GenerationError):
        HttpChatProvider(_config(transport)).complete(ChatRequest(system="s", user="u"))


def test_http_retries_transient_failures_with_backoff():
    attempts = []
    delays = []

    def transport(url, payload, headers):
        attempts.append(url)
        if len(attempts) < 3:
            raise ProviderError("boom", retryable=True)
        return {"choices": [{"message": {"content": "recovered"}}], "usage": {}}

    config = _config(transport)
    config.sleep = delays.append
    response = HttpChatProvider(config).complete(ChatRequest(system="s", user="u"))
    assert response.text == "recovered"
    assert len(attempts) == 3
    assert delays == [0.5, 1.0]


def test_http_logs_one_warning_per_retry(caplog):
    attempts = []

    def transport(url, payload, headers):
        attempts.append(url)
        if len(attempts) < 3:
            raise ProviderError(f"boom {len(attempts)}", retryable=True)
        return {"choices": [{"message": {"content": "recovered"}}], "usage": {}}

    with caplog.at_level(logging.WARNING, logger="skillforge.providers.http"):
        response = HttpChatProvider(_config(transport)).complete(ChatRequest(system="s", user="u"))
    assert response.text == "recovered"
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        "retrying http://chat after attempt 1 of 3 failed: boom 1",
        "retrying http://chat after attempt 2 of 3 failed: boom 2",
    ]


def test_http_does_not_retry_permanent_errors():
    attempts = []

    def transport(url, payload, headers):
        attempts.append(url)
        raise ProviderError("rejected: 400", retryable=False)

    with pytest.raises(ProviderError):
        HttpChatProvider(_config(transport)).complete(ChatRequest(system="s", user="u"))
    assert len(attempts) == 1


def test_http_gives_up_after_retry_budget():
    attempts = []

    def transport(url, payload, headers):
        attempts.append(url)
        raise ProviderError("still down", retryable=True)

    with pytest.raises(ProviderError):
        HttpChatProvider(_config(transport)).complete(ChatRequest(system="s", user="u"))
    assert len(attempts) == 3


def test_http_retries_counts_attempts_including_the_first():
    attempts = []
    delays = []

    def transport(url, payload, headers):
        attempts.append(url)
        raise ProviderError("still down", retryable=True)

    config = _config(transport, retries=1)
    config.sleep = delays.append
    with pytest.raises(ProviderError):
        HttpChatProvider(config).complete(ChatRequest(system="s", user="u"))
    assert len(attempts) == 1
    assert delays == []
    with pytest.raises(ConfigError):
        _config(transport, retries=0)


def test_http_embed_normalizes_vectors():
    def transport(url, payload, headers):
        assert payload["input"] == ["a", "b"]
        return {"data": [{"embedding": [3.0, 4.0]}, {"embedding": [0.0, 2.0]}]}

    vectors = HttpEmbeddingProvider(_config(transport)).embed(["a", "b"])
    assert vectors[0] == pytest.approx([0.6, 0.8])
    assert vectors[1] == pytest.approx([0.0, 1.0])


def test_http_logprob_sums_continuation_span_only():
    condition = "ab "  # 3 bytes; continuation starts at offset 3
    continuation = "cd ef"

    def transport(url, payload, headers):
        assert payload["prompt"] == condition + continuation
        assert payload["echo"] is True
        assert payload["max_tokens"] == 0
        return {
            "choices": [
                {
                    "logprobs": {
                        "token_logprobs": [None, -1.5, -2.0],
                        "text_offset": [0, 3, 6],
                    }
                }
            ]
        }

    result = HttpLikelihoodProvider(_config(transport)).score_likelihood(condition, continuation)
    assert result.token_count == 2
    assert result.sum_logprob == pytest.approx(-3.5)


def test_http_malformed_responses_are_provider_errors():
    def bad_chat(url, payload, headers):
        return {"unexpected": True}

    with pytest.raises(ProviderError, match="malformed chat"):
        HttpChatProvider(_config(bad_chat)).complete(ChatRequest(system="s", user="u"))

    def bad_embed(url, payload, headers):
        return {"data": [{"vector": [1.0]}]}

    with pytest.raises(ProviderError, match="malformed embedding"):
        HttpEmbeddingProvider(_config(bad_embed)).embed(["a"])

    def bad_logprob(url, payload, headers):
        return {"choices": [{}]}

    with pytest.raises(ProviderError, match="malformed logprob"):
        HttpLikelihoodProvider(_config(bad_logprob)).score_likelihood("c", "x")


_CHAT_OK = {"choices": [{"message": {"content": "fine"}}]}


def _logprobs(token_logprobs, text_offset):
    return {"choices": [{"logprobs": {"token_logprobs": token_logprobs, "text_offset": text_offset}}]}


@pytest.mark.parametrize(
    "body, call",
    [
        ({**_CHAT_OK, "usage": {"prompt_tokens": "many"}}, "chat"),
        ({**_CHAT_OK, "usage": {"prompt_tokens": -3}}, "chat"),
        ({**_CHAT_OK, "usage": {"completion_tokens": float("inf")}}, "chat"),
        ({"choices": [{"message": {"content": 5}}]}, "chat"),
        ({"data": [{"embedding": [1.0, 0.0]}, {"embedding": [1.0]}]}, "embed"),
        ({"data": [{"embedding": 1.0}, {"embedding": 2.0}]}, "embed"),
        (_logprobs([None, "low"], [0, 1]), "logprob"),
        (_logprobs([None, -1.0], None), "logprob"),
        (json.loads('{"choices": [{"logprobs": {"token_logprobs": [null, -Infinity], "text_offset": [0, 1]}}]}'), "logprob"),
    ],
    ids=["tokens-non-numeric", "tokens-negative", "tokens-infinite", "content-number", "embedding-ragged",
         "embedding-scalar", "logprob-non-numeric", "text-offset-null", "logprob-minus-infinity"],
)
def test_every_malformed_http_body_is_a_provider_error(body, call):
    config = _config(lambda url, payload, headers: body)
    calls = {
        "chat": lambda: HttpChatProvider(config).complete(ChatRequest(system="s", user="u")),
        "embed": lambda: HttpEmbeddingProvider(config).embed(["a", "b"]),
        "logprob": lambda: HttpLikelihoodProvider(config).score_likelihood("c", "xy"),
    }
    with pytest.raises(ProviderError, match=f"malformed {call}"):
        calls[call]()


def test_a_2xx_body_that_is_not_json_is_one_provider_error_naming_the_url(monkeypatch):
    # A proxy's error page on a 200: the real transport, with requests.post stubbed.
    import requests

    posts = []

    def post(url, **kwargs):
        posts.append(url)
        return requests_reply(b"<html><body>Bad gateway</body></html>")

    monkeypatch.setattr(requests, "post", post)
    config = HttpConfig(chat_url="http://chat", sleep=lambda _: None)
    with pytest.raises(ProviderError, match="malformed response from http://chat: the body is not JSON") as raised:
        HttpChatProvider(config).complete(ChatRequest(system="s", user="u"))
    assert isinstance(raised.value, PAIR_FAULTS)
    assert not raised.value.retryable
    assert posts == ["http://chat"]


def test_http_embed_count_mismatch_rejected():
    def transport(url, payload, headers):
        return {"data": [{"embedding": [1.0, 0.0]}]}

    with pytest.raises(ProviderError, match="count"):
        HttpEmbeddingProvider(_config(transport)).embed(["a", "b"])


def test_http_logprob_empty_span_rejected():
    def transport(url, payload, headers):
        return {"choices": [{"logprobs": {"token_logprobs": [None], "text_offset": [0]}}]}

    with pytest.raises(ProviderError, match="continuation span"):
        HttpLikelihoodProvider(_config(transport)).score_likelihood("long condition text", "x")


def test_http_unconfigured_endpoint_is_config_error():
    from skillforge.errors import ConfigError

    config = HttpConfig(transport=lambda *a: {}, sleep=lambda _: None)
    with pytest.raises(ConfigError):
        HttpChatProvider(config).complete(ChatRequest(system="s", user="u"))


def test_http_config_from_env(monkeypatch):
    monkeypatch.setenv("SKILLFORGE_CHAT_URL", "http://c")
    monkeypatch.setenv("SKILLFORGE_EMBED_URL", "http://e")
    monkeypatch.setenv("SKILLFORGE_LOGPROB_URL", "http://l")
    monkeypatch.setenv("SKILLFORGE_API_KEY", "secret")
    config = HttpConfig.from_env()
    assert (config.chat_url, config.embed_url, config.logprob_url) == ("http://c", "http://e", "http://l")
    assert config.api_key == "secret"
    override = HttpConfig.from_env(chat_url="http://other")
    assert override.chat_url == "http://other"
