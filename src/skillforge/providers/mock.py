"""Seeded deterministic mock providers.

Every mock is a pure function of (seed, call inputs): repeated calls are
bit-identical and instances are stateless, so they are safe to share across
threads. The embedder has no seed, since one embedding model serves every
run. No mock performs any I/O or waits on anything, so each declares
``in_process = True`` (see ``providers.base``).

The mock chat provider understands the three prompt roles used by the engine
(skill tagging, target tagging, candidate generation) and answers from the
prompt text itself: tags are snake_case tokens embedded in the text, and
generated candidates carry the union of the source-skill tags plus the
uncovered tags, optionally corrupted at a configurable noise rate.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Sequence

import numpy as np

from skillforge import prompts
from skillforge.errors import InputError
from skillforge.providers.base import (
    ChatRequest,
    ChatResponse,
    LikelihoodResult,
    validate_continuation,
    validate_embed_inputs,
)

# A snake_case token with at least one underscore, e.g. pdf_text_extraction.
TAG_TOKEN_RE = re.compile(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b")
WORD_RE = re.compile(r"[a-z0-9]+")

EMBED_DIM = 64


def _digest(seed: int, *parts: str) -> bytes:
    h = hashlib.sha256(str(seed).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f")
        h.update(part.encode("utf-8"))
    return h.digest()


def _unit_float(seed: int, *parts: str) -> float:
    """Deterministic float in [0, 1) derived from the seed and parts."""
    raw = int.from_bytes(_digest(seed, *parts)[:8], "big")
    return raw / 2**64


def _word_count(text: str) -> int:
    return len(text.split())


def extract_tag_tokens(text: str) -> list[str]:
    """Snake_case tokens in first-occurrence order, deduplicated."""
    seen: set[str] = set()
    out: list[str] = []
    for token in TAG_TOKEN_RE.findall(text.lower()):
        if token not in seen:
            seen.add(token)
            out.append(token)
    return out


class MockEmbedder:
    """Feature-hashing embedder over character trigrams into ``EMBED_DIM``
    dimensions, L2 normalized. It has no seed: every instance hashes with
    seed 0, so a text gets the same vector in every run."""

    in_process = True

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        texts = validate_embed_inputs(texts)
        out = np.zeros((len(texts), EMBED_DIM), dtype=np.float64)
        for row, text in enumerate(texts):
            padded = f"#{text}#"
            for i in range(len(padded) - 2):
                gram = padded[i : i + 3]
                d = _digest(0, "embed", gram)
                index = int.from_bytes(d[:4], "big") % EMBED_DIM
                sign = 1.0 if d[4] & 1 else -1.0
                out[row, index] += sign
            norm = np.linalg.norm(out[row])
            if norm == 0.0:
                out[row, 0] = 1.0
            else:
                out[row] /= norm
        return out


class MockChatProvider:
    """Deterministic chat provider keyed on the engine's prompt roles.

    ``noise_rate`` is the expected number of corruption events per generated
    candidate. Each event drops one tag the candidate was supposed to carry
    (preferring an uncovered target tag) and injects one junk tag plus a
    generic boilerplate line, which is how weakly useful skills show up in
    downstream retrieval.
    """

    in_process = True

    def __init__(self, seed: int = 0, noise_rate: float = 0.0) -> None:
        if noise_rate < 0:
            raise InputError("noise_rate must be non-negative")
        self.seed = seed
        self.noise_rate = noise_rate

    def complete(self, request: ChatRequest) -> ChatResponse:
        if request.system == prompts.GENERATE_SYSTEM:
            text = self._generate_candidate(request.user)
        elif request.system in (prompts.SKILL_TAG_SYSTEM, prompts.TARGET_TAG_SYSTEM):
            text = self._list_tags(request.user)
        else:
            text = self._echo(request)
        return ChatResponse(
            text=text,
            tokens_in=_word_count(request.system) + _word_count(request.user),
            tokens_out=_word_count(text),
        )

    def _list_tags(self, user: str) -> str:
        tags = extract_tag_tokens(user)
        if not tags:
            # Fall back to prominent content words so the result is never empty.
            words = [w for w in WORD_RE.findall(user.lower()) if len(w) >= 5 and w.isalpha()]
            seen: set[str] = set()
            for word in words:
                if word not in seen:
                    seen.add(word)
                    tags.append(word)
                if len(tags) == 3:
                    break
        if not tags:
            tags = ["general_procedure"]
        return "\n".join(tags)

    def _generate_candidate(self, user: str) -> str:
        source_tags, uncovered = self._parse_generation_prompt(user)
        carried = sorted(set(source_tags) | set(uncovered))
        noise_events = self._draw_noise_events(user)
        junk: list[str] = []
        for event in range(noise_events):
            drop_pool = [t for t in carried if t in uncovered] or carried
            if drop_pool:
                drop_at = int(_unit_float(self.seed, "drop", str(event), user) * len(drop_pool))
                carried.remove(drop_pool[min(drop_at, len(drop_pool) - 1)])
            junk.append("junk_" + _digest(self.seed, "junk", str(event), user)[:4].hex())
        tag_line = ", ".join(carried + junk) if (carried or junk) else "general_procedure"
        body_lines = [
            "Generalized procedure distilled from a failed attempt.",
            f"Apply these steps in order for: {tag_line}.",
            "First review what the problem asks for, then apply each capability",
            "listed above, and verify the result before finishing.",
        ]
        for j in junk:
            body_lines.append(
                f"This task requires capabilities and careful handling of {j} in every case."
            )
        name_stub = (carried + junk)[0] if (carried or junk) else "general_procedure"
        return (
            f"NAME: {name_stub.replace('_', ' ')} routine\n"
            f"DESCRIPTION: Reusable procedure covering {tag_line}.\n"
            "BODY:\n" + "\n".join(body_lines)
        )

    def _draw_noise_events(self, user: str) -> int:
        events = int(self.noise_rate)
        fraction = self.noise_rate - events
        if fraction > 0 and _unit_float(self.seed, "noise", user) < fraction:
            events += 1
        return events

    @staticmethod
    def _parse_generation_prompt(user: str) -> tuple[list[str], list[str]]:
        source_tags: list[str] = []
        uncovered: list[str] = []
        section = ""
        for line in user.splitlines():
            stripped = line.strip()
            if stripped == prompts.SOURCE_SKILLS_HEADER:
                section = "sources"
                continue
            if stripped == prompts.UNCOVERED_HEADER:
                section = "uncovered"
                continue
            if section == "sources" and stripped.startswith(prompts.SOURCE_TAGS_PREFIX):
                listed = stripped[len(prompts.SOURCE_TAGS_PREFIX) :]
                source_tags.extend(t.strip() for t in listed.split(",") if t.strip())
            elif section == "uncovered" and stripped.startswith("- "):
                uncovered.append(stripped[2:].strip())
        return source_tags, uncovered

    def _echo(self, request: ChatRequest) -> str:
        return "ack " + _digest(self.seed, request.system, request.user)[:8].hex()


class MockLikelihoodScorer:
    """Deterministic token-level likelihood mock.

    Each continuation token gets a seeded base log-probability in [-4, -2].
    Tokens that also occur in the condition earn a seed-weighted bonus in
    [0.5, 1.5], so conditioning on matching text strictly raises the sum,
    while scorers with different seeds stay positively correlated without
    agreeing exactly.
    """

    in_process = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    @property
    def name(self) -> str:
        return f"mock-likelihood-{self.seed}"

    def score_likelihood(self, condition: str, continuation: str) -> LikelihoodResult:
        validate_continuation(continuation)
        tokens = WORD_RE.findall(continuation.lower())
        if not tokens:
            raise InputError("continuation contains no scoreable tokens")
        condition_tokens = set(WORD_RE.findall(condition.lower()))
        total = 0.0
        for token in tokens:
            total += -(2.0 + 2.0 * _unit_float(self.seed, "tok", token))
            if token in condition_tokens:
                total += 0.5 + _unit_float(self.seed, "bonus", token)
        return LikelihoodResult(sum_logprob=total, token_count=len(tokens))
