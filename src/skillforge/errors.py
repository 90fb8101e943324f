"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SkillForgeError(Exception):
    """Base class for all package errors."""


class InputError(SkillForgeError):
    """A caller-supplied value violates a precondition."""


class ConfigError(SkillForgeError):
    """A configuration value is out of range or unknown."""


class ParseError(SkillForgeError):
    """A file or model response could not be parsed."""


class IntegrityError(SkillForgeError):
    """A structural invariant (unique ids, consistent references) is broken."""


class SizeError(SkillForgeError):
    """An instance exceeds the size cap of the requested algorithm."""


class ProviderError(SkillForgeError):
    """A model provider call failed.

    ``retryable`` distinguishes transport-level failures (worth retrying)
    from permanent ones such as HTTP 4xx responses.
    """

    def __init__(self, message: str, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


class GenerationError(SkillForgeError):
    """The chat model returned an empty or unusable completion."""


class TaggingError(ParseError):
    """A tagging reply holds no parseable tag."""


class ScoringError(SkillForgeError):
    """A candidate could not be scored."""


class MissingTagError(SkillForgeError):
    """A tag was looked up in an equivalence index that does not contain it."""


# What skips one failure pair or candidate instead of ending the epoch: a
# failed or empty provider call, an unparseable reply, a failed score.
PAIR_FAULTS = (ProviderError, GenerationError, ParseError, ScoringError)
