"""Error types shared across the package, and the JSON reader that raises them."""

import json
from typing import Any


class DomainError(ValueError):
    """Input is outside an operation's domain (bad index, wrong shape, ...)."""


class ResourceGuardError(RuntimeError):
    """An enumeration or search exceeded its configured resource guard."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree by theorem produced different answers.

    Raised by cross-validating operations; a ConsistencyError is always a bug
    (or a counterexample), never a user error.
    """


def parse_json(text: str, what: str) -> Any:
    """Parse JSON text; malformed text raises DomainError naming what it held."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad {what} JSON: {exc}") from exc
