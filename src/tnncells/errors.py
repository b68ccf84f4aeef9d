"""Error types shared across the package, and the size check and JSON readers that raise them."""

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


def require_grid(m: int, p: int) -> None:
    """Refuse an m x p grid with a side below 1, before any guard counts it."""
    if m < 1 or p < 1:
        raise DomainError("grid sizes must be at least 1")


def json_int(value: Any, what: str) -> int:
    """A JSON integer field; anything else, floats and booleans too, raises DomainError."""
    if type(value) is not int:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


def parse_json(text: str, what: str) -> Any:
    """Parse JSON text; malformed text raises DomainError naming what it held."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad {what} JSON: {exc}") from exc
