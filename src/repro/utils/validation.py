"""Small argument-validation helpers used across the library."""

from __future__ import annotations

from typing import Type


def require(condition: bool, message: str, exc: Type[Exception] = ValueError) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc(message)

