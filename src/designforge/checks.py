"""Internal consistency checks that stay active under `python -O`."""

from __future__ import annotations


class CheckFailed(RuntimeError):
    """A computed result broke an identity it must satisfy."""


def require(condition: bool, message: str) -> None:
    """Raise CheckFailed(message) unless condition holds."""
    if not condition:
        raise CheckFailed(message)
