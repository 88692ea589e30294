"""The base of every exception that is not about invalid input.

A failure of the program's own checks, or a search that ran out of room,
derives from ``SclLabError``; its exit code and the label the CLI prints
before its message are class attributes.  Invalid input stays a
``ValueError`` and exits 2.
"""

from __future__ import annotations

__all__ = ["SclLabError"]


class SclLabError(Exception):
    """An internal soundness check failed; indicates a bug, not bad input."""

    exit_code = 1
    label = "soundness failure"
