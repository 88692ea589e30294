"""Every exception that is not about invalid input.

A failure of the program's own checks, or a search that ran out of room,
raises one of the classes below, and no other module defines one; its exit
code and the label the CLI prints before its message are class attributes.
Invalid input stays a ``ValueError`` and exits 2.
"""

from __future__ import annotations

__all__ = [
    "SclLabError",
    "SoundnessError",
    "CertificateError",
    "AuditError",
    "SearchBudgetError",
    "SolProfileError",
]


class SclLabError(Exception):
    """An internal soundness check failed; indicates a bug, not bad input."""

    exit_code = 1
    label = "soundness failure"


class SoundnessError(SclLabError):
    """A certified bound contradicts another, the Duncan-Howie 1/2 floor or
    its own recorded constants, or a search hit could not be rebuilt into
    a certificate; indicates an internal bug, never a property of the
    input."""


class CertificateError(SclLabError):
    """A commutator certificate, in a free group or a Sol lattice, failed
    its own verification."""

    label = "certificate check failed"


class AuditError(SclLabError):
    """An audited bound failed: a printed inequality whose exact margin at
    the surgery threshold is not positive, or an observed defect above its
    certified bound."""


class SearchBudgetError(SclLabError):
    """The requested search exceeds the configured pair budget."""

    exit_code = 3
    label = "budget exhausted"


class SolProfileError(SclLabError):
    """No box up to the largest one tried certifies a contraction for the
    matrix, so the recursive decomposition cannot run on it."""

    exit_code = 3
    label = "inconclusive"
