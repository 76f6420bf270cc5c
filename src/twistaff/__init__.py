"""Exact-arithmetic toolkit for twisted affinisations of Hilbert-Lie algebras at finite rank."""

__version__ = "0.1.0"


class DomainError(ValueError):
    """A refusal of a well-formed request: the CLI exits 1 with its message."""
