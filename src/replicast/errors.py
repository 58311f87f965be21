"""Exception hierarchy.

The split matters for the CLI: validation/parse/fit problems map to exit
code 1, numerical and chain-structure problems to exit code 2, and a
failed model-vs-simulation comparison to exit code 3.
"""

from __future__ import annotations


class ReplicastError(Exception):
    """Base class for all package errors."""


class ValidationError(ReplicastError):
    """A configuration or request field is out of its allowed range."""


class TraceParseError(ReplicastError):
    """A profiling trace file is malformed (message names the line)."""


class InsufficientDataError(ReplicastError):
    """Not enough distinct data to identify the requested fit."""


class FitRejectedError(ReplicastError):
    """A fit succeeded numerically but violates a physical constraint."""


class ConfigMismatchError(ValidationError):
    """Two artifacts that must describe the same deployment disagree."""


class NonErgodicError(ReplicastError):
    """The cluster chain has multiple recurrent classes."""

    def __init__(self, message: str, recurrent_classes=None):
        super().__init__(message)
        self.recurrent_classes = recurrent_classes or []


class NumericalError(ReplicastError):
    """A solver failed to reach its accuracy target."""
