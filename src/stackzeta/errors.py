"""Exception hierarchy shared across the package."""

from __future__ import annotations

import sys
from contextlib import contextmanager


class StackZetaError(Exception):
    """Base class for every error raised by this package."""


class DomainError(StackZetaError, ValueError):
    """An operation was applied to values outside its mathematical domain."""


class NonInvertibleError(DomainError):
    """A class that is not a unit of the ring was asked for its inverse."""


class ResourceLimitError(StackZetaError, RuntimeError):
    """A computation exceeded a configured size cap before starting."""


@contextmanager
def int_text_limit():
    """Around ints written as text: the digit-limit ValueError becomes ResourceLimitError."""
    try:
        yield
    except ValueError as exc:
        raise ResourceLimitError(
            f"the result has an integer above the limit of {sys.get_int_max_str_digits()}"
            " digits for integer-to-string conversion"
        ) from exc


class InternalConsistencyError(StackZetaError, RuntimeError):
    """Two routes that must agree produced different values; a bug, not bad input."""


class ParseError(StackZetaError, ValueError):
    """An expression failed to tokenize or parse.

    Carries 1-based ``line`` and ``col`` of the offending character when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class ElaborationError(ParseError):
    """A syntactically valid expression does not denote a value in context."""
