"""The package's error root.

``SlopesError`` covers every error a bad input can cause: the CLI exits 2
on it and lets any other exception through as a bug.  Each module error
also keeps its builtin base (``ValueError``, ``ArithmeticError``,
``RuntimeError``), so ``except`` clauses written against those still work.
"""

import functools
from fractions import Fraction


class SlopesError(Exception):
    """An input the package rejects."""


class SchemaError(SlopesError, ValueError):
    """An input document that cannot be read or decoded."""


# OSError: unreadable file; ValueError: JSON syntax, bad numbers;
# KeyError, TypeError, AttributeError, IndexError: a document of the
# wrong shape
DECODE_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    TypeError,
    AttributeError,
    IndexError,
    ZeroDivisionError,
    StopIteration,
)


def integer_field(value, what: str) -> int:
    """value when it is a JSON integer; SchemaError naming ``what``
    otherwise.  type() rather than isinstance(): a JSON true is a bool,
    not an int, and a float is never truncated."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def rational_field(value, what: str) -> Fraction:
    """value as a Fraction when it is a JSON string or integer; SchemaError
    naming ``what`` otherwise, so a float is never read through its binary
    value and a bool is not taken for a number."""
    if type(value) not in (str, int):
        raise SchemaError(f"{what} must be a string or an integer, got {value!r}")
    return Fraction(value)


def decoder(load):
    """Make a loader of JSON documents raise SchemaError on a malformed
    one; a SlopesError it raises passes through unchanged."""

    @functools.wraps(load)
    def wrapped(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        except SlopesError:
            raise
        except DECODE_ERRORS as exc:
            raise SchemaError(f"{load.__qualname__}: {type(exc).__name__}: {exc}") from exc

    return wrapped
