"""The package's error root.

``SlopesError`` covers every error a bad input can cause: the CLI exits 2
on it and lets any other exception through as a bug.  Each module error
also keeps its builtin base (``ValueError``, ``ArithmeticError``,
``RuntimeError``), so ``except`` clauses written against those still work.
"""


class SlopesError(Exception):
    """An input the package rejects."""


class SchemaError(SlopesError, ValueError):
    """An input document that cannot be read or decoded."""
