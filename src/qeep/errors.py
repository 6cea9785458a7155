"""Shared exception types."""


class NumericError(RuntimeError):
    """A numerical routine failed: the pencil's SVD or eigensolve did not
    converge. Invalid arguments raise ``ValueError`` instead.
    """
