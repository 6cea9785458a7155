"""Shared exception types."""


class NumericError(RuntimeError):
    """A numerical routine failed: the pencil's SVD or eigensolve did not
    converge, or :func:`~qeep.filterbank.decay_onset` found the decay
    bound failing at its largest scanned frequency. Invalid arguments raise
    ``ValueError`` instead.
    """
