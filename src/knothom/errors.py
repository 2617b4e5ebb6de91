"""The exception for an argument outside the domain of a public function."""


class UsageError(ValueError):
    """An argument outside the domain of the function it was passed to.

    Raised for non-coprime torus parameters, invalid partitions, sizes over
    a cap, unknown fixtures and cutoffs too small to report anything.  It is
    a ``ValueError``, so library callers may catch either.  The command line
    reports it as a usage error (exit 2) and any other exception as an
    internal error (exit 3).
    """
