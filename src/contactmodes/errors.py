"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed or inconsistent input data (traces, batch files, configs)."""


class TraceFormatError(DataError):
    """A contact trace file could not be parsed.

    Carries the offending line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BatchFormatError(DataError):
    """A tree-batch file violates the documented batch layout."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConvergenceError(Exception):
    """An iterative numerical routine failed to reach its target.

    ``result`` holds the whole-batch joint diagonalisation when the
    pipeline stops on one that failed: that non-converged result itself,
    or the converged one when a per-mode diagonalisation failed.  It is
    ``None`` where no such result exists.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
