"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed or inconsistent input data (traces, batch files, configs)."""


class _LineError(DataError):
    """A data error that carries the offending line number when one is
    known, and names it in the message."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TraceFormatError(_LineError):
    """A contact trace file could not be parsed."""


class BatchFormatError(_LineError):
    """A tree-batch file violates the documented batch layout."""


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
