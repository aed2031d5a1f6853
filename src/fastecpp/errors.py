"""Shared exception types for the proving pipeline."""


class CompositeDetected(Exception):
    """The number under test was proven composite somewhere in the pipeline.

    `factor`, when present, is a nontrivial divisor; `witness`, when
    present, is a Miller-Rabin base that proves n composite by one
    strong-pseudoprime test.  `reason` is a short machine-readable tag
    (e.g. "gcd-factor", "mr-witness", "sqrt-failed", "order-check-failed").
    """

    def __init__(
        self,
        reason: str,
        factor: int | None = None,
        n: int | None = None,
        witness: int | None = None,
    ):
        self.reason = reason
        self.factor = factor
        self.n = n
        self.witness = witness
        msg = reason
        if factor is not None:
            msg += f" (factor {factor})"
        if witness is not None:
            msg += f" (base {witness})"
        super().__init__(msg)


class GiveUp(Exception):
    """Resource limit reached before a certificate step could be completed.

    Not a mathematical statement about the input.
    """


class CertificateFormatError(Exception):
    """Certificate text failed to parse; `line` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PrecisionError(RuntimeError):
    """Floating point precision escalation exceeded its hard cap.

    Signals a bug in the precision bound, not a property of the input.
    """
