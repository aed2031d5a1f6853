"""Certificate data model, canonical serialisation, and the verifier.

A certificate is a chain of downrun steps plus a terminal value small
enough for the deterministic base-case test.  Verification trusts
nothing: every step is re-checked by direct computation with the
gcd-validated affine curve arithmetic, one step after another.
"""

import math
import re
from dataclasses import dataclass, field

from .errors import CertificateFormatError, CompositeDetected
from .numth import DETERMINISTIC_THRESHOLD, is_probable_prime, is_perfect_square
from .curve import Curve, is_on_curve, scalar_mul_checked

FORMAT_HEADER = "fastecpp certificate v1"
_STEP_FIELDS = ("N", "D", "t", "m", "c", "nprime", "a", "b", "px", "py")
_INT_RE = re.compile(r"^(0|-?[1-9][0-9]*)$")


@dataclass(frozen=True)
class CertStep:
    """One link of the chain: N is prime if nprime is.

    The point p has order nprime after multiplication by c on the curve
    y^2 = x^3 + ax + b mod N; (D, t) document the CM construction and are
    bound to (N, m) by the cardinality and norm-equation identities.
    """

    n: int
    d: int
    t: int
    m: int
    c: int
    nprime: int
    a: int
    b: int
    px: int
    py: int


@dataclass
class Certificate:
    steps: list[CertStep] = field(default_factory=list)
    terminal: int = 0

    @property
    def subject(self) -> int:
        """The number this certificate proves prime."""
        return self.steps[0].n if self.steps else self.terminal


@dataclass
class VerifyResult:
    accepted: bool
    step_index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _reject(step_index: int | None, reason: str) -> VerifyResult:
    return VerifyResult(False, step_index, reason)


def exceeds_quartic_floor(nprime: int, n: int) -> bool:
    """Exact integer form of nprime > (n^(1/4) + 1)^2 (conservative)."""
    u = math.isqrt(nprime)
    return u >= 2 and (u - 1) ** 4 > n


def verify_step(s: CertStep) -> VerifyResult:
    """Check one step by direct computation; no recomputation of class
    polynomials or the Cornacchia descent is needed.

    The binding checks are: the cardinality identity m = N + 1 +/- t with
    t^2 <= 4N, the norm equation 4N = t^2 + |D| v^2 (v is reconstructed,
    not stored), the cofactor split m = c * nprime with c >= 2 and nprime
    above the quartic-root floor, and the group-order argument
    [c]P != O, [nprime][c]P = O on a nonsingular curve.
    """
    n = s.n
    if n < 7 or math.gcd(n, 6) != 1:
        return _reject(None, "bad-modulus")
    if s.t < 0 or s.t * s.t > 4 * n:
        return _reject(None, "bad-trace")
    if s.m not in (n + 1 - s.t, n + 1 + s.t):
        return _reject(None, "bad-cardinality")
    if s.d >= 0 or s.d % 4 not in (0, 1):
        return _reject(None, "bad-discriminant")
    r = 4 * n - s.t * s.t
    if r % (-s.d) != 0 or not is_perfect_square(r // (-s.d)):
        return _reject(None, "bad-discriminant")
    if s.c < 2 or s.nprime < 2 or s.c * s.nprime != s.m:
        return _reject(None, "bad-cofactor")
    if s.nprime >= n:
        return _reject(None, "size-not-decreasing")
    if not exceeds_quartic_floor(s.nprime, n):
        return _reject(None, "small-nprime")
    if not (0 <= s.a < n and 0 <= s.b < n and 0 <= s.px < n and 0 <= s.py < n):
        return _reject(None, "bad-point-range")
    e = Curve(n, s.a, s.b)
    try:
        if e.discriminant_gcd() != 1:
            return _reject(None, "singular-curve")
        if not is_on_curve((s.px, s.py), e):
            return _reject(None, "off-curve")
        q = scalar_mul_checked((s.px, s.py), s.c, e)
        if q is None:
            return _reject(None, "order-check-failed")
        if scalar_mul_checked(q, s.nprime, e) is not None:
            return _reject(None, "order-check-failed")
    except CompositeDetected as exc:
        return _reject(None, f"composite-evidence:{exc.reason}")
    return VerifyResult(True)


def verify(cert: Certificate) -> VerifyResult:
    """Verify a whole certificate.

    Chain linkage (each step's nprime is the next step's N), the terminal
    base case, and every per-step check must pass.  On failure the lowest
    failing step index is reported.
    """
    for i, s in enumerate(cert.steps[:-1]):
        if s.nprime != cert.steps[i + 1].n:
            return _reject(i, "linkage")
    if cert.steps and cert.steps[-1].nprime != cert.terminal:
        return _reject(len(cert.steps) - 1, "linkage")
    if not (2 <= cert.terminal < DETERMINISTIC_THRESHOLD):
        return _reject(None, "bad-terminal")
    if not is_probable_prime(cert.terminal):  # deterministic below 2**64
        return _reject(None, "bad-terminal")
    for i, s in enumerate(cert.steps):
        res = verify_step(s)
        if not res:
            return _reject(i, res.reason)
    return VerifyResult(True)


def serialize(cert: Certificate) -> str:
    """Canonical text form; see the grammar in the README."""
    lines = [FORMAT_HEADER, f"steps {len(cert.steps)}"]
    for s in cert.steps:
        vals = (s.n, s.d, s.t, s.m, s.c, s.nprime, s.a, s.b, s.px, s.py)
        lines.append("step " + " ".join(f"{k}={v}" for k, v in zip(_STEP_FIELDS, vals)))
    lines.append(f"terminal {cert.terminal}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int, what: str) -> int:
    if not _INT_RE.match(token):
        raise CertificateFormatError(f"non-canonical integer for {what}: {token!r}", lineno)
    try:
        return int(token)
    except ValueError:  # longer than the interpreter's int(str) digit limit
        raise CertificateFormatError(f"integer of {len(token)} digits for {what}", lineno) from None


def parse(text: str) -> Certificate:
    """Parse canonical certificate text; strict about layout.

    Unknown versions, missing keys, reordered keys and non-canonical
    whitespace are rejected with the offending line number.
    """
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise CertificateFormatError("missing trailing newline", len(lines))
    lines = lines[:-1]
    if not lines:
        raise CertificateFormatError("empty certificate", 1)
    if lines[0] != FORMAT_HEADER:
        raise CertificateFormatError("bad or unsupported header", 1)
    if len(lines) < 2 or not lines[1].startswith("steps "):
        raise CertificateFormatError("missing steps line", 2)
    count = _parse_int(lines[1][len("steps "):], 2, "step count")
    if count < 0:
        raise CertificateFormatError("negative step count", 2)
    expected = 3 + count
    if len(lines) != expected:
        raise CertificateFormatError(
            f"expected {expected} lines for {count} steps, found {len(lines)}",
            min(len(lines), expected),
        )
    steps = []
    for i in range(count):
        lineno = 3 + i
        line = lines[2 + i]
        if not line.startswith("step "):
            raise CertificateFormatError("expected a step record", lineno)
        tokens = line[len("step "):].split(" ")
        if len(tokens) != len(_STEP_FIELDS):
            raise CertificateFormatError(
                f"expected {len(_STEP_FIELDS)} fields, found {len(tokens)}", lineno
            )
        vals = []
        for tok, key in zip(tokens, _STEP_FIELDS):
            if not tok.startswith(key + "="):
                raise CertificateFormatError(f"expected key {key!r}", lineno)
            vals.append(_parse_int(tok[len(key) + 1 :], lineno, key))
        steps.append(CertStep(*vals))
    last = lines[2 + count]
    lineno = 3 + count
    if not last.startswith("terminal "):
        raise CertificateFormatError("missing terminal line", lineno)
    terminal = _parse_int(last[len("terminal "):], lineno, "terminal")
    return Certificate(steps, terminal)


def verify_file(path: str) -> tuple[VerifyResult, Certificate]:
    with open(path, "r", encoding="ascii") as f:
        cert = parse(f.read())
    return verify(cert), cert
