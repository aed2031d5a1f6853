"""Hilbert class polynomials and their roots modulo N.

The class polynomial of a fundamental discriminant D is built from
complex approximations: j is evaluated at the CM point of every reduced
form via theta constants, conjugate pairs are combined into real
quadratic factors, and the expanded coefficients are rounded to integers
with an explicit residual check and precision-doubling retry.
"""

import math
import random
import threading
from dataclasses import dataclass

import mpmath

from .errors import CompositeDetected, PrecisionError
from .numth import checked_inverse

_MAX_PRECISION_RETRIES = 4

_eval_lock = threading.Lock()  # mpmath precision state is global


@dataclass(frozen=True)
class ReducedForm:
    """Reduced primitive form (a, b, c) with b^2 - 4ac = D."""

    a: int
    b: int
    c: int


@dataclass
class ClassPolynomial:
    """Monic integer polynomial whose roots are the CM j-invariants.

    `coeffs` is ascending (coeffs[-1] == 1, degree == class number).
    `residual` records the worst rounding distance of the first
    evaluation attempt, as a precision-adequacy diagnostic.
    """

    d: int
    coeffs: list[int]
    residual: float = 0.0
    precision_bits: int = 0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def reduced_forms(d: int) -> list[ReducedForm]:
    """All reduced primitive forms of discriminant d < 0.

    Convention: |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError("d must be a negative discriminant")
    forms = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                forms.append(ReducedForm(a, b, c))
        a += 1
    forms.sort(key=lambda f: (f.a, f.b))
    return forms


def _pow8(t):
    t = t * t
    t = t * t
    return t * t


def _j_from_theta(q) -> "mpmath.mpc":
    """Klein j from the three theta constants at nome q = exp(pi*i*tau).

    j = 32 (h2 + h3 + h4)^3 / (h2 h3 h4) with hk = theta_k^8.  The powers
    are plain products (three squarings for each eighth power, s * s * s
    for the cube): mpmath's complex `**` goes through log and exp.
    """
    h2, h3, h4 = (_pow8(mpmath.jtheta(k, 0, q)) for k in (2, 3, 4))
    s = h2 + h3 + h4
    return 32 * (s * s * s) / (h2 * h3 * h4)


def precision_for(d: int, forms: list[ReducedForm]) -> int:
    """First-attempt bit precision for the coefficient reconstruction.

    pi * sqrt(|D|) * sum(1/a) / ln 2 bounds the coefficient sizes; the
    10h + 64 guard absorbs accumulation during the polynomial expansion.
    """
    inv_a = math.fsum(1.0 / f.a for f in forms)
    h = len(forms)
    return math.ceil(math.pi * math.sqrt(-d) * inv_a / math.log(2)) + 10 * h + 64


def _expand(d: int, forms: list[ReducedForm], wp: int) -> tuple[list[int], float]:
    """Evaluate all j values at precision wp and expand the product."""
    with mpmath.workprec(wp):
        sqrt_ad = mpmath.sqrt(-d)
        # real linear factors for self-conjugate forms, real quadratics
        # for +/-b pairs (the pair members have conjugate j values)
        poly = [mpmath.mpf(1)]
        for f in forms:
            if f.b < 0:
                continue
            mag = mpmath.exp(-mpmath.pi * sqrt_ad / (2 * f.a))
            ang = mpmath.pi * f.b / (2 * f.a)
            q = mag * mpmath.mpc(mpmath.cos(ang), -mpmath.sin(ang))
            j = _j_from_theta(q)
            if f.b == 0 or f.b == f.a or f.a == f.c:
                poly = _rmul(poly, [-j.real, mpmath.mpf(1)])
            else:
                poly = _rmul(poly, [abs(j) ** 2, -2 * j.real, mpmath.mpf(1)])
        coeffs = []
        residual = 0.0
        for cval in poly:
            r = mpmath.nint(cval)
            residual = max(residual, float(abs(cval - r)))
            coeffs.append(int(r))
    return coeffs, residual


def _rmul(u: list, v: list) -> list:
    out = [mpmath.mpf(0)] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for k, vk in enumerate(v):
            out[i + k] += ui * vk
    return out


def hilbert_class_poly(d: int) -> ClassPolynomial:
    """Hilbert class polynomial of the fundamental discriminant d.

    Monic of degree h(d), integral coefficients.  Retries at doubled
    precision whenever any coefficient sits further than 1/4 from an
    integer; exceeding the retry cap raises PrecisionError.
    """
    forms = reduced_forms(d)
    if not forms:
        raise ValueError(f"{d} is not a valid discriminant")
    prec = precision_for(d, forms)
    first_residual = None
    with _eval_lock:
        wp = prec + 32 + len(forms).bit_length()
        for _ in range(_MAX_PRECISION_RETRIES + 1):
            coeffs, residual = _expand(d, forms, wp)
            if first_residual is None:
                first_residual = residual
            if residual < 0.25:
                return ClassPolynomial(d, coeffs, first_residual, prec)
            wp *= 2
    raise PrecisionError(f"class polynomial for D={d} did not stabilise")


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z/nZ (dense ascending coefficient lists)


def _ptrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmod(u: list[int], f: list[int], n: int) -> list[int]:
    """u mod f for monic f."""
    u = u[:]
    df = len(f) - 1
    while len(u) - 1 >= df and u:
        lead = u[-1]
        shift = len(u) - 1 - df
        if lead:
            for i in range(df + 1):
                u[shift + i] = (u[shift + i] - lead * f[i]) % n
        u.pop()
        _ptrim(u)
    return u


def _pmonic(p: list[int], n: int) -> list[int]:
    inv = checked_inverse(p[-1], n)
    return [c * inv % n for c in p]


def _pgcd(u: list[int], v: list[int], n: int) -> list[int]:
    u, v = _ptrim(u[:]), _ptrim(v[:])
    while v:
        v = _pmonic(v, n)
        u, v = v, _pmod(u, v, n)
    return _pmonic(u, n) if u else u


def _pdiv_exact(u: list[int], f: list[int], n: int) -> list[int]:
    """u / f for monic f dividing u exactly."""
    u = u[:]
    df = len(f) - 1
    q = [0] * (len(u) - df)
    for shift in range(len(u) - 1 - df, -1, -1):
        lead = u[shift + df]
        q[shift] = lead
        if lead:
            for i in range(df + 1):
                u[shift + i] = (u[shift + i] - lead * f[i]) % n
    return _ptrim(q)


def _pack(p: list[int], wb: int) -> int:
    """Kronecker substitution: p[i] goes into the i-th slot of wb bytes."""
    return int.from_bytes(b"".join(c.to_bytes(wb, "little") for c in p), "little")


def _unpack(x: int, count: int, wb: int) -> list[int]:
    """The low `count` slots of the packed integer x."""
    raw = x.to_bytes(max(count * wb, (x.bit_length() + 7) // 8), "little")
    return [int.from_bytes(raw[i : i + wb], "little") for i in range(0, count * wb, wb)]


class _Modulus:
    """Residues modulo a monic f of degree d >= 1 over Z/nZ.

    A residue is a dense list of d coefficients in [0, n).  Polynomials
    are multiplied by Kronecker substitution: each is packed into one
    integer with a byte-aligned slot per coefficient, wide enough that no
    slot carries (2d * (n-1)^2 < 2^(8*wb)), so a polynomial product is one
    big-int product.  A product s of two residues has 2d - 1 slots; it is
    reduced by f with the precomputed packed rows x^(d+i) mod f,
    i = 0..d-2: the high slots, each taken mod n, scale their rows and
    are added onto the low d slots, so a reduction costs d - 1 scalar x
    packed products and no division by f.
    """

    def __init__(self, f: list[int], n: int):
        d = len(f) - 1
        self.f, self.n, self.d = f, n, d
        self.wb = (2 * n.bit_length() + d.bit_length() + 8) // 8
        self.low_bits = 8 * self.wb * d
        row = [-c % n for c in f[:d]]  # x^d mod f
        self.rows = []
        for _ in range(d - 1):
            self.rows.append(_pack(row, self.wb))
            row = self.times_linear(row, 0)

    def reduce(self, s: int) -> list[int]:
        """The residue of s mod f, for s a packed product of two residues."""
        n = self.n
        acc = s & ((1 << self.low_bits) - 1)
        for c, row in zip(_unpack(s >> self.low_bits, self.d - 1, self.wb), self.rows):
            acc += c % n * row
        return [c % n for c in _unpack(acc, self.d, self.wb)]

    def times_linear(self, r: list[int], delta: int) -> list[int]:
        """r * (x + delta) mod f: a shift and one fold of f."""
        top = r[-1]
        return [
            (lo + delta * c - top * fc) % self.n
            for lo, c, fc in zip([0] + r[:-1], r, self.f)
        ]

    def pow_linear(self, delta: int, e: int) -> list[int]:
        """(x + delta)^e mod f for e >= 1, by left-to-right powering.

        Each bit costs one packed squaring and reduction; a set bit adds
        only a multiplication by x + delta.
        """
        r = self.times_linear([1] + [0] * (self.d - 1), delta)
        for bit in bin(e)[3:]:
            x = _pack(r, self.wb)
            r = self.reduce(x * x)
            if bit == "1":
                r = self.times_linear(r, delta)
        return r


def poly_eval_mod(coeffs: list[int], x: int, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % n
    return acc


def root_mod(poly: ClassPolynomial, n: int, rng: random.Random | None = None) -> int:
    """One root of the class polynomial modulo the probable prime n.

    Isolates a single root by randomised equal-degree splitting of f
    itself with (x + delta)^((n-1)/2) - 1, keeping the smaller factor of
    each proper split.  Both powers are computed modulo the current
    factor by Kronecker substitution and row reduction (see `_Modulus`).

    No gcd(x^n - x, f) is taken up front, because for the prover's
    inputs it is f.  A prime n with 4n = t^2 + |D| v^2 splits completely
    in the Hilbert class field of the fundamental D (Cox, Primes of the
    form x^2 + ny^2, sec. 9; Atkin & Morain, Math. Comp. 61, 1993), so
    H_D mod n is a product of linear factors.  They are distinct: a prime
    p dividing disc(H_D) makes two curves with CM by O_D isomorphic mod p,
    which forces supersingular reduction and p <= D^2 / 4 (Gross & Zagier,
    On singular moduli, 1985; Lauter & Viray, IMRN 2015), while every
    step's modulus is at least 2^64 > 2^38 >= D^2 / 4 for |D| <= 2^20.

    The gcd with x^n - x runs at most once, as a fallback, when a split
    attempt first gives a trivial gcd (degree 0 or the degree of the
    current factor g): g becomes gcd(x^n - x, g).  For a true H_D that is
    g itself, so the random draws, and the root, are those of splitting
    gcd(x^n - x, f).  If a polynomial that does not split leaves no root
    in g, g becomes the last factor a split set aside, a product of
    linear factors for prime n; with none, f has no root and
    CompositeDetected("class-poly-has-no-root") is raised.  Any other
    impossible arithmetic (a gcd exposing a factor of n, a root that does
    not check, 64 attempts without a root) raises CompositeDetected too.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("root_mod: modulus must be odd and >= 3")
    rng = rng if rng is not None else random.Random()
    f = _ptrim([c % n for c in poly.coeffs])
    if len(f) < 2:
        raise CompositeDetected("degenerate-class-poly", n=n)
    g = f = _pmonic(f, n)
    spare = None  # the last split-off factor that was set aside
    checked = False  # the x^n - x gcd has run
    for _ in range(64):
        if len(g) == 2:
            root = -g[0] % n
            if poly_eval_mod(f, root, n) != 0:
                raise CompositeDetected("root-check-failed", n=n)
            return root
        delta = rng.randrange(n)
        t = _Modulus(g, n).pow_linear(delta, (n - 1) // 2)
        t[0] = (t[0] - 1) % n
        d = _pgcd(t, g, n)
        if 1 < len(d) < len(g):
            if len(d) * 2 <= len(g) + 1:
                g = d
            else:
                spare, g = d, _pdiv_exact(g, d, n)
        elif not checked:
            checked = True
            xn = _Modulus(g, n).pow_linear(0, n)
            xn[1] = (xn[1] - 1) % n
            g = _pgcd(xn, g, n)
            if len(g) < 2:
                if spare is None:
                    raise CompositeDetected("class-poly-has-no-root", n=n)
                g = spare
    raise CompositeDetected("equal-degree-split-stalled", n=n)
