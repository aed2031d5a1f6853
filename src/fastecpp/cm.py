"""Hilbert class polynomials and their roots modulo N.

The class polynomial of a fundamental discriminant D is built from
complex approximations of gamma2 = j^(1/3), from Dedekind eta at the CM
point of every reduced form; conjugate pairs give real quadratic factors,
and the expanded coefficients are rounded with a residual check and a
precision-doubling retry.  For 3 not dividing D that is the polynomial of
gamma2, at a third of the precision, and H_D follows from it exactly; for
3 | D it is H_D, from j = gamma2^3.
"""

import math
import random
from dataclasses import dataclass

import mpmath

from .errors import CompositeDetected, PrecisionError
from .numth import checked_inverse

_MAX_PRECISION_RETRIES = 4


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
    """

    d: int
    coeffs: list[int]

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


def _cmul(x: tuple[int, int], y: tuple[int, int], wp: int) -> tuple[int, int]:
    """Product of complex (re, im) with wp fraction bits, by three products."""
    (a, b), (c, d) = x, y
    k = c * (a + b)
    return (k - b * (c + d)) >> wp, (k + a * (d - c)) >> wp


def _cdiv(x: tuple[int, int], y: tuple[int, int], wp: int) -> tuple[int, int]:
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) << wp) // n, ((x[1] * y[0] - x[0] * y[1]) << wp) // n


def _fixed(z, wp: int) -> tuple[int, int]:
    return int(mpmath.ldexp(z.real, wp)), int(mpmath.ldexp(z.imag, wp))


def _euler_product(x: tuple[int, int], bits: float, wp: int) -> tuple[int, int]:
    """prod(1 - x^n), n >= 1, by Euler's pentagonal series, the sum of
    (-1)^k x^(k(3k-1)/2) over all integers k, up to |x|^e < 2^-wp for
    |x| = 2^-bits.  From k to k + 1 the terms of exponents k(3k -/+ 1)/2
    gain the ratios -x^(3k+1) and -x^(3k+2), updated by x^3."""
    neg = (-x[0], -x[1])
    step1, step2 = neg, _cmul(x, neg, wp)
    x3 = _cmul(step2, neg, wp)
    t1 = t2 = total = (1 << wp, 0)
    for _ in range(int((1 + math.sqrt(1 + 24 * wp / bits)) / 6)):  # k(3k-1)/2 * bits <= wp
        t1, t2 = _cmul(t1, step1, wp), _cmul(t2, step2, wp)
        total = (total[0] + t1[0] + t2[0], total[1] + t1[1] + t2[1])
        step1, step2 = _cmul(step1, x3, wp), _cmul(step2, x3, wp)
    return total


def _gamma2(sqrt_ad, f: ReducedForm, e: int, wp: int) -> tuple[int, int]:
    """zeta3^e * gamma2(tau) at tau = (-b + sqrt(D)) / (2a), f = [a, b, c].

    gamma2 = (f1^24 + 16) / f1^8 for Weber's f1(tau) = eta(tau/2) / eta(tau).
    For r = exp(pi i tau) and u = prod(1 - r^n) / prod(1 - r^(2n)) this is
    r^(-2/3) (u^24 + 16 r) / u^8, where r^(-2/3) zeta3^e has modulus
    exp(pi sqrt|D| / 3a) and angle pi (b + 2ae) / 3a.
    """
    t = mpmath.pi * sqrt_ad / f.a
    r = _fixed(mpmath.exp(mpmath.mpc(-t / 2, -mpmath.pi * f.b / (2 * f.a))), wp)
    bits = float(t) / (2 * math.log(2))
    u8 = _cdiv(_euler_product(r, bits, wp), _euler_product(_cmul(r, r, wp), 2 * bits, wp), wp)
    for _ in range(3):
        u8 = _cmul(u8, u8, wp)
    u24 = _cmul(_cmul(u8, u8, wp), u8, wp)
    scale = mpmath.exp(mpmath.mpc(t / 3, mpmath.pi * (f.b + 2 * f.a * e) / (3 * f.a)))
    return _cmul(_fixed(scale, wp), _cdiv((u24[0] + 16 * r[0], u24[1] + 16 * r[1]), u8, wp), wp)


def _zeta_exponent(f: ReducedForm) -> int:
    """e such that zeta3^e gamma2(tau_f) is gamma2 at an equivalent form
    [A, B, C] with 3 | B and 3 not dividing A: tau + 1 maps [a, b, c] to
    [a, b - 2a, a - b + c] and multiplies gamma2 by zeta3^-1; -1/tau maps it
    to [c, -b, a].  If 3 | a and 3 | c, tau + 1 first makes c prime to 3."""
    a, b, c, e = f.a, f.b, f.c, 0
    if a % 3 == 0 and c % 3 == 0:
        b, c, e = b - 2 * a, a - b + c, -1
    if a % 3 == 0:
        a, b = c, -b
    return (e - 2 * a * b) % 3  # tau + k with 2ak = b (mod 3) makes 3 | B


def precision_for(d: int, forms: list[ReducedForm], cube_roots: bool = False) -> int:
    """First-attempt bit precision for H_D, or for W if cube_roots.

    pi sqrt|D| sum(1/a) / ln 2 bounds the coefficient sizes of H_D, and a
    third of it those of W.  A guard of h + 32 bits absorbs accumulation
    in the expansion of either.
    """
    height = math.pi * math.sqrt(-d) * math.fsum(1.0 / f.a for f in forms) / math.log(2)
    return math.ceil(height / 3 if cube_roots else height) + len(forms) + 32


def _expand(d: int, forms: list[ReducedForm], wp: int, cube_roots: bool) -> tuple[list[int], float]:
    """Round prod(x - v_Q) over the forms Q, evaluated with wp fraction bits.

    v_Q is zeta3^e gamma2(tau_Q) (the polynomial W, for 3 not dividing D)
    if cube_roots, else j(tau_Q) = gamma2(tau_Q)^3 (H_D itself).
    """
    one = 1 << wp
    with mpmath.workprec(wp):
        sqrt_ad = mpmath.sqrt(-d)
        # real linear factors for self-conjugate forms, real quadratics
        # for +/-b pairs (the pair members have conjugate values)
        poly = [one]
        for f in forms:
            if f.b < 0:
                continue
            v = _gamma2(sqrt_ad, f, _zeta_exponent(f) if cube_roots else 0, wp)
            if not cube_roots:
                v = _cmul(_cmul(v, v, wp), v, wp)
            pair = 0 < f.b < f.a < f.c
            factor = [(v[0] * v[0] + v[1] * v[1]) >> wp, -2 * v[0], one] if pair else [-v[0], one]
            poly = [c >> wp for c in _rmul(poly, factor)]
    coeffs = [(c + (one >> 1)) >> wp for c in poly]
    residual = max(abs(c - (r << wp)) / one for c, r in zip(poly, coeffs))
    return coeffs, residual


def _rmul(u: list, v: list) -> list:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for k, vk in enumerate(v):
            out[i + k] += ui * vk
    return out


def _cube_norm(w: list[int]) -> list[int]:
    """H with H(x^3) = W(x) W(zeta3 x) W(zeta3^2 x), in exact integers:
    for W = A(x^3) + x B(x^3) + x^2 C(x^3), H(y) = A^3 + y B^3 + y^2 C^3 - 3y ABC."""
    a, b, c = w[0::3], w[1::3], w[2::3]
    out = [0] * len(w)
    for shift, p in ((0, _rmul(_rmul(a, a), a)), (1, _rmul(_rmul(b, b), b)),
                     (2, _rmul(_rmul(c, c), c)), (1, [-3 * x for x in _rmul(_rmul(a, b), c)])):
        for i, x in enumerate(p):
            out[i + shift] += x
    return out


def hilbert_class_poly(d: int) -> ClassPolynomial:
    """Hilbert class polynomial of the fundamental discriminant d.

    Monic of degree h(d), integral coefficients.  For 3 not dividing d,
    gamma2 = j^(1/3) is a class invariant (Enge & Morain, ANTS 2002): its
    class polynomial W, of a third of the height of H_D, is evaluated at a
    third of the precision, and H_D follows exactly by `_cube_norm`.  For
    3 | d, H_D is evaluated from j = gamma2^3.  A coefficient further than
    1/4 from an integer means a retry at doubled precision; exceeding the
    retry cap raises PrecisionError.
    """
    forms = reduced_forms(d)
    if not forms:
        raise ValueError(f"{d} is not a valid discriminant")
    cube_roots = d % 3 != 0
    wp = precision_for(d, forms, cube_roots) + 32 + len(forms).bit_length()
    for attempt in range(_MAX_PRECISION_RETRIES + 1):
        coeffs, residual = _expand(d, forms, wp << attempt, cube_roots)
        if residual < 0.25:
            return ClassPolynomial(d, _cube_norm(coeffs) if cube_roots else coeffs)
    raise PrecisionError(f"class polynomial for D={d} did not stabilise")


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z/nZ (dense ascending coefficient lists)


def _ptrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod(u: list[int], f: list[int], n: int) -> tuple[list[int], list[int]]:
    """(u // f, u mod f) for monic f."""
    u = u[:]
    df = len(f) - 1
    q = [0] * max(len(u) - df, 0)
    for shift in range(len(u) - 1 - df, -1, -1):
        lead = u[shift + df]
        q[shift] = lead
        if lead:
            for i in range(df + 1):
                u[shift + i] = (u[shift + i] - lead * f[i]) % n
    return _ptrim(q), _ptrim(u[:df])


def _pmonic(p: list[int], n: int) -> list[int]:
    inv = checked_inverse(p[-1], n)
    return [c * inv % n for c in p]


def _pgcd(u: list[int], v: list[int], n: int) -> list[int]:
    u, v = _ptrim(u[:]), _ptrim(v[:])
    while v:
        v = _pmonic(v, n)
        u, v = v, _pdivmod(u, v, n)[1]
    return _pmonic(u, n) if u else u


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


def root_mod(poly: ClassPolynomial, n: int, rng: random.Random) -> int:
    """One root of the class polynomial modulo the probable prime n.

    Isolates a single root by randomised equal-degree splitting of f
    itself with (x + delta)^((n-1)/2) - 1, keeping the smaller factor of
    each proper split.  Both powers are computed modulo the current
    factor by Kronecker substitution and row reduction (see `_Modulus`).
    Every draw comes from `rng`, so the root is fixed by its state.

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
                spare, g = d, _pdivmod(g, d, n)[0]
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
