"""Batched smooth-part extraction via prime products and remainder trees.

A curve cardinality m is split as m = c * N' with c composed entirely of
primes up to the smoothness bound B and N' coprime to them.  The batch
path computes P mod m_i for all m_i with a product/remainder tree, then
extracts c by an iterated-gcd ladder run to stabilisation.

The remainder tree runs in exact `decimal` arithmetic: libmpdec multiplies
large operands with a number-theoretic transform, where CPython's int
arithmetic is quadratic in the size of P.  Every tree operation runs in
one context whose precision is unbounded in practice and which traps
Inexact and Rounded, so a result that is not exact raises instead of
being rounded; the caller's context is never touched.  Leaves are cut
into batches of at most about bitlen(P)/4 bits (`_batch_cap`).  Each
batch keeps all its product levels, so the live tree stays within about
the tree depth times the cap, plus the leaves and P.  A smaller cap costs
more reductions of P and keeps a smaller tree: with 10k 256-bit moduli
against the 1.5-Mbit product of the primes below 2^20, caps of
bitlen(P), /2, /4 and /8 took 3.30, 3.13-3.17, 3.24-3.44 and 3.85-3.96 s,
and /2, /4 and /8 traced peaks of 4.7, 3.6 and 3.1 MB (three runs each,
one process, 2-core machine, CPython 3.11).

The reduction of P by a batch's root is most of the tree's time on the
prover's batches, and libmpdec's `%` divides by the schoolbook method
below its Newton cutoff.  A root of k >= 4900 digits is reduced instead
by a Barrett reduction over k-digit chunks of P's digits
(`_barrett_mod`), whose products are then number-theoretic-transform
multiplications.  Against the 454,835-digit product of the primes below
2^20, `%` took 53-59 ms for roots of 4700-4850 digits and Barrett
137-152 ms (Karatsuba products); from 4900 digits Barrett took 38-45 ms
and `%` 54-61 ms, and for roots of 27-373 kbits 72-112 ms against
98-157 ms (best of 5, one process, 2-core machine, CPython 3.11).
"""

import decimal
import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property

import numpy as np

_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)
# Decimal(int) and int(Decimal) are quadratic in the size of the number;
# below this many bits (digits) that costs less than splitting further.
_CONVERT_BITS = 1024
_LOG2_10 = math.log2(10)
_CONVERT_DIGITS = int(_CONVERT_BITS / _LOG2_10)
# Roots of fewer digits are reduced by `%` (measured, see above).
_BARRETT_DIGITS = 4900
_ONE = Decimal(1)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n (sieve of Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p <= hi, filtered from `primes_up_to(hi)`."""
    p = primes_up_to(hi)
    return p[p > lo].tolist()


def _product_levels(values: list):
    """Yield the pairwise product levels of values, the leaves first.

    Each level multiplies neighbours of the one below, so operand sizes
    stay balanced; an odd last value is carried up unchanged.  The last
    level yielded holds one value, the product.  Takes ints, or Decimals
    inside the exact context.
    """
    layer = values
    yield layer
    while len(layer) > 1:
        nxt = [layer[i] * layer[i + 1] for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
        yield layer


def to_decimal(n: int) -> Decimal:
    """Exact Decimal copy of an int n >= 0.

    n = hi * 2^h + lo with h = bitlen(n) // 2, converted recursively, so
    the work goes to libmpdec's fast multiplication: 0.2 s for a 1.5-Mbit
    n, against 4 s for Decimal(n) alone.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n.bit_length() <= _CONVERT_BITS:
        return Decimal(n)
    pow2: dict[int, Decimal] = {}

    def convert(n: int, w: int) -> Decimal:  # 0 <= n < 2^w
        if w <= _CONVERT_BITS:
            return Decimal(n)
        h = w >> 1
        two_h = pow2.get(h)
        if two_h is None:
            two_h = pow2[h] = Decimal(2) ** h
        hi = n >> h
        return convert(hi, w - h) * two_h + convert(n - (hi << h), h)

    with decimal.localcontext(_EXACT):
        return convert(n, n.bit_length())


def to_int(x: Decimal) -> int:
    """Exact int copy of an integral Decimal x >= 0; the inverse of to_decimal.

    x = hi * 10^h + lo with h half its digit count, split exactly in
    Decimal and joined recursively in int, so int(Decimal) only sees
    numbers of at most `_CONVERT_DIGITS` digits.
    """
    if x.adjusted() < _CONVERT_DIGITS:
        return int(x)
    pow10: dict[int, int] = {}

    def convert(x: Decimal, w: int) -> int:  # 0 <= x < 10^w
        if w <= _CONVERT_DIGITS:
            return int(x)
        h = w >> 1
        ten_h = pow10.get(h)
        if ten_h is None:
            ten_h = pow10[h] = 10**h
        hi = x.scaleb(-h).to_integral_value(decimal.ROUND_DOWN)
        return convert(hi, w - h) * ten_h + convert(x - hi.scaleb(h), h)

    with decimal.localcontext(_EXACT):
        return convert(x, x.adjusted() + 1)


@dataclass
class PrimeProduct:
    """Product of all primes in (b_lo, b_hi]."""

    b_lo: int
    b_hi: int
    value: int = field(repr=False)  # str() refuses ints over ~4300 digits
    nbits: int

    @cached_property
    def decimal_value(self) -> Decimal:
        """Exact Decimal copy of value for the remainder tree.

        Converted on first use rather than in prime_product, so callers
        that never build a tree do not pay for it.
        """
        return to_decimal(self.value)

    @cached_property
    def digits(self) -> str:
        """The decimal digits of value for `_barrett_mod`, written out on
        first use (1.6 ms for the product of the primes below 2^20)."""
        return str(self.decimal_value)


# Largest log2 of the smoothness bound B that `prove`, `bench` and
# `stats --sample` accept.  The product of the primes below 2^24 took 24 s
# to build and 7.2 s more to convert to Decimal (2-core machine,
# CPython 3.11), and each bit more doubles that.
MAX_B_BITS = 24


def prime_product(b_lo: int, b_hi: int) -> PrimeProduct:
    """Exact product of the primes in (b_lo, b_hi]; 1 for an empty range.

    Only the top level of the product tree is kept: every level of the
    product of the primes below 2^20 would trace 2.6 times the peak.
    """
    if not (1 <= b_lo < b_hi):
        raise ValueError("need 1 <= b_lo < b_hi")
    for top in _product_levels(primes_in_range(b_lo, b_hi) or [1]):
        pass
    value = top[0]
    return PrimeProduct(b_lo, b_hi, value, value.bit_length())


def _bits(x: Decimal) -> int:
    """Bit length bound of an integral Decimal x >= 0: ceil(digits * log2 10)."""
    return math.ceil((x.adjusted() + 1) * _LOG2_10)


def _batch_cap(p: Decimal) -> int:
    """Most leaf bits per remainder-tree batch: about bitlen(P)/4, at least 1."""
    return _bits(p) // 4


def _batches(ms: list[int], cap: int) -> list[list[int]]:
    """ms cut into consecutive runs of at most cap bits, one leaf minimum."""
    batches, start, acc = [], 0, 0
    for i, m in enumerate(ms):
        b = m.bit_length()
        if i > start and acc + b > cap:
            batches.append(ms[start:i])
            start, acc = i, b
        else:
            acc += b
    batches.append(ms[start:])
    return batches


def _barrett_mod(digits: str, m: Decimal) -> Decimal:
    """P mod m inside the exact context, P given by its decimal digits.

    With k the digit count of m, the k-digit chunks of P (the first one
    shorter) are folded in from the top: r = r * 10^k + chunk < 10^2k, so
    with mu = floor(10^2k / m) Barrett's estimate
    floor(floor(r / 10^(k-1)) * mu / 10^(k+1)) is at most 2 below
    floor(r / m) (Handbook of Applied Cryptography, 14.42).
    """
    k = m.adjusted() + 1
    mu = _ONE.scaleb(2 * k) // m
    r = Decimal(0)
    start = 0
    for end in range(len(digits) % k or k, len(digits) + 1, k):
        r = r.scaleb(k) + Decimal(digits[start:end])
        start = end
        q = r.scaleb(1 - k).to_integral_value(decimal.ROUND_DOWN) * mu
        r -= q.scaleb(-k - 1).to_integral_value(decimal.ROUND_DOWN) * m
        while r >= m:
            r -= m
    return r


def remainder_tree(p: int | Decimal | PrimeProduct, ms: list[int]) -> list[int]:
    """P mod m_i for every i, by batched product/remainder trees.

    P >= 0 is an int, an exact integral Decimal, or a PrimeProduct, whose
    Decimal copy and digit string are kept on it; an int is converted on
    each call.  The tree runs in exact decimal arithmetic (see the module
    docstring); leaves go in by `to_decimal` and the remainders come back
    by `to_int`, both subquadratic in the size of the number.  The leaves
    are cut into consecutive batches whose product stays at or below
    about bitlen(P)/4 bits (one leaf minimum).  Each batch builds its
    product levels once, reduces P by the root, and walks down: a node's
    remainder is its parent's remainder mod the node.  A root of fewer
    than 4900 digits (about 16.3 kbits) is reduced by libmpdec's `%`, a
    larger one by `_barrett_mod`.  Batch boundaries do not change the
    result.
    """
    product = p if isinstance(p, PrimeProduct) else None
    if product is not None:
        p = product.decimal_value
    if any(m < 2 for m in ms):
        raise ValueError("all moduli must be >= 2")
    if p < 0:
        raise ValueError("p must be >= 0")
    if not ms:
        return []
    if isinstance(p, int):
        p = to_decimal(p)
    digits = ""  # P's digits, written out when a root first needs them
    out: list[int] = []
    with decimal.localcontext(_EXACT):
        for batch in _batches(ms, _batch_cap(p)):
            levels = list(_product_levels([to_decimal(m) for m in batch]))
            root = levels.pop()[0]
            if root.adjusted() + 1 < _BARRETT_DIGITS:
                rems = [p % root]
            else:
                digits = digits or (product.digits if product else str(p.quantize(_ONE)))
                rems = [_barrett_mod(digits, root)]
            while levels:
                rems = [rems[i >> 1] % m for i, m in enumerate(levels.pop())]
            out += map(to_int, rems)
    return out


@dataclass
class SmoothSplit:
    """m = c * nprime with c smooth and nprime coprime to the prime pool."""

    m: int
    c: int
    nprime: int


def _extract_ladder(m: int, rem: int) -> tuple[int, int]:
    """Iterated-gcd ladder: pull out every power of each shared prime.

    Starts from gcd(m, P mod m) and keeps dividing until the gcd
    stabilises at 1, so the split is exact even for high prime powers
    (the classic worst case m = 2^L just runs the ladder L times).
    """
    c = 1
    g = math.gcd(m, rem % m)
    while g > 1:
        c *= g
        m //= g
        g = math.gcd(m, g)
    return c, m


def smooth_split(m: int, p_mod_m: int, p: int) -> SmoothSplit:
    """Split m against a single prime product P, given P mod m."""
    if m < 2:
        raise ValueError("m must be >= 2")
    c, nprime = _extract_ladder(m, p_mod_m)
    return SmoothSplit(m, c, nprime)


def batch_factor(ms: list[int], product: PrimeProduct) -> list[SmoothSplit]:
    """Smooth-split every m against the product of the primes in (1, B].

    One remainder tree gives P mod m for every m, and the gcd ladder
    takes the smooth part of each.
    """
    if product.b_lo > 1:
        raise ValueError("the prime range must start at 1, below the prime 2")
    return [SmoothSplit(m, *_extract_ladder(m, r))
            for m, r in zip(ms, remainder_tree(product, ms))]
