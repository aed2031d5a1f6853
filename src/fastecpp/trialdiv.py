"""Batched smooth-part extraction via prime products and remainder trees.

A curve cardinality m is split as m = c * N' with c composed entirely of
primes up to the smoothness bound B and N' coprime to them.  The batch
path computes P mod m_i for all m_i with a product/remainder tree, then
extracts c by an iterated-gcd ladder run to stabilisation.

The remainder tree runs in exact `decimal` arithmetic: libmpdec multiplies
large operands with a number-theoretic transform and divides by Newton
iteration, where CPython's int division is schoolbook, quadratic in the
size of P.  Every tree operation runs in one context whose precision is
unbounded in practice and which traps Inexact and Rounded, so a result
that is not exact raises instead of being rounded; the caller's context
is never touched.  Leaves are cut into batches of at most about
bitlen(P)/4 bits (`_batch_cap`), and subtree products are recomputed on
the way down, so the live tree stays within about twice the batch
size plus the leaves.  The cap trades one more reduction of P per batch
for shallower descents: with 10k 256-bit moduli against the 1.5-Mbit
product of the primes below 2^20, a cap of bitlen(P) took 3.9 s,
bitlen(P)/2 3.4 s, bitlen(P)/4 3.2-3.4 s and bitlen(P)/8 3.7 s (two
runs each, one process, 2-core machine, CPython 3.11).
"""

import decimal
import math
from dataclasses import dataclass
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
# Decimal(int) is quadratic in the size of the int; below this many bits
# that costs less than splitting further.
_CONVERT_BITS = 1024
_LOG2_10 = math.log2(10)


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
    """Primes p with lo < p <= hi, via a segmented sieve."""
    if hi <= lo:
        return []
    base = primes_up_to(math.isqrt(hi))
    seg = np.ones(hi - lo, dtype=bool)  # index i -> lo + 1 + i
    for p in base:
        p = int(p)
        start = max(p * p, ((lo + 1 + p - 1) // p) * p)
        if start > hi:
            continue
        seg[start - lo - 1 :: p] = False
    if lo < 1:
        seg[: 1 - lo] = False  # mask values < 2
    if lo < 2 <= hi:
        seg[2 - lo - 1] = True
    vals = np.nonzero(seg)[0] + lo + 1
    return [int(v) for v in vals if v >= 2]


def _balanced_product(values: list) -> int | Decimal:
    """Product by pairwise folding, keeping operand sizes balanced.

    Takes ints, or Decimals inside the exact context.
    """
    if not values:
        return 1
    layer = values
    while len(layer) > 1:
        nxt = [layer[i] * layer[i + 1] for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def to_decimal(n: int) -> Decimal:
    """Exact Decimal copy of an int n >= 0.

    n = hi * 2^h + lo with h = bitlen(n) // 2, converted recursively, so
    the work goes to libmpdec's fast multiplication: 0.2 s for a 1.5-Mbit
    n, against 4 s for Decimal(n) alone.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
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


@dataclass
class PrimeProduct:
    """Product of all primes in (b_lo, b_hi]."""

    b_lo: int
    b_hi: int
    value: int
    nbits: int
    empty: bool = False

    @cached_property
    def decimal_value(self) -> Decimal:
        """Exact Decimal copy of value for the remainder tree.

        Converted on first use rather than in prime_product, so callers
        that never build a tree do not pay for it.
        """
        return to_decimal(self.value)


def prime_product(b_lo: int, b_hi: int) -> PrimeProduct:
    """Exact product of the primes in (b_lo, b_hi].

    An empty range yields value 1 with the `empty` flag set.
    """
    if not (1 <= b_lo < b_hi):
        raise ValueError("need 1 <= b_lo < b_hi")
    ps = primes_in_range(b_lo, b_hi)
    value = _balanced_product(ps)
    return PrimeProduct(b_lo, b_hi, value, value.bit_length(), empty=not ps)


def _bits(x: Decimal) -> int:
    """Bit length bound of an integral Decimal x >= 0: ceil(digits * log2 10)."""
    return math.ceil((x.adjusted() + 1) * _LOG2_10)


def _batch_cap(p: Decimal) -> int:
    """Most leaf bits per remainder-tree batch: about bitlen(P)/4, at least 1."""
    return _bits(p) // 4


class MemoryMeter:
    """Tracks the live big-number bits held by a remainder tree.

    The tree code reports every allocation and release of an internal
    value, so tests can assert the peak stays within the designed bound
    (about twice the batch product size plus the leaves, and a batch is
    at most about bitlen(P)/4 bits).  Values are Decimals; each counts as
    ceil(digits * log2 10) bits, an upper bound on its bit length.
    """

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

    def alloc(self, value: Decimal) -> Decimal:
        self.live += _bits(value)
        if self.live > self.peak:
            self.peak = self.live
        return value

    def free(self, value: Decimal) -> None:
        self.live -= _bits(value)


class _NullMeter:
    def alloc(self, value: Decimal) -> Decimal:
        return value

    def free(self, value: Decimal) -> None:
        pass


_NULL_METER = _NullMeter()


def _descend(x: Decimal, ms: list[Decimal], out: list[int], base: int, meter) -> None:
    """Replace x = P mod prod(ms) by the per-leaf remainders, as ints.

    Subtree products are recomputed at each level instead of being kept,
    which bounds live memory by ~2x the product size at the cost of a
    logarithmic factor in multiplications.  Runs in the exact context.
    """
    if len(ms) == 1:
        out[base] = int(x)
        meter.free(x)
        return
    mid = len(ms) // 2
    left, right = ms[:mid], ms[mid:]
    ml = meter.alloc(_balanced_product(left))
    xl = meter.alloc(x % ml)
    meter.free(ml)
    mr = meter.alloc(_balanced_product(right))
    xr = meter.alloc(x % mr)
    meter.free(mr)
    meter.free(x)
    del x, ml, mr
    _descend(xl, left, out, base, meter)
    _descend(xr, right, out, base + mid, meter)


def remainder_tree(
    p: int | Decimal, ms: list[int], meter: MemoryMeter | None = None
) -> list[int]:
    """P mod m_i for every i, by batched product/remainder trees.

    P >= 0 is an int or an exact integral Decimal (such as
    PrimeProduct.decimal_value); an int is converted on each call.  The
    tree runs in exact decimal arithmetic (see the module docstring) and
    the remainders come back as ints.  The leaves are cut into
    consecutive batches whose product M stays at or below about
    bitlen(P)/4 bits (one leaf minimum); each batch costs one reduction
    P mod M and a tree descent.  Batch boundaries do not change the
    result.
    """
    if any(m < 2 for m in ms):
        raise ValueError("all moduli must be >= 2")
    if p < 0:
        raise ValueError("p must be >= 0")
    if not ms:
        return []
    meter_ = meter if meter is not None else _NULL_METER
    if isinstance(p, int):
        p = to_decimal(p)
    leaves = [Decimal(m) for m in ms]
    cap = _batch_cap(p)
    batches: list[tuple[int, list[Decimal]]] = []
    start, acc = 0, 0
    for i, m in enumerate(ms):
        b = m.bit_length()
        if i > start and acc + b > cap:
            batches.append((start, leaves[start:i]))
            start, acc = i, b
        else:
            acc += b
    batches.append((start, leaves[start:]))

    out = [0] * len(ms)
    with decimal.localcontext(_EXACT):
        for base, batch in batches:
            m_batch = meter_.alloc(_balanced_product(batch))
            x0 = meter_.alloc(p % m_batch)
            meter_.free(m_batch)
            _descend(x0, batch, out, base, meter_)
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


def batch_factor(ms: list[int], products: list[PrimeProduct]) -> list[SmoothSplit]:
    """Smooth-split every m against the union of the prime products.

    One remainder tree per prime product; per-range smooth parts combine
    multiplicatively, matching a single split against the full product.
    """
    if not ms:
        return []
    lo = min(pp.b_lo for pp in products)
    if lo > 2:
        raise ValueError("prime ranges must start at 2 or below")
    spans = sorted((pp.b_lo, pp.b_hi) for pp in products)
    for (_, hi_prev), (lo_next, _) in zip(spans, spans[1:]):
        if lo_next != hi_prev:
            raise ValueError("prime ranges must be contiguous")
    rems = [remainder_tree(pp.decimal_value, ms) for pp in products]
    out: list[SmoothSplit] = []
    for i, m in enumerate(ms):
        c_total, mm = 1, m
        for r in rems:
            if mm == 1:
                break
            c, mm = _extract_ladder(mm, r[i] % mm)
            c_total *= c
        out.append(SmoothSplit(m, c_total, mm))
    return out
