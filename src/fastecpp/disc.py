"""Discriminant-side machinery for the candidate search.

Class-number tables by reduced-form enumeration, signed primes, the
enumeration of the discriminants buildable from a set of signed primes,
and the per-modulus pool: those discriminants with square roots composed
from precomputed signed-prime roots.
"""

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import CompositeDetected
from .numth import jacobi
from . import trialdiv


@dataclass(frozen=True, order=True)
class SignedPrime:
    """A prime discriminant factor: -4, 8, -8, or +/-q for odd prime q.

    qstar = q for q = 1 (mod 4) and -q for q = 3 (mod 4), so qstar is
    always 0 or 1 mod 4.
    """

    qstar: int


@dataclass
class Disc:
    """One pool entry: a fundamental discriminant with class data.

    `parts` are the qstar values whose product is d; `root`, when set,
    satisfies root^2 = d (mod n) for the modulus the pool was built for.
    """

    d: int
    h: int
    hfac: tuple[int, ...]
    parts: tuple[int, ...]
    root: int | None = None


class ClassNumberTable:
    """Class numbers h(D) for all fundamental -dmax <= D < 0.

    Backed by an int32 array indexed by |D|; zero marks a non-fundamental
    index.
    """

    def __init__(self, dmax: int, h: np.ndarray):
        self.dmax = dmax
        self._h = h

    def class_number(self, d: int) -> int:
        """h(d) for fundamental d, else 0."""
        if d >= 0 or -d > self.dmax:
            raise ValueError(f"discriminant {d} outside table range")
        return int(self._h[-d])


def _squarefree_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for d in range(2, math.isqrt(limit) + 1):
        mask[d * d :: d * d] = False
    return mask


def _fundamental_mask(dmax: int) -> np.ndarray:
    """mask[x] is True iff D = -x is a fundamental discriminant."""
    sf = _squarefree_mask(dmax)
    x = np.arange(dmax + 1)
    mask = np.zeros(dmax + 1, dtype=bool)
    # D = 1 (mod 4): x = 3 (mod 4) squarefree
    mask[(x % 4 == 3) & sf] = True
    # D = 4m with m squarefree, m = 1 or 2 (mod 4)
    m_idx = x[x % 4 == 0] // 4
    ok = (m_idx > 0) & ((m_idx % 4 == 1) | (m_idx % 4 == 2)) & sf[m_idx]
    mask[x[x % 4 == 0][ok]] = True
    return mask


def _count_forms(dmax: int) -> np.ndarray:
    """Count reduced forms (a, b, c) per |D| <= dmax.

    Enumerates 0 <= b <= a <= c; b > 0 with b < a and a < c stands for the
    pair (a, +/-b, c), everything else for a single form.
    """
    counts = np.zeros(dmax + 1, dtype=np.int32)
    for a in range(1, math.isqrt(dmax // 3) + 1):
        fa = 4 * a
        for b in range(0, a + 1):
            start = fa * a - b * b  # c = a
            if start > dmax:
                continue
            if 0 < b < a:
                counts[start::fa] += 2
                counts[start] -= 1  # a = c admits only b >= 0
            else:
                counts[start::fa] += 1
    return counts


def class_number_table(dmax: int) -> ClassNumberTable:
    """Class numbers of all fundamental discriminants down to -dmax.

    Counts reduced primitive forms by direct enumeration (for fundamental
    D every form is automatically primitive).
    """
    if dmax < 4:
        raise ValueError("dmax must be >= 4")
    counts = _count_forms(dmax)
    counts[~_fundamental_mask(dmax)] = 0
    return ClassNumberTable(dmax, counts)


def signed_prime_stream(n: int) -> Iterator[SignedPrime]:
    """Signed primes q* with (q*|n) = +1, by increasing |q*|.

    Ties at |q*| = 8 are broken as -8 before 8.  A q* with (q*|n) = 0 and
    gcd giving a proper divisor of n raises CompositeDetected.
    """
    bound = 1 << 10
    emitted_specials = False
    while True:
        primes = trialdiv.primes_up_to(bound)
        for p in primes:
            p = int(p)
            if p == 2:
                continue
            qstars = [p if p % 4 == 1 else -p]
            if not emitted_specials and p > 8:
                qstars = [-4, -8, 8] + qstars
                emitted_specials = True
            for qs in qstars:
                j = jacobi(qs, n)
                if j == 1:
                    yield SignedPrime(qs)
                elif j == 0:
                    g = math.gcd(abs(qs), n)
                    if 1 < g < n:
                        raise CompositeDetected("small-prime-factor", factor=g, n=n)
        bound *= 4


def _factor_small(m: int) -> tuple[int, ...]:
    """Prime factors of a small integer, with multiplicity."""
    fac = []
    d = 2
    while d * d <= m:
        while m % d == 0:
            fac.append(d)
            m //= d
        d += 1
    if m > 1:
        fac.append(m)
    return tuple(fac)


def enumerate_pool_discs(
    qstars: list[int],
    table: ClassNumberTable,
    dmax: int,
    hmax: int,
    pmax: int,
    maxparts: int,
) -> list[Disc]:
    """All fundamental D buildable from the given signed primes.

    Products of up to `maxparts` distinct signed primes (at most one even
    one), restricted to |D| <= dmax, h(D) <= hmax and max prime of h(D)
    <= pmax.  Sorted by ascending class number, then |D|: small h makes
    the curve-construction phase cheap.
    """
    dmax = min(dmax, table.dmax)
    found: list[Disc] = []

    def consider(prod: int, parts: tuple[int, ...]) -> None:
        if prod >= 0:
            return
        h = table.class_number(prod)
        if h == 0 or h > hmax:
            return
        hfac = _factor_small(h)
        if hfac and max(hfac) > pmax:
            return
        found.append(Disc(prod, h, hfac, parts))

    m = len(qstars)

    def extend(start: int, prod: int, parts: tuple[int, ...], used_even: bool) -> None:
        if parts:
            consider(prod, parts)
        if len(parts) >= maxparts:
            return
        for i in range(start, m):
            qs = qstars[i]
            if qs % 2 == 0 and used_even:
                continue
            np_ = prod * qs
            if abs(np_) > dmax:
                continue
            extend(i + 1, np_, parts + (qs,), used_even or qs % 2 == 0)

    extend(0, 1, (), False)
    found.sort(key=lambda e: (e.h, -e.d))
    return found


def build_pool(n: int, entries: list[Disc], roots: dict[int, int]) -> list[Disc]:
    """Discriminant pool for modulus n with square roots attached.

    `entries` is an `enumerate_pool_discs` list, possibly over a wider set
    of signed primes than `roots`, which maps qstar -> square root of qstar
    mod n.  The pool keeps, in the order of `entries`, the first entry for
    each D whose parts all have roots, and attaches root = product of the
    component roots, so root^2 = D (mod n) by construction.
    """
    pool: list[Disc] = []
    seen: set[int] = set()
    for entry in entries:
        if entry.d in seen or any(qs not in roots for qs in entry.parts):
            continue
        seen.add(entry.d)
        r = 1
        for qs in entry.parts:
            r = r * roots[qs] % n
        if __debug__:
            assert r * r % n == entry.d % n
        pool.append(replace(entry, root=r))
    return pool
