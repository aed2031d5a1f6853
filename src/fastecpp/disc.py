"""Discriminant-side machinery for the candidate search.

Class-number tables by reduced-form enumeration, signed primes, the
enumeration of the discriminants buildable from a set of signed primes,
and the per-modulus pool: those discriminants with square roots composed
from precomputed signed-prime roots.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CompositeDetected
from .numth import jacobi
from . import trialdiv


@dataclass
class Disc:
    """One pool entry: a fundamental discriminant with class data.

    `parts` are the qstar values whose product is d; `rank` is the position
    of the last of them in the signed primes it was enumerated from, so a
    step's rounds, up to the round at 4096 after which the step gives up,
    reach the entries of rank < budget.  `root`, when set, satisfies
    root^2 = d (mod n) for the modulus the pool was built for.
    """

    d: int
    h: int
    rank: int
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

    @cached_property
    def max_h(self) -> int:
        """The largest class number in the table."""
        return int(self._h.max())

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


# Consecutive values of a whose early terms share one bincount.  At
# dmax = 2^20 (2-core machine, CPython 3.11, numpy 2.4) groups of 6 to 16
# all took 0.22-0.25 s for the whole count and 24 no less; 8 keeps the
# group's temporaries near 6 MB, below the 8 MB index array of
# _fundamental_mask.
_SCATTER_GROUP = 8


def _count_forms(dmax: int) -> np.ndarray:
    """Count reduced forms (a, b, c) per x = |D| <= dmax.

    Enumerates 0 <= b <= a <= c with x = 4ac - b^2; b > 0 with b < a and
    a < c stands for the pair (a, +/-b, c), everything else for a single
    form.  For fixed (a, b) the x run through 4a^2 - b^2 in steps of 4a
    (c = a, a + 1, ...), all = -b^2 (mod 4a).  The count is built per a
    from two exact pieces:

    - x >= 4a^2: for every b, the x = -b^2 (mod 4a) in this range have
      c = (x + b^2)/4a >= a, so every b's progression is present, and
      c = a only at b = 0, x = 4a^2, where the weight is 1 anyway.  The
      contribution of a is therefore periodic with period 4a: pattern
      entry -b^2 mod 4a gets 2 for 0 < b < a and 1 for b in {0, a}, and
      it is added through a (rows, 4a) view of counts[4a^2:].
    - 3a^2 <= x < 4a^2: only c = a ... a + ceil(b^2/4a) - 1 of each b >= 1
      fall here, the c = a term with weight 1.  These early terms are
      generated by a cumulative sum of the steps and scattered with one
      weighted bincount per `_SCATTER_GROUP` consecutive a.
    """
    counts = np.zeros(dmax + 1, dtype=np.int32)
    amax = math.isqrt(dmax // 3)
    for a0 in range(1, amax + 1, _SCATTER_GROUP):
        a1 = min(a0 + _SCATTER_GROUP, amax + 1)
        _add_early_terms(counts, a0, a1)
        for a in range(a0, min(a1, math.isqrt(dmax // 4) + 1)):
            _add_periodic(counts, a)
    return counts


def _add_early_terms(counts: np.ndarray, a0: int, a1: int) -> None:
    """Add the forms with x < 4a^2 for a0 <= a < a1 (see `_count_forms`)."""
    dmax = counts.size - 1
    # every pair (a, b) with a0 <= a < a1 and 1 <= b <= a
    a_vals = np.arange(a0, a1)
    a = np.repeat(a_vals, a_vals)
    b = np.arange(1, a.size + 1) - np.repeat(np.cumsum(a_vals) - a_vals, a_vals)
    step = 4 * a
    first = step * a - b * b                # c = a
    nterms = (b * b + step - 1) // step     # terms below 4a^2
    starts = np.cumsum(nterms) - nterms
    last = first + step * (nterms - 1)
    x = np.repeat(step, nterms)
    x[starts] = first - np.concatenate(([0], last[:-1]))
    np.cumsum(x, out=x)
    weights = np.repeat(np.where(b < a, 2.0, 1.0), nterms)
    weights[starts] = 1.0                   # a = c admits only b >= 0
    lo = 3 * a0 * a0
    hi = min(4 * (a1 - 1) ** 2, dmax + 1)
    np.minimum(x, hi, out=x)                # x > dmax lands in a dropped bin
    x -= lo
    early = np.bincount(x, weights=weights, minlength=hi - lo + 1)
    counts[lo:hi] += early[: hi - lo].astype(np.int32)


def _add_periodic(counts: np.ndarray, a: int) -> None:
    """Add the forms with x >= 4a^2 for one a (see `_count_forms`)."""
    period = 4 * a
    b = np.arange(a + 1)
    pattern = np.bincount(
        -b * b % period,
        weights=np.where((b > 0) & (b < a), 2.0, 1.0),
        minlength=period,
    ).astype(np.int32)
    base = period * a
    rows = (counts.size - base) // period
    tail = base + rows * period
    counts[base:tail].reshape(rows, period)[...] += pattern
    counts[tail:] += pattern[: counts.size - tail]


def class_number_table(dmax: int) -> ClassNumberTable:
    """Class numbers of all fundamental discriminants down to -dmax.

    Counts reduced primitive forms by direct enumeration (for fundamental
    D every form is automatically primitive).  `_count_forms` adds each
    a's forms above 4a^2 as one pattern of period 4a; that sum is exact,
    not an estimate, because there every b's progression of c >= a is
    present, so the count equals the form-by-form enumeration's.
    """
    if dmax < 4:
        raise ValueError("dmax must be >= 4")
    # mask first: its temporaries are gone before the counts exist, which
    # keeps the 4 MB of counts (at dmax = 2^20) out of the peak
    fundamental = _fundamental_mask(dmax)
    counts = _count_forms(dmax)
    counts[~fundamental] = 0
    return ClassNumberTable(dmax, counts)


def signed_prime_stream(n: int) -> Iterator[int]:
    """Signed primes q* with (q*|n) = +1, each once, by non-decreasing |q*|.

    A signed prime is a prime discriminant factor: -4, 8, -8, or q* = q
    for an odd prime q = 1 (mod 4) and -q for q = 3 (mod 4), so q* is
    always 0 or 1 mod 4.  The order is -3, -4, 5, -7, -8, 8, -11, ...:
    ties at |q*| = 8 are broken as -8 before 8.  The primes come in
    windows (lo, hi], then (hi, 4 hi], so no prime comes twice.
    A q* with (q*|n) = 0 and gcd giving a proper divisor of n raises
    CompositeDetected.
    """
    lo, hi = 2, 1 << 10
    while True:
        qstars = [p if p % 4 == 1 else -p for p in trialdiv.primes_in_range(lo, hi)]
        if lo < 8:
            qstars = sorted(qstars + [-4, -8, 8], key=lambda q: (abs(q), q))
        for qs in qstars:
            j = jacobi(qs, n)
            if j == 1:
                yield qs
            elif j == 0:
                g = math.gcd(abs(qs), n)
                if 1 < g < n:
                    raise CompositeDetected("small-prime-factor", factor=g, n=n)
        lo, hi = hi, 4 * hi


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


# Most position tuples `enumerate_pool_discs` makes in one array pass.  At
# three parts, with no bound on h, the call traced 0.5 MB above its 4.4 MB
# result for 256 signed primes, and 1.1 MB above 11.3 MB for 4096.
_TUPLE_BLOCK = 1 << 13


def _expand_ranges(lo: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) for every value in [lo[row], lo[row] + count[row])."""
    row = np.repeat(np.arange(lo.size), count)
    value = np.arange(row.size) + np.repeat(lo - np.cumsum(count) + count, count)
    return row, value


def enumerate_pool_discs(
    qstars: list[int],
    table: ClassNumberTable,
    dmax: int,
    hmax: int,
    pmax: int,
    maxparts: int,
) -> list[Disc]:
    """All fundamental D buildable from the given signed primes.

    `qstars` are distinct signed primes by non-decreasing |q*|, as
    `signed_prime_stream` yields them.  The result holds the products of
    up to `maxparts` of them, restricted to |D| <= dmax, h(D) <= hmax and
    max prime of h(D) <= pmax.  (Two even signed primes never meet in one
    D: their product is divisible by 16, so D is not fundamental.)  Each
    D comes from one set of signed primes, so it appears once.  The
    entries come in the order the enumeration makes them; no decision
    reads that order: `choose_k` sorts by rank, and a step tries its
    candidates by ascending N'.

    The position tuples are built in numpy one part at a time: a tuple
    ending at position i with product p extends by every k > i with
    |p q*_k| <= dmax, a range found by one binary search in the sorted
    |q*|, so no array grows with |qstars|^2; the new tuples are made in
    blocks of at most `_TUPLE_BLOCK`, or the extensions of one tuple.
    h(D) comes from the table, and the pmax test from a per-h table.
    """
    dmax = min(dmax, table.dmax)
    hmax = min(hmax, table.max_h)
    q = np.array(qstars, dtype=np.int64)
    size = np.abs(q)
    h_ok = np.array([h > 0 and all(p <= pmax for p in _factor_small(h))
                     for h in range(hmax + 1)] + [False])
    found_d, found_rank, found_parts = [], [], []   # accepted tuples, by extend call

    def extend(pos: np.ndarray, last: np.ndarray, prod: np.ndarray) -> None:
        """Keep the accepted tuples among `pos`, then extend every tuple."""
        neg = np.flatnonzero(prod < 0)
        keep = neg[h_ok[np.minimum(table._h[-prod[neg]], hmax + 1)]]
        found_d.append(prod[keep])
        found_rank.append(last[keep])
        found_parts.extend(zip(*(q[col].tolist() for col in pos[keep].T)))
        if pos.shape[1] == maxparts:
            return
        # per tuple, the range of positions k it extends by
        lo = last + 1
        count = np.maximum(np.searchsorted(size, dmax // np.abs(prod), side="right") - lo, 0)
        ends = np.cumsum(count)
        a = 0
        while a < len(prod):
            done = ends[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + _TUPLE_BLOCK, side="right")))
            row, k = _expand_ranges(lo[a:b], count[a:b])
            parent = a + row
            extend(np.column_stack((pos[parent], k)), k, prod[parent] * q[k])
            a = b

    # from the empty tuple: no position, product 1
    extend(np.empty((1, 0), dtype=np.int64), np.array([-1]), np.ones(1, dtype=np.int64))
    d = np.concatenate(found_d)
    return list(map(Disc, d.tolist(), table._h[-d].tolist(),
                    np.concatenate(found_rank).tolist(), found_parts))


def build_pool(n: int, entries: list[Disc], roots: dict[int, int]) -> list[Disc]:
    """The entries with square roots of D modulo n attached.

    `roots` maps qstar -> square root of qstar mod n and holds every part
    of every entry.  Each entry gets root = the product of its parts'
    roots, so root^2 = D (mod n) by construction.
    """
    pool: list[Disc] = []
    for entry in entries:
        r = 1
        for qs in entry.parts:
            r = r * roots[qs] % n
        if __debug__:
            assert r * r % n == entry.d % n
        pool.append(replace(entry, root=r))
    return pool
