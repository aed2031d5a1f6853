import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from fastecpp import disc, prover
from fastecpp.errors import CompositeDetected
from fastecpp.numth import is_probable_prime, jacobi, sqrt_mod

# ---------------------------------------------------------------------------
# oracle: count reduced primitive forms the slow, direct way


def reduced_forms_oracle(d: int) -> list[tuple[int, int, int]]:
    forms = []
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                forms.append((a, b, c))
    return forms


def fundamental_oracle(d: int) -> bool:
    def squarefree(x):
        k = 2
        while k * k <= x:
            if x % (k * k) == 0:
                return False
            k += 1
        return True

    if d >= 0:
        return False
    if d % 4 == 1:
        return squarefree(-d)
    if d % 4 == 0:
        m = -d // 4
        return m % 4 in (1, 2) and squarefree(m)
    return False


def test_class_numbers_derived_values(table2000):
    assert table2000.class_number(-3) == 1
    assert table2000.class_number(-4) == 1
    assert table2000.class_number(-7) == 1
    assert table2000.class_number(-8) == 1
    assert table2000.class_number(-11) == 1
    assert table2000.class_number(-15) == 2
    assert table2000.class_number(-23) == 3
    assert sorted(reduced_forms_oracle(-23)) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert sorted(reduced_forms_oracle(-15)) == [(1, 1, 4), (2, 1, 2)]


def test_class_numbers_match_form_count_oracle(table2000):
    for d in range(-3, -201, -1):
        if fundamental_oracle(d):
            assert table2000.class_number(d) == len(reduced_forms_oracle(d)), d


def test_table_only_stores_fundamental(table2000):
    for d in range(-1, -501, -1):
        if d % 4 in (0, 1):
            assert (table2000.class_number(d) > 0) == fundamental_oracle(d), d


def strided_count_forms(dmax: int) -> np.ndarray:
    """Reduced-form counts per |D| <= dmax, one strided add per (a, b).

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


@pytest.mark.parametrize("dmax", [*range(4, 131), 2000, (1 << 16) + 3])
def test_count_forms_matches_strided_oracle(dmax):
    got = disc._count_forms(dmax)
    assert got.dtype == np.int32
    assert np.array_equal(got, strided_count_forms(dmax))


def test_table_2_20_digest(env):
    table = disc.class_number_table(1 << 20)
    digest = hashlib.sha256(table._h.astype("<i4").tobytes()).hexdigest()
    assert digest == "b3020a69e3592355ca12f85ae602ebea7af7bf6d18409d3ef4d767c9e10fc217"
    assert np.array_equal(table._h, env.table._h)


def test_table_rejects_tiny_dmax():
    with pytest.raises(ValueError):
        disc.class_number_table(3)


def test_table_cache_roundtrip(tmp_path, table2000, monkeypatch):
    config = prover.ProveConfig(cache_dir=str(tmp_path))
    prover.Environment(config).ensure_table(2000)
    path = tmp_path / "class_numbers_2000.bin"
    good = path.read_bytes()
    real = disc.class_number_table

    def recompute(dmax):
        raise AssertionError("cached table not used")

    monkeypatch.setattr(disc, "class_number_table", recompute)
    loaded = prover.Environment(config).ensure_table(2000)
    assert loaded.dmax == table2000.dmax
    assert np.array_equal(loaded._h, table2000._h)
    monkeypatch.setattr(disc, "class_number_table", real)
    # a damaged header, and a checksummed payload one entry short
    prover._cache_save(str(tmp_path), "class_numbers_2000", table2000._h[:-1].tobytes())
    for damaged in (b"XXXX" + good[4:], path.read_bytes()):
        path.write_bytes(damaged)
        loaded = prover.Environment(config).ensure_table(2000)
        assert np.array_equal(loaded._h, table2000._h)
        assert path.read_bytes() == good  # recomputed and written back


# ---------------------------------------------------------------------------
# signed primes


def signed_primes(n: int, count: int) -> list[int]:
    """The `count` smallest signed primes that split for n."""
    return list(itertools.islice(disc.signed_prime_stream(n), count))


def prime_of(qstar: int) -> int:
    """The underlying prime of a signed prime (2 for the even cases)."""
    a = abs(qstar)
    return 2 if a in (4, 8) else a


def signed_prime_order_oracle(limit: int) -> list[int]:
    """All qstar values by increasing |q*|, no splitting filter."""
    out = []
    for q in range(3, limit):
        is_p = q > 1 and all(q % k for k in range(2, math.isqrt(q) + 1))
        if is_p:
            out.append(q if q % 4 == 1 else -q)
        if q == 4:
            out.append(-4)
        if q == 8:
            out.extend([-8, 8])
    return out


def test_signed_primes_smallest_splitting():
    n = 1000003
    expect = [q for q in signed_prime_order_oracle(200) if jacobi(q, n) == 1][:3]
    got = signed_primes(n, 3)
    assert got == expect


def test_signed_primes_17_includes_both_even():
    got = signed_primes(17, 6)
    assert jacobi(-4, 17) == 1 and jacobi(8, 17) == 1
    assert -4 in got and 8 in got


def test_signed_primes_zero_count():
    assert signed_primes(1000003, 0) == []


def test_signed_primes_qstar_congruence():
    for qs in signed_primes(10**12 + 39, 25):
        assert qs % 4 in (0, 1)
        assert prime_of(qs) == 2 or prime_of(qs) == abs(qs)


@pytest.mark.parametrize("n", [10**30 + 57, 2**127 - 1, 1000003, 10**12 + 39])
def test_signed_primes_once_each_across_sieve_bounds(n):
    """The first 600 signed primes reach past the sieve bounds 1024 and
    4096: each comes once, by non-decreasing |q*| with -8 before 8, and
    they are the oracle's order filtered by (q*|n) = 1."""
    got = signed_primes(n, 600)
    assert abs(got[-1]) > 4096
    assert len(set(got)) == len(got)
    assert [abs(q) for q in got] == sorted(abs(q) for q in got)
    if -8 in got and 8 in got:
        assert got.index(-8) + 1 == got.index(8)
    assert got == [q for q in signed_prime_order_oracle(abs(got[-1]) + 1) if jacobi(q, n) == 1]


def test_signed_primes_composite_shortcut():
    with pytest.raises(CompositeDetected) as exc:
        signed_primes(3 * 1000003, 5)
    assert exc.value.factor in (3, 1000003)


# ---------------------------------------------------------------------------
# pool construction


def _roots_for(n: int, qstars: list[int]) -> dict[int, int]:
    roots = {}
    for qs in qstars:
        r = sqrt_mod(qs, n)
        assert r is not None, (qs, n)
        roots[qs] = r
    return roots


def enumerate_pool_discs_oracle(qstars, table, dmax, hmax, pmax, maxparts):
    """The enumeration as a depth-first walk over positions of `qstars`:
    each tuple i_1 < ... < i_r (at most one even signed prime, every
    prefix within dmax) is visited before its extensions."""
    dmax = min(dmax, table.dmax)
    found = []

    def consider(prod, parts, last):
        if prod >= 0:
            return
        h = table.class_number(prod)
        if h == 0 or h > hmax:
            return
        hfac = disc._factor_small(h)
        if hfac and max(hfac) > pmax:
            return
        found.append(disc.Disc(prod, h, last, parts))

    def extend(start, prod, parts, used_even):
        if parts:
            consider(prod, parts, start - 1)
        if len(parts) >= maxparts:
            return
        for i in range(start, len(qstars)):
            qs = qstars[i]
            if qs % 2 == 0 and used_even:
                continue
            if abs(prod * qs) > dmax:
                continue
            extend(i + 1, prod * qs, parts + (qs,), used_even or qs % 2 == 0)

    extend(0, 1, (), False)
    return found


def _fields(entries):
    """The entries' fields, sorted by (rank, d): the pool has no order."""
    return sorted((e.rank, e.d, e.h, e.parts) for e in entries)


def _with_roots(entries):
    return sorted((e.rank, e.d, e.h, e.root) for e in entries)


def _ranked(universe, entries):
    rank_of = {qs: i for i, qs in enumerate(universe)}
    return [(max(rank_of[q] for q in e.parts), e.d, e.parts) for e in entries]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("maxparts", [1, 2, 3, 4])
def test_enumeration_matches_oracle_on_stream_universes(env, seed, maxparts):
    """Universes cut from `signed_prime_stream`, each signed prime once:
    the same entries, one per D, and the same ranks and pools built from
    them."""
    rng = random.Random(seed)
    while True:
        n = rng.randrange(10**30, 10**31) | 1
        if is_probable_prime(n) and n % 8 == 1 and jacobi(-3, n) == 1:
            break  # every even signed prime and -3 split
    universe = signed_primes(n, rng.choice([100, 128, 160]))
    assert len(set(universe)) == len(universe) and {-3, -4, -8, 8} <= set(universe)
    args = (env.table, 1 << 20, 64, 29, maxparts)
    got = disc.enumerate_pool_discs(universe, *args)
    expect = enumerate_pool_discs_oracle(universe, *args)
    assert _fields(got) == _fields(expect)
    assert len({e.d for e in got}) == len({e.parts for e in got}) == len(got)
    assert _ranked(universe, got) == [(e.rank, e.d, e.parts) for e in got]
    roots = _roots_for(n, universe[:40])
    assert _with_roots(disc.build_pool(n, [e for e in got if e.rank < 40], roots)) == (
        _with_roots(disc.build_pool(n, [e for e in expect if e.rank < 40], roots)))


EVEN = [-4, -8, 8]
ODD = [q for q in signed_prime_order_oracle(400) if q % 2]


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_matches_oracle_at_the_bounds(table2000, seed):
    """Random sets of signed primes (both signs of 8 and -4), sorted by
    |q*| as the stream yields them, every maxparts from 1 to 4, and dmax,
    hmax and pmax at the edges of their ranges, dmax above the table's
    included."""
    rng = random.Random(100 + seed)
    hs = table2000._h[table2000._h > 0]
    universe = sorted(rng.sample(ODD, 30) + EVEN, key=lambda q: (abs(q), q))
    for maxparts in (1, 2, 3, 4):
        for dmax in (3, 4, 7, 8, 100, 1999, 2000, 2001, 1 << 20):
            for hmax in (1, 2, int(hs.max()) - 1, int(hs.max()), 200):
                for pmax in (2, 3, 7, 1000):
                    args = (table2000, dmax, hmax, pmax, maxparts)
                    expect = _fields(enumerate_pool_discs_oracle(universe, *args))
                    got = _fields(disc.enumerate_pool_discs(universe, *args))
                    assert got == expect, (maxparts, dmax, hmax, pmax)


def test_enumeration_edge_universes(table2000):
    assert disc.enumerate_pool_discs([], table2000, 2000, 64, 29, 3) == []
    assert disc.enumerate_pool_discs([5, 13], table2000, 2000, 64, 29, 3) == []  # D > 0 only
    got = disc.enumerate_pool_discs([-3, -4], table2000, 2000, 64, 29, 2)
    assert [(e.d, e.parts) for e in got] == [(-3, (-3,)), (-4, (-4,))]


def _pool(n, qstars, table, dmax, hmax, pmax, maxparts):
    entries = disc.enumerate_pool_discs(qstars, table, dmax, hmax, pmax, maxparts)
    return disc.build_pool(n, entries, _roots_for(n, qstars))


def test_build_pool_single_element(table2000):
    n = 13
    pool = _pool(n, [-3], table2000, 2000, 64, 29, 1)
    assert [e.d for e in pool] == [-3]
    assert pool[0].root is not None


def test_build_pool_products(table2000):
    n = 109    # -3 and 5 are both residues mod 109
    assert jacobi(-3, n) == 1 and jacobi(5, n) == 1
    pool = _pool(n, [-3, 5], table2000, 2000, 64, 29, 2)
    ds = [e.d for e in pool]
    assert -3 in ds and -15 in ds
    assert 5 not in ds and -5 not in ds  # 5 alone is not a discriminant
    for e in pool:
        assert e.root is not None and e.root**2 % n == e.d % n


def test_build_pool_pmax_excludes(table2000):
    n = 59  # jacobi(-23, 59) = 1
    assert jacobi(-23, n) == 1
    pool = _pool(n, [-23], table2000, 2000, 64, 2, 1)
    assert [e.d for e in pool] == []  # h(-23) = 3 and 3 > pmax = 2
    pool = _pool(n, [-23], table2000, 2000, 64, 3, 1)
    assert [e.d for e in pool] == [-23]


def test_build_pool_respects_bounds_and_order(env):
    n = 10**20 + 39
    table = env.table
    qstars = signed_primes(n, 12)
    pool = _pool(n, qstars, table, 10_000, 16, 29, 3)
    assert pool, "pool should not be empty with 12 signed primes"
    for e in pool:
        assert fundamental_oracle(e.d)
        assert -e.d <= 10_000 and e.h <= 16
        assert math.prod(e.parts) == e.d
        assert len(e.parts) <= 3
        assert sum(1 for q in e.parts if q % 2 == 0) <= 1
        # genus lower bound: 2^(parts - 1) divides h
        assert e.h % (1 << (len(e.parts) - 1)) == 0
        assert e.root**2 % n == e.d % n


def test_build_pool_deterministic(table2000):
    n = 10**9 + 7
    qstars = signed_primes(n, 8)
    p1 = _pool(n, qstars, table2000, 2000, 64, 29, 3)
    p2 = _pool(n, qstars, table2000, 2000, 64, 29, 3)
    assert [(e.d, e.h, e.parts, e.root) for e in p1] == [
        (e.d, e.h, e.parts, e.root) for e in p2
    ]


def test_build_pool_from_wider_enumeration(env):
    """The entries of rank < budget of an enumeration over a wider
    signed-prime list are the enumeration over the first `budget` signed
    primes, in (d, h, rank, parts): run_step relies on this."""
    n = 10**20 + 39
    table = env.table
    universe = signed_primes(n, 128)
    assert len(set(universe)) == len(universe)  # no signed prime repeats
    entries = disc.enumerate_pool_discs(universe, table, 1 << 20, 64, 29, 3)
    for budget in (1, 5, 16, 40, 90, 128):
        cut = [e for e in entries if e.rank < budget]
        expect = disc.enumerate_pool_discs(universe[:budget], table, 1 << 20, 64, 29, 3)
        assert _fields(cut) == _fields(expect), budget


def test_pool_discs_jacobi_positive(table2000):
    rng = random.Random(6)
    done = 0
    while done < 5:
        n = rng.randrange(10**6, 10**7) | 1
        if not is_probable_prime(n):
            continue
        done += 1
        qstars = signed_primes(n, 6)
        pool = _pool(n, qstars, table2000, 2000, 64, 29, 3)
        for e in pool:
            assert jacobi(e.d, n) == 1
