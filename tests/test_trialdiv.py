import math
import random

import pytest

from fastecpp import trialdiv

# ---------------------------------------------------------------------------
# oracle: naive trial division


def naive_split(m: int, bound: int) -> tuple[int, int]:
    """Smooth part and rough part of m by dividing every prime <= bound."""
    c = 1
    rest = m
    for p in map(int, trialdiv.primes_up_to(bound)):
        while rest % p == 0:
            c *= p
            rest //= p
    return c, rest


def primes_oracle(lo: int, hi: int) -> list[int]:
    out = []
    for v in range(max(2, lo + 1), hi + 1):
        if all(v % k for k in range(2, math.isqrt(v) + 1)):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# sieving and products


def test_primes_in_range_matches_oracle():
    rng = random.Random(10)
    for _ in range(25):
        lo = rng.randrange(0, 5000)
        hi = lo + rng.randrange(1, 800)
        assert trialdiv.primes_in_range(lo, hi) == primes_oracle(lo, hi), (lo, hi)


def test_prime_product_examples():
    assert trialdiv.prime_product(2, 10).value == 3 * 5 * 7
    assert trialdiv.prime_product(1, 10).value == 2 * 3 * 5 * 7
    assert trialdiv.prime_product(10, 11).value == 11
    empty = trialdiv.prime_product(8, 10)
    assert empty.value == 1 and empty.empty


def test_prime_product_validation():
    with pytest.raises(ValueError):
        trialdiv.prime_product(10, 10)
    with pytest.raises(ValueError):
        trialdiv.prime_product(0, 5)


def test_prime_product_cache(tmp_path):
    a = trialdiv.prime_product(1, 10_000, cache_dir=str(tmp_path))
    b = trialdiv.prime_product(1, 10_000, cache_dir=str(tmp_path))
    assert a.value == b.value and a.nbits == b.nbits
    files = list(tmp_path.iterdir())
    assert len(files) == 1


# ---------------------------------------------------------------------------
# remainder tree


def test_remainder_tree_examples():
    assert trialdiv.remainder_tree(105, [8, 11]) == [1, 6]
    assert trialdiv.remainder_tree(1, [5, 9, 100]) == [1, 1, 1]
    assert trialdiv.remainder_tree(100, [7]) == [2]


def test_remainder_tree_rejects_tiny_moduli():
    with pytest.raises(ValueError):
        trialdiv.remainder_tree(100, [7, 1])


def test_remainder_tree_random():
    rng = random.Random(11)
    p = trialdiv.prime_product(1, 1 << 14).value
    ms = [rng.getrandbits(rng.randrange(8, 200)) | 3 for _ in range(400)]
    assert trialdiv.remainder_tree(p, ms) == [p % m for m in ms]


def test_remainder_tree_memory_bound():
    rng = random.Random(12)
    pp = trialdiv.prime_product(1, 1 << 16)
    ms = [rng.getrandbits(256) | (1 << 255) | 1 for _ in range(500)]
    meter = trialdiv.MemoryMeter()
    rem = trialdiv.remainder_tree(pp.value, ms, meter=meter)
    assert rem == [pp.value % m for m in ms]
    leaf_bits = sum(m.bit_length() for m in ms)
    assert meter.peak <= 2 * pp.nbits + leaf_bits + 4096
    assert meter.live == 0  # everything released


# ---------------------------------------------------------------------------
# smooth split


def test_smooth_split_examples():
    s = trialdiv.smooth_split(84, 30 % 84, 30)
    assert (s.c, s.nprime) == (12, 7)
    s = trialdiv.smooth_split(2**10, 2 % 2**10, 2)
    assert (s.c, s.nprime) == (1024, 1)
    s = trialdiv.smooth_split(101, 30 % 101, 30)
    assert (s.c, s.nprime) == (1, 101)
    with pytest.raises(ValueError):
        trialdiv.smooth_split(1, 0, 30)


def test_smooth_split_prime_powers():
    p = trialdiv.prime_product(1, 100).value
    for m in (3**20, 2**13 * 3**7, 97**3 * 101**2):
        s = trialdiv.smooth_split(m, p % m, p)
        c, rest = naive_split(m, 100)
        assert (s.c, s.nprime) == (c, rest)


# ---------------------------------------------------------------------------
# batch factor


def test_batch_factor_examples():
    # products {2,3} and {5} as the contiguous ranges (1,4], (4,6]
    products = [trialdiv.prime_product(1, 4), trialdiv.prime_product(4, 6)]
    out = trialdiv.batch_factor([84], products)
    assert (out[0].c, out[0].nprime) == (12, 7)
    out = trialdiv.batch_factor([84, 85], products)
    assert [(s.c, s.nprime) for s in out] == [(12, 7), (5, 17)]
    assert trialdiv.batch_factor([], products) == []


def test_batch_factor_requires_contiguous_ranges():
    products = [trialdiv.prime_product(1, 4), trialdiv.prime_product(6, 10)]
    with pytest.raises(ValueError):
        trialdiv.batch_factor([10], products)
    with pytest.raises(ValueError):
        trialdiv.batch_factor([10], [trialdiv.prime_product(4, 6)])


def test_batch_factor_matches_naive_oracle():
    """Scaled-down version of the acceptance sweep (10^2 samples here)."""
    rng = random.Random(13)
    for bound in (1000, 100_000):
        products = [trialdiv.prime_product(1, bound)]
        ms = [rng.getrandbits(256) | (1 << 255) for _ in range(100)]
        ms = [m | 1 if rng.random() < 0.5 else m for m in ms]
        splits = trialdiv.batch_factor(ms, products)
        for m, s in zip(ms, splits):
            c, rest = naive_split(m, bound)
            assert s.m == m and s.c == c and s.nprime == rest
            assert s.c * s.nprime == m
            assert math.gcd(s.nprime, products[0].value) == 1


def test_batch_factor_multi_range_equals_single():
    rng = random.Random(14)
    bound = 1 << 14
    multi = [
        trialdiv.prime_product(1, 1 << 12),
        trialdiv.prime_product(1 << 12, 1 << 13),
        trialdiv.prime_product(1 << 13, bound),
    ]
    single = trialdiv.prime_product(1, bound)
    ms = [rng.getrandbits(192) | (1 << 191) | 1 for _ in range(60)]
    a = trialdiv.batch_factor(ms, multi)
    b = trialdiv.batch_factor(ms, [single])
    assert [(s.c, s.nprime) for s in a] == [(s.c, s.nprime) for s in b]


def test_batch_factor_smoothness_certified():
    """c carries no prime above the bound: factoring c with primes <= B
    must exhaust it."""
    rng = random.Random(15)
    bound = 1000
    products = [trialdiv.prime_product(1, bound)]
    ms = [rng.getrandbits(128) | (1 << 127) for _ in range(50)]
    for m, s in zip(ms, trialdiv.batch_factor(ms, products)):
        c = s.c
        for p in map(int, trialdiv.primes_up_to(bound)):
            while c % p == 0:
                c //= p
        assert c == 1
