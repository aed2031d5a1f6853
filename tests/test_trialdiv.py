import decimal
import math
import random
import sys
import tracemalloc
from decimal import Decimal

import pytest

from fastecpp import prover, trialdiv

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
    assert trialdiv.prime_product(8, 10).value == 1


def test_prime_product_validation():
    with pytest.raises(ValueError):
        trialdiv.prime_product(10, 10)
    with pytest.raises(ValueError):
        trialdiv.prime_product(0, 5)


def test_prime_product_repr(product_2_20):
    """repr leaves out the value, which str() refuses above ~4300 digits."""
    text = repr(product_2_20)
    assert text.startswith("PrimeProduct(b_lo=1, b_hi=1048576, nbits=")
    assert len(text) < 100


def test_prime_product_cache(tmp_path, monkeypatch):
    config = prover.ProveConfig(cache_dir=str(tmp_path))
    [a] = prover.Environment(config).ensure_products(10_000)
    assert a == trialdiv.prime_product(1, 10_000)
    files = list(tmp_path.iterdir())
    assert [f.name for f in files] == ["prime_product_1_10000.bin"]
    good = files[0].read_bytes()
    real = trialdiv.prime_product

    def recompute(lo, hi):
        raise AssertionError("cached product not used")

    monkeypatch.setattr(trialdiv, "prime_product", recompute)
    assert prover.Environment(config).ensure_products(10_000) == [a]
    # one flipped byte, length unchanged: the checksum rejects the file
    blob = bytearray(good)
    blob[-10] ^= 0x01
    files[0].write_bytes(bytes(blob))
    monkeypatch.setattr(trialdiv, "prime_product", real)
    assert prover.Environment(config).ensure_products(10_000) == [a]
    assert files[0].read_bytes() == good  # rewritten


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
    """Traced peak of one call stays within the kept tree of one batch.

    A batch holds at most cap = bitlen(P)/4 bits of leaves, so each of
    its levels holds at most cap bits and its tree at most levels * cap
    bits, where levels = 1 + ceil(log2(leaves per batch)).  On top of
    that come the leaves, counted as the result list (an int no larger
    than its modulus plus a list slot per leaf), and P mod the root,
    below bitlen(P) bits.  Decimal object headers, the two live
    remainder levels and list over-allocation take the rest: the bound
    is twice that sum, 0.61 MB.  The tree traced 0.39 MB here (CPython
    3.11); a tree with no batch cut holds every level of all 4000 leaves
    and traced 3.1 MB.
    """
    rng = random.Random(12)
    pp = trialdiv.prime_product(1, 1 << 16)
    p = pp.decimal_value  # converted before tracing starts
    ms = [rng.getrandbits(256) | (1 << 255) | 1 for _ in range(4000)]
    cap = pp.nbits // 4
    levels = 1 + (cap // 256 - 1).bit_length()
    leaves = sum(sys.getsizeof(m) + 8 for m in ms)
    bound = 2 * ((levels * cap + pp.nbits) // 8 + leaves)
    tracemalloc.start()
    try:
        rem = trialdiv.remainder_tree(p, ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rem == [pp.value % m for m in ms]
    assert peak <= bound, (peak, bound)


def _decimal_to_int(d: Decimal, w: int) -> int:
    """Oracle for to_decimal: split d by divmod with 2^h, the inverse path."""
    if w <= 4096:
        return int(d)
    h = w >> 1
    hi, lo = divmod(d, Decimal(2) ** h)
    return (_decimal_to_int(hi, w - h) << h) | _decimal_to_int(lo, h)


def test_to_decimal_round_trip():
    rng = random.Random(16)
    ns = [0, 1]
    for bits in (2, 3, 64, 1023, 1024, 1025, 1026, 2049, 10_007, 100_003, 2_000_000):
        ns += [rng.getrandbits(bits) | (1 << (bits - 1)), 1 << bits]
    ns.append((1 << 1025) - 1)
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact, decimal.Rounded])
    for n in ns:
        d = trialdiv.to_decimal(n)
        assert d.as_tuple().exponent == 0
        with decimal.localcontext(exact):
            assert _decimal_to_int(d, n.bit_length()) == n, n.bit_length()
    with pytest.raises(ValueError):
        trialdiv.to_decimal(-1)


def test_to_int_round_trip():
    """to_int inverts to_decimal around its cutoff and far above it, and
    takes an integral Decimal written with a positive exponent."""
    rng = random.Random(17)
    k = trialdiv._CONVERT_DIGITS
    ns = [0, 1, 10**k - 1, 10**k, 10**k + 1, 10 ** (2 * k + 1)]
    for bits in (64, 1023, 1024, 1025, 2049, 10_007, 100_003, 2_000_000):
        ns += [rng.getrandbits(bits) | (1 << (bits - 1)), (1 << bits) - 1]
    for n in ns:
        got = trialdiv.to_int(trialdiv.to_decimal(n))
        assert type(got) is int and got == n, n.bit_length()
    assert trialdiv.to_int(Decimal((0, (1, 7), 3 * k))) == 17 * 10 ** (3 * k)


@pytest.mark.parametrize("bits", [400_000, 1_600_000])
def test_remainder_tree_single_large_modulus(product_2_20, bits):
    """One modulus of about 400 kbits, and one above the 1.51-Mbit P."""
    rng = random.Random(bits)
    m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    assert trialdiv.remainder_tree(product_2_20, [m]) == [product_2_20.value % m]


def _tree_matches_oracle(pp: trialdiv.PrimeProduct, ms: list[int]) -> None:
    """remainder_tree equals p % m for an int P and for its Decimal copy."""
    expect = [pp.value % m for m in ms]
    for p in (pp.value, pp.decimal_value):
        got = trialdiv.remainder_tree(p, ms)
        assert got == expect
        assert all(type(r) is int for r in got)


def test_remainder_tree_oracle_modulus_sizes():
    """Moduli of 2 to ~2000 bits, larger than P, repeated, powers of two."""
    rng = random.Random(17)
    pp = trialdiv.prime_product(1, 1 << 10)  # 1420 bits
    p = pp.value
    ms = [rng.getrandbits(rng.randrange(2, 2001)) | 2 for _ in range(300)]
    ms += [2, 3, 4, 1 << 64, 1 << 1420, 1 << 2000, p - 1, p, p + 1, 2 * p, p * p]
    ms += [(1 << 1420) - 1, (1 << 1419) + 1] + ms[:20]
    rng.shuffle(ms)
    _tree_matches_oracle(pp, ms)


def _moduli_with_total_bits(rng: random.Random, total: int) -> list[int]:
    """Odd moduli of at least 2 bits whose bit lengths sum to total >= 2."""
    ms = []
    while total:
        b = rng.randrange(2, 400)
        if total - b < 2:
            b = total
        ms.append(rng.getrandbits(b) | (1 << (b - 1)) | 1)
        total -= b
    return ms


@pytest.mark.parametrize("share", [0.25, 0.3, 1.0, 4.5])
def test_remainder_tree_oracle_batch_boundaries(share):
    """Total modulus bits around the batch cap (about bitlen(P)/4), and
    around and several times bitlen(P)."""
    rng = random.Random(18)
    pp = trialdiv.prime_product(1, 1 << 14)
    totals = [int(share * pp.nbits) + k for k in (-5, 0, 1, 5)]
    if share == 0.25:
        assert totals[0] < trialdiv._batch_cap(pp.decimal_value) < totals[-1]
    for total in totals:
        ms = _moduli_with_total_bits(rng, total)
        assert sum(m.bit_length() for m in ms) == total
        _tree_matches_oracle(pp, ms)


@pytest.mark.parametrize("per_batch", [None, 8, 5])
def test_remainder_tree_oracle_leaf_counts(per_batch):
    """Small and power-of-two-adjacent leaf counts, all in one batch or
    cut into batches of per_batch leaves; counts of 1 mod per_batch end
    in a one-leaf batch."""
    rng = random.Random(20)
    pp = trialdiv.prime_product(1, 1 << 12)
    cap = trialdiv._batch_cap(pp.decimal_value)
    for n in [*range(1, 18), 31, 32, 33, 63, 64, 65]:
        bits = cap // (n if per_batch is None else per_batch)
        ms = [rng.getrandbits(bits) | (1 << (bits - 1)) | 1 for _ in range(n)]
        batches = trialdiv._batches(ms, cap)
        if per_batch is None:
            assert len(batches) == 1
        else:
            assert [len(b) for b in batches[:-1]] == [per_batch] * (len(batches) - 1)
            assert len(batches[-1]) == (n - 1) % per_batch + 1
        _tree_matches_oracle(pp, ms)


def _digits(rng: random.Random, k: int) -> int:
    """A random integer of exactly k decimal digits."""
    return rng.randrange(10 ** (k - 1), 10**k)


def _root_cases() -> list[tuple[int, list[int]]]:
    """(P, moduli) around the Barrett cutoff of the root reduction."""
    rng = random.Random(21)
    k = trialdiv._BARRETT_DIGITS
    p = _digits(rng, 10 * k + 123)
    cases = [(p, [_digits(rng, d)]) for d in (k - 1, k, k + 1)]      # below, at, above
    cases += [(_digits(rng, 7 * k), [_digits(rng, k)]),               # P = 7 chunks exactly
              (_digits(rng, k), [_digits(rng, k)]),                   # P = one chunk
              (_digits(rng, k + 10), [_digits(rng, k + 100)]),        # root above P
              (10 ** (k + 5) + 7, [10 ** (k + 5) + 8])]               # root just above P
    cases += [(p, [10**e]) for e in (k - 1, k, k + 1)]                # 10^e: e + 1 digits
    cases += [(p, [10**e - 1]) for e in (k - 1, k, k + 1)]            # e nines
    # a two-leaf root above the cutoff whose leaves lie below it
    cases.append((p, [_digits(rng, k // 2 + 1), _digits(rng, k // 2 + 1)]))
    return cases


@pytest.mark.parametrize("case", range(len(_root_cases())))
def test_remainder_tree_root_reduction(case):
    """The root reduction around its cutoff: equal to p % m for an int P
    and for its Decimal copy."""
    p, ms = _root_cases()[case]
    expect = [p % m for m in ms]
    assert trialdiv.remainder_tree(p, ms) == expect
    assert trialdiv.remainder_tree(trialdiv.to_decimal(p), ms) == expect


def test_remainder_tree_root_of_a_sample_batch(product_2_20):
    """A root of about 373 kbits, as in a batch of the 10k-sample, against
    the product of the primes below 2^20, from each form of P."""
    rng = random.Random(22)
    pp = product_2_20
    ms = [rng.getrandbits(256) | (1 << 255) | 1 for _ in range(1460)]
    assert len(trialdiv._batches(ms, trialdiv._batch_cap(pp.decimal_value))) == 1
    assert 372_000 < math.prod(ms).bit_length() < 374_000
    expect = [pp.value % m for m in ms]
    for p in (pp, pp.decimal_value, pp.value):
        assert trialdiv.remainder_tree(p, ms) == expect


def test_remainder_tree_integral_decimal_with_exponent():
    """An integral Decimal P written with a positive exponent."""
    k = trialdiv._BARRETT_DIGITS
    m = 10**k + 12345
    p = Decimal((0, (1, 7), 2 * k))  # 17 * 10^2k
    assert trialdiv.remainder_tree(p, [m, 3]) == [17 * 10 ** (2 * k) % m, 17 * 10 ** (2 * k) % 3]


def test_batch_factor_leaves_caller_context_alone():
    """A low-precision caller context with no traps neither leaks into
    the tree nor is changed by it."""
    rng = random.Random(19)
    pp = trialdiv.prime_product(1, 1 << 14)  # fresh: converts under the caller's context
    ms = [rng.getrandbits(256) | (1 << 255) for _ in range(300)]
    expect = [trialdiv.smooth_split(m, pp.value % m, pp.value) for m in ms]
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        ctx.clear_traps()
        ctx.clear_flags()
        before = repr(ctx)
        splits = trialdiv.batch_factor(ms, pp)
        assert decimal.getcontext() is ctx
        assert repr(ctx) == before
    assert splits == expect


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
    product = trialdiv.prime_product(1, 6)  # 2 * 3 * 5
    out = trialdiv.batch_factor([84], product)
    assert (out[0].c, out[0].nprime) == (12, 7)
    out = trialdiv.batch_factor([84, 85], product)
    assert [(s.c, s.nprime) for s in out] == [(12, 7), (5, 17)]
    assert trialdiv.batch_factor([], product) == []


def test_batch_factor_requires_range_from_1():
    """A product that leaves out the prime 2, or more, is refused."""
    for lo in (2, 4):
        with pytest.raises(ValueError, match="start at 1"):
            trialdiv.batch_factor([10], trialdiv.prime_product(lo, 6))


def test_batch_factor_matches_naive_oracle():
    """Scaled-down version of the acceptance sweep (10^2 samples here)."""
    rng = random.Random(13)
    for bound in (1000, 100_000):
        product = trialdiv.prime_product(1, bound)
        ms = [rng.getrandbits(256) | (1 << 255) for _ in range(100)]
        ms = [m | 1 if rng.random() < 0.5 else m for m in ms]
        splits = trialdiv.batch_factor(ms, product)
        for m, s in zip(ms, splits):
            c, rest = naive_split(m, bound)
            assert s.m == m and s.c == c and s.nprime == rest
            assert s.c * s.nprime == m
            assert math.gcd(s.nprime, product.value) == 1


def test_batch_factor_smoothness_certified():
    """c carries no prime above the bound: factoring c with primes <= B
    must exhaust it."""
    rng = random.Random(15)
    bound = 1000
    product = trialdiv.prime_product(1, bound)
    ms = [rng.getrandbits(128) | (1 << 127) for _ in range(50)]
    for m, s in zip(ms, trialdiv.batch_factor(ms, product)):
        c = s.c
        for p in map(int, trialdiv.primes_up_to(bound)):
            while c % p == 0:
                c //= p
        assert c == 1
