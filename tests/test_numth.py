import math
import random

import pytest

from fastecpp.errors import CompositeDetected
from fastecpp.numth import (
    DETERMINISTIC_THRESHOLD,
    checked_inverse,
    compositeness_witness,
    cornacchia,
    is_probable_prime,
    is_strong_witness,
    jacobi,
    sqrt_mod,
)

# ---------------------------------------------------------------------------
# oracles


def factorize(n: int) -> list[int]:
    fac = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac.append(d)
            n //= d
        d += 1
    if n > 1:
        fac.append(n)
    return fac


def legendre_oracle(a: int, p: int) -> int:
    """Euler's criterion for odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi_oracle(a: int, n: int) -> int:
    result = 1
    for p in factorize(n):
        result *= legendre_oracle(a, p)
    return result


def sqrt_oracle(a: int, p: int) -> int | None:
    """Exhaustive smallest square root modulo p."""
    a %= p
    for r in range((p // 2) + 1):
        if r * r % p == a:
            return r
    return None


def pell_solutions(n: int, d: int) -> list[tuple[int, int]]:
    """All (t, v) with t^2 + |d| v^2 = 4n, by exhaustive t-search."""
    sols = []
    for t in range(math.isqrt(4 * n) + 1):
        r = 4 * n - t * t
        if r % (-d):
            continue
        v = math.isqrt(r // -d)
        if v * v == r // -d:
            sols.append((t, v))
    return sols


def lucas_lehmer(p: int) -> bool:
    """Primality of the Mersenne number 2^p - 1, p odd prime."""
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


# ---------------------------------------------------------------------------
# jacobi


def test_jacobi_spec_examples():
    assert jacobi(1, 9) == 1
    # 15 = 3 * 5: (2|3)(2|5) = (-1)(-1) = +1
    assert jacobi_oracle(2, 15) == 1
    assert jacobi(2, 15) == 1
    assert jacobi(3, 9) == 0


def test_jacobi_matches_oracle_exhaustive_small():
    for n in range(1, 202, 2):
        for a in range(-n, n + 1):
            assert jacobi(a, n) == jacobi_oracle(a, n), (a, n)


def test_jacobi_matches_oracle_sampled():
    rng = random.Random(1)
    for _ in range(2000):
        n = rng.randrange(3, 10_001, 2)
        a = rng.randrange(-n, n + 1)
        assert jacobi(a, n) == jacobi_oracle(a, n), (a, n)


def test_jacobi_multiplicative_and_periodic():
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randrange(3, 5001, 2)
        a, b = rng.randrange(n), rng.randrange(n)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
        assert jacobi(a + n, n) == jacobi(a, n)


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(1, 10)
    with pytest.raises(ValueError):
        jacobi(1, 0)
    with pytest.raises(ValueError):
        jacobi(1, -7)


# ---------------------------------------------------------------------------
# is_probable_prime


def test_mr_spec_examples():
    assert is_probable_prime(2) is True
    assert factorize(341) == [11, 31]
    assert is_probable_prime(341) is False
    assert lucas_lehmer(61) is True
    assert is_probable_prime((1 << 61) - 1) is True


def test_mr_agrees_with_trial_division_to_1e6():
    limit = 1_000_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    for n in range(2, limit + 1):
        assert is_probable_prime(n) == bool(sieve[n]), n


def test_mr_rejects_below_two():
    with pytest.raises(ValueError):
        is_probable_prime(1)
    with pytest.raises(ValueError):
        is_probable_prime(-5)


def test_mr_large_composites_with_seeded_rng():
    rng = random.Random(3)
    # products of two 40-bit primes: above the deterministic threshold
    p, q = 1099511627791, 1099511627803
    assert is_probable_prime(p * q, 64, rng) is False


def test_mr_rejects_rounds_below_one_above_threshold():
    # 2^64 + 1 = 274177 * 67280421310721 passed zero rounds as prime
    assert factorize(2**64 + 1) == [274177, 67280421310721]
    for rounds in (0, -1):
        with pytest.raises(ValueError):
            is_probable_prime(2**64 + 1, rounds)
        with pytest.raises(ValueError):
            is_probable_prime(2**89 - 1, rounds)  # prime
    assert is_probable_prime(2**64 + 1, 1, random.Random(0)) is False
    # below the threshold the round count is unused
    assert is_probable_prime((1 << 61) - 1, 0) is True
    assert is_probable_prime(DETERMINISTIC_THRESHOLD - 59, 0) is True


def test_witness_is_a_factor_or_a_strong_witness():
    rng = random.Random(4)
    # a strong pseudoprime to every prime base up to 31
    spsp = 3825123056546413051
    assert factorize(spsp) == [149491, 747451, 34233211]
    assert compositeness_witness(spsp) == 37
    assert is_strong_witness(spsp, 37)
    assert not any(is_strong_witness(spsp, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert compositeness_witness(91) == 7
    assert compositeness_witness(229) is None and compositeness_witness(2) is None
    p, q = 1099511627791, 1099511627803
    for n in [p * q, 2**64 + 1, (2**67 - 1), 561 * 2**70 + 1] + [
        rng.getrandbits(200) | 1 for _ in range(50)
    ]:
        w = compositeness_witness(n, 8, random.Random(n))
        assert (w is None) == is_probable_prime(n, 8, random.Random(n))
        if w is None:
            continue
        if n % w == 0:
            assert 1 < w < n and w <= 229
        else:
            assert 1 < w < n - 1 and is_strong_witness(n, w)


def test_is_strong_witness_rejects_non_witnesses():
    spsp = 3825123056546413051
    for a in (-1, 0, 1, spsp - 1, spsp, spsp + 1):
        assert not is_strong_witness(spsp, a)
    assert not any(is_strong_witness(1000003, a) for a in range(2, 200))  # prime
    assert not is_strong_witness(91 * 2, 3) and not is_strong_witness(3, 2)
    assert is_strong_witness(91, 2)


# ---------------------------------------------------------------------------
# sqrt_mod


def test_sqrt_mod_spec_examples():
    assert sqrt_oracle(4, 7) == 2
    assert sqrt_mod(4, 7) == 2
    assert sqrt_oracle(2, 7) == 3
    assert sqrt_mod(2, 7) == 3
    assert sqrt_oracle(3, 7) is None
    assert sqrt_mod(3, 7) is None


def test_sqrt_mod_all_small_primes():
    primes = [p for p in range(3, 1000, 2) if is_probable_prime(p)]
    for p in primes:
        for a in range(p):
            r = sqrt_mod(a, p)
            expect = sqrt_oracle(a, p)
            if expect is None:
                assert r is None, (a, p)
            else:
                assert r == expect, (a, p)  # canonical min(r, p - r)


def test_sqrt_mod_sampled_primes_to_1e4():
    rng = random.Random(4)
    primes = [p for p in range(1001, 10_000, 2) if is_probable_prime(p)]
    for p in rng.sample(primes, 60):
        for _ in range(50):
            a = rng.randrange(1, p)
            if jacobi(a, p) != 1:
                assert sqrt_mod(a, p) is None if jacobi(a, p) == -1 else True
                continue
            r = sqrt_mod(a, p)
            assert r is not None and r * r % p == a
            assert r <= p - r


def test_sqrt_mod_rejects_even_modulus():
    with pytest.raises(ValueError):
        sqrt_mod(3, 8)


def test_sqrt_mod_composite_modulus_never_wrong():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(9, 30_001, 2)
        if is_probable_prime(n):
            continue
        a = rng.randrange(n)
        r = sqrt_mod(a, n)
        if r is not None:
            assert r * r % n == a % n


# ---------------------------------------------------------------------------
# cornacchia


def test_cornacchia_spec_example_13():
    assert 6 * 6 % 13 == (-3) % 13
    res = cornacchia(13, -3, 6)
    assert res is not None
    t, v = res
    assert t * t + 3 * v * v == 52
    assert (7, 1) in pell_solutions(13, -3)


def test_cornacchia_spec_example_5():
    res = cornacchia(5, -4, 1)
    assert res is not None
    t, v = res
    assert t * t + 4 * v * v == 20
    # the exhaustive search finds a solution too (2, 2) among them
    sols = pell_solutions(5, -4)
    assert (2, 2) in sols and res in sols


def test_cornacchia_no_solution_cases():
    # -4 is a non-residue mod 7 and indeed 28 = t^2 + 4 v^2 has no solution
    assert jacobi(-4, 7) == -1
    assert pell_solutions(7, -4) == []
    with pytest.raises(ValueError):
        cornacchia(7, -4, 5)  # 5 is not a square root of -4 mod 7
    # valid root but no representation: 4*17 = t^2 + 15 v^2
    root = sqrt_mod(-15, 17)
    assert root is not None
    assert pell_solutions(17, -15) == []
    assert cornacchia(17, -15, root) is None


def test_cornacchia_validations():
    with pytest.raises(ValueError):
        cornacchia(14, -3, 5)  # even modulus
    with pytest.raises(ValueError):
        cornacchia(13, 3, 4)  # positive d
    with pytest.raises(ValueError):
        cornacchia(13, -6, 4)  # d = 2 mod 4
    with pytest.raises(ValueError):
        cornacchia(13, -55, 5)  # |d| >= 4n


def test_cornacchia_oracle_equivalence_small():
    """Existence matches exhaustive search; outputs always satisfy the norm
    equation.  (The full sweep to 10^4 runs in the acceptance suite.)"""
    primes = [p for p in range(3, 500, 2) if is_probable_prime(p)]
    discs = [d for d in range(-3, -201, -1) if d % 4 in (0, 1) and _fundamental(d)]
    for n in primes:
        for d in discs:
            if -d >= 4 * n:
                continue
            sols = pell_solutions(n, d)
            if jacobi(d, n) == -1:
                assert not sols, (n, d)
                continue
            root = sqrt_mod(d, n)
            if root is None:
                continue
            res = cornacchia(n, d, root)
            if res is None:
                assert not sols, (n, d)
            else:
                t, v = res
                assert t * t + (-d) * v * v == 4 * n
                assert sols


def _fundamental(d: int) -> bool:
    def squarefree(x):
        k = 2
        while k * k <= x:
            if x % (k * k) == 0:
                return False
            k += 1
        return True

    if d % 4 == 1:
        return squarefree(-d)
    m = -d // 4
    return d % 4 == 0 and m % 4 in (1, 2) and squarefree(m)


# ---------------------------------------------------------------------------
# checked_inverse


def test_checked_inverse():
    assert checked_inverse(3, 7) == 5
    with pytest.raises(CompositeDetected) as exc:
        checked_inverse(6, 15)
    assert exc.value.factor == 3
