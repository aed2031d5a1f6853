"""Big-integer number theory primitives.

Jacobi symbols, Miller-Rabin probable-prime tests (deterministic below
2**64) that can name their witness, Tonelli-Shanks square roots, and the
modified Cornacchia solver for 4N = t^2 + |D| v^2.  Everything here is a
pure function; all are safe for concurrent use.
"""

import math
import random

from .errors import CompositeDetected

# Proven-correct Miller-Rabin base set for every n < 2**64
# (in fact for n < 3317044064679887385961981).
DETERMINISTIC_THRESHOLD = 1 << 64
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi: modulus must be a positive odd integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if `a` witnesses the compositeness of odd n = 2^s * d + 1."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def compositeness_witness(
    n: int, rounds: int = 64, rng: random.Random | None = None
) -> int | None:
    """Miller-Rabin test that names its evidence: None when n passes.

    Otherwise the result w is either a small prime factor of n (n % w == 0,
    w < n) or a Miller-Rabin base with is_strong_witness(n, w); either can
    be re-checked without this function.  Below 2**64 a fixed proven base
    set is used and None is exact.  Above, `rounds` >= 1 random bases are
    drawn from `rng` (module RNG when omitted).
    """
    if n < 2:
        raise ValueError("Miller-Rabin: n must be >= 2")
    if n >= DETERMINISTIC_THRESHOLD and rounds < 1:
        raise ValueError("Miller-Rabin: rounds must be >= 1 above 2**64")
    for p in _SMALL_PRIMES:
        if n == p:
            return None
        if n % p == 0:
            return p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < DETERMINISTIC_THRESHOLD:
        return next((a for a in _DETERMINISTIC_BASES if _mr_witness(n, a, d, s)), None)
    if rng is None:
        rng = random
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if _mr_witness(n, a, d, s):
            return a
    return None


def is_probable_prime(n: int, rounds: int = 64, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Below 2**64 a fixed proven base set is used and the answer is exact.
    Above, `rounds` >= 1 random bases are drawn from `rng` (module RNG
    when omitted); False is always certain, True means "passed every
    round".  compositeness_witness gives the evidence behind a False.
    """
    return compositeness_witness(n, rounds, rng) is None


def is_strong_witness(n: int, a: int) -> bool:
    """True if base a, 1 < a < n - 1, proves odd n > 3 composite by one
    strong-pseudoprime test; False for every other (n, a)."""
    if n % 2 == 0 or not 1 < a < n - 1:
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    return _mr_witness(n, a, d >> s, s)


def _tonelli_shanks(a: int, n: int) -> int | None:
    """General case of the square root; n odd with n % 8 == 1 expected."""
    # write n - 1 = q * 2^s
    q = n - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    # find a quadratic non-residue z; for prime n one shows up fast
    z = 0
    for cand in range(2, 10_000):
        if jacobi(cand, n) == -1:
            z = cand
            break
    if z == 0:
        return None
    c = pow(z, q, n)
    r = pow(a, (q + 1) // 2, n)
    t = pow(a, q, n)
    m = s
    while t != 1:
        t2 = t * t % n
        i = 1
        while t2 != 1:
            t2 = t2 * t2 % n
            i += 1
            if i == m:
                return None  # impossible for prime n: bail out safely
        b = pow(c, 1 << (m - i - 1), n)
        r = r * b % n
        c = b * b % n
        t = t * c % n
        m = i
    return r


def sqrt_mod(a: int, n: int) -> int | None:
    """Square root of a modulo n, canonicalised as min(r, n - r).

    Assumes n is an odd prime; returns None when (a|n) = -1.  For
    composite n the result may be None even for residues, never a value
    whose square is not a (the output is verified before returning).
    """
    if n % 2 == 0:
        raise ValueError("sqrt_mod: modulus must be odd")
    if n < 3:
        raise ValueError("sqrt_mod: modulus must be >= 3")
    a %= n
    if a == 0:
        return 0
    if jacobi(a, n) != 1:
        return None
    if n % 4 == 3:
        r = pow(a, (n + 1) // 4, n)
    elif n % 8 == 5:
        # Atkin's formula
        v = pow(2 * a, (n - 5) // 8, n)
        i = 2 * a * v * v % n
        r = a * v * (i - 1) % n
    else:
        r = _tonelli_shanks(a, n)
        if r is None:
            return None
    if r * r % n != a:
        return None  # only reachable when n is composite
    return min(r, n - r)


def cornacchia(n: int, d: int, root_d: int) -> tuple[int, int] | None:
    """Solve 4n = t^2 + |d| v^2 (modified Cornacchia).

    `d` is a negative discriminant (d = 0 or 1 mod 4) with |d| < 4n and
    `root_d` a square root of d modulo n.  Returns (t, v) with t, v >= 0,
    or None when no solution belongs to this square root class.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("cornacchia: n must be odd and >= 3")
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError("cornacchia: d must be a negative discriminant")
    if -d >= 4 * n:
        raise ValueError("cornacchia: |d| must be < 4n")
    root_d %= n
    if root_d * root_d % n != d % n:
        raise ValueError("cornacchia: root_d is not a square root of d mod n")
    # force x0 = d (mod 2); then x0^2 = d (mod 4n)
    x0 = root_d
    if (x0 - d) % 2 != 0:
        x0 = n - x0
    a, b = 2 * n, x0
    limit = math.isqrt(4 * n)
    while b > limit:
        a, b = b, a % b
    t = b
    r = 4 * n - t * t
    if r % (-d) != 0:
        return None
    vsq, v = r // (-d), math.isqrt(r // (-d))
    if v * v != vsq:
        return None
    return t, v


def checked_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n; a shared factor raises CompositeDetected."""
    try:
        return pow(a, -1, n)
    except ValueError:
        g = math.gcd(a % n, n)
        factor = g if 1 < g < n else None
        raise CompositeDetected("gcd-factor", factor=factor, n=n) from None


def is_perfect_square(x: int) -> bool:
    if x < 0:
        return False
    r = math.isqrt(x)
    return r * r == x
