"""Big-integer number theory primitives.

Jacobi symbols, Miller-Rabin probable-prime tests (deterministic below
2**64) that can name their witness, a round count from the
Damgard-Landrock-Pomerance bound, Tonelli-Shanks square roots, the
modified Cornacchia solver for 4N = t^2 + |D| v^2, and the derivation of
child seeds.  Everything here is a pure function (the square root
memoises constants of its last few moduli); all are safe for concurrent
use.
"""

import functools
import hashlib
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


def _split_n_minus_1(n: int) -> tuple[int, int]:
    """(s, q) with n - 1 = 2^s q and q odd, for odd n >= 3."""
    m = n - 1
    s = (m & -m).bit_length() - 1
    return s, m >> s


def _mr_witness(n: int, a: int, s: int, d: int) -> bool:
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
    s, d = _split_n_minus_1(n)
    if n < DETERMINISTIC_THRESHOLD:
        return next((a for a in _DETERMINISTIC_BASES if _mr_witness(n, a, s, d)), None)
    if rng is None:
        rng = random
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if _mr_witness(n, a, s, d):
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


# Rounds where the average-case bound admits none: 4^-17 worst case.
_FALLBACK_ROUNDS = 17


def mr_rounds(k: int, bits: int) -> int:
    """Miller-Rabin rounds for a k-bit cofactor of an L-bit number (L = bits).

    The smallest t with 3 <= t <= k/9 and
    k^(3/2) 2^t t^(-1/2) 4^(2 - sqrt(tk)) <= 2^-33 / L, the
    Damgard-Landrock-Pomerance bound on p_{k,t} (Math. Comp. 61, 1993),
    compared in log2; 17 when no such t exists.  See `stats.sample` for
    why the sum over k <= L stays below 2^-33.
    """
    limit = -33.0 - math.log2(bits)
    for t in range(3, k // 9 + 1):
        log2_p = 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2.0 * (2.0 - math.sqrt(t * k))
        if log2_p <= limit:
            return t
    return _FALLBACK_ROUNDS


def is_strong_witness(n: int, a: int) -> bool:
    """True if base a, 1 < a < n - 1, proves odd n > 3 composite by one
    strong-pseudoprime test; False for every other (n, a)."""
    if n % 2 == 0 or not 1 < a < n - 1:
        return False
    return _mr_witness(n, a, *_split_n_minus_1(n))


@functools.lru_cache(maxsize=8)
def _sqrt_constants(n: int) -> tuple[int, int, int] | None:
    """(s, q, c) for the square root modulo odd n: n - 1 = 2^s q with q
    odd, and c = z^q for a non-residue z; None if no z is found.

    The search runs over -1, -2, ...: -1 is a non-residue when
    n = 3 (mod 4) and -2 when n = 5 (mod 8), so for those it ends at once.
    """
    s, q = _split_n_minus_1(n)
    for z in range(-1, -10_000, -1):
        if jacobi(z, n) == -1:
            return s, q, pow(z, q, n)
    return None


def sqrt_mod(a: int, n: int) -> int | None:
    """Square root of a modulo n, canonicalised as min(r, n - r).

    Assumes n is an odd prime.  One Tonelli-Shanks, in the a^((q-1)/2)
    form: with w = a^((q-1)/2), r = a w and t = r w = a^q, and the loop
    fixes t with powers of c = z^q.  By Euler's criterion t has order
    exactly 2^s when a^((n-1)/2) = -1, so the loop itself returns None
    for a non-residue.  (s, q, c) depend only on n and are memoised for
    the last few moduli.  For s = 1 the cost is the one exponentiation
    a^((n+1)/4).

    The result is None or a checked root: a value is returned only after
    its square is verified to be a, so a composite n may give None for
    a residue but never a wrong root.
    """
    if n % 2 == 0:
        raise ValueError("sqrt_mod: modulus must be odd")
    if n < 3:
        raise ValueError("sqrt_mod: modulus must be >= 3")
    a %= n
    if a == 0:
        return 0
    constants = _sqrt_constants(n)
    if constants is None:
        return None
    m, q, c = constants
    w = pow(a, (q - 1) // 2, n)
    r = a * w % n
    t = r * w % n
    while t != 1:
        # least i with t^(2^i) = 1; i = m means a non-residue or composite n
        i, u = 1, t * t % n
        while u != 1 and i < m:
            u = u * u % n
            i += 1
        if i == m:
            return None
        b = pow(c, 1 << (m - i - 1), n)
        r = r * b % n
        c = b * b % n
        t = t * c % n
        m = i
    if r * r % n != a:
        return None  # the loop keeps r^2 = a t for every n: checked, not assumed
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


def derive_seed(master: int, *tags) -> int:
    """Derive a child seed from a master seed and a tag tuple.

    Every random choice in the prover and the sampler draws from a child
    seed derived from the master seed and a tag naming the choice, so a
    run is reproduced exactly by its master seed.  Uses SHA-256 over a
    canonical repr, so results are stable across runs, platforms and
    PYTHONHASHSEED values.
    """
    blob = repr((int(master),) + tuple(tags)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:16], "big")
