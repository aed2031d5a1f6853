"""Elliptic curves over Z/NZ tolerant of composite moduli.

Scalar multiplication (`scalar_mul_checked`) returns exactly what the
left-to-right double-and-add chain in affine coordinates with every
inversion validated returns, so a divergence between the prime factors of
a composite modulus cannot pass silently.  It runs that same chain in
Jacobian coordinates and pays one inversion per chain instead of one per
group operation: the Jacobian Z is a product of powers of the affine
denominators, so it is a unit exactly when every affine step took its
generic branch with an invertible denominator.  Any other chain falls
back to the affine loop.  The prover's point search (`find_order_point`)
and the certificate verifier both use it.
"""

import math
import random
from dataclasses import dataclass

from .errors import CompositeDetected
from .numth import checked_inverse, jacobi, sqrt_mod


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a x + b over Z/nZ."""

    n: int
    a: int
    b: int

    def discriminant_gcd(self) -> int:
        return math.gcd((4 * self.a**3 + 27 * self.b**2) % self.n, self.n)


# ---------------------------------------------------------------------------
# checked arithmetic (verification grade)

Affine = tuple[int, int] | None  # None is the identity


def _add_affine_checked(p: Affine, q: Affine, e: Curve) -> Affine:
    """Chord-tangent addition with every inversion validated.

    For composite n, a pair of points that collide modulo one prime
    factor but not another surfaces here as a proper gcd and raises
    CompositeDetected rather than producing garbage.
    """
    n = e.n
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if (x1 - x2) % n == 0:
        if (y1 + y2) % n == 0:
            return None
        if (y1 - y2) % n == 0:
            lam = (3 * x1 * x1 + e.a) * checked_inverse(2 * y1, n) % n
        else:
            # same x yet y2 not +/- y1: impossible modulo a prime
            g = math.gcd((y1 - y2) % n, n)
            raise CompositeDetected("gcd-factor", factor=g if 1 < g < n else None, n=n)
    else:
        lam = (y2 - y1) * checked_inverse((x2 - x1) % n, n) % n
    x3 = (lam * lam - x1 - x2) % n
    y3 = (lam * (x1 - x3) - y1) % n
    return (x3, y3)


def _scalar_mul_affine(p: Affine, k: int, e: Curve) -> Affine:
    """[k]P by the affine double-and-add chain, one checked inversion per step."""
    acc: Affine = None
    for bit in bin(k)[2:] if k else "":
        acc = _add_affine_checked(acc, acc, e)
        if bit == "1":
            acc = _add_affine_checked(acc, p, e)
    return acc


Jacobian = tuple[int, int, int]  # (X, Y, Z) stands for (X/Z^2, Y/Z^3)


def _double_jacobian(p: Jacobian, a: int, n: int) -> Jacobian:
    """2P without inversion; Z3 = 2 Y Z, which is Z^4 times the affine 2y."""
    x, y, z = p
    yy = y * y % n
    zz = z * z % n
    s = 4 * x * yy % n
    m = (3 * x * x + a * zz * zz) % n
    x3 = (m * m - 2 * s) % n
    y3 = (m * (s - x3) - 8 * yy * yy) % n
    return x3, y3, 2 * y * z % n


def _add_mixed(p: Jacobian, q: tuple[int, int], n: int) -> Jacobian:
    """P + Q for affine Q without inversion; Z3 = Z H with H = Z^2 (x_Q - x_P)."""
    x1, y1, z1 = p
    x2, y2 = q
    zz = z1 * z1 % n
    h = (x2 * zz - x1) % n
    r = (y2 * zz * z1 - y1) % n
    hh = h * h % n
    hhh = h * hh % n
    v = x1 * hh % n
    x3 = (r * r - hhh - 2 * v) % n
    y3 = (r * (v - x3) - y1 * hhh) % n
    return x3, y3, z1 * h % n


def scalar_mul_checked(p: Affine, k: int, e: Curve) -> Affine:
    """[k]P, exactly as the affine double-and-add chain computes it.

    The chain doubles for every bit of k after the leading one and adds P
    for every set bit, as `_scalar_mul_affine` does, and so returns the
    same point, None or CompositeDetected for any modulus n >= 2, prime or
    not.
    Every operation but the last runs in Jacobian coordinates.  Z starts
    at 1; a doubling multiplies it by Z^3 times the affine denominator 2y,
    an addition of P by Z^2 times x_P - x.  So Z is a unit exactly when
    every affine step so far took its generic branch with an invertible
    denominator, and then both computations give the same point.  One gcd
    decides: a unit Z is inverted once and the last operation runs in
    `_add_affine_checked`, so an accepting [N']Q = O needs no fallback; any
    other Z reruns the affine chain from the start.
    """
    if k < 0:
        raise ValueError("scalar must be non-negative")
    if p is None or k < 2:
        return p if k else None
    n = e.n
    bits = bin(k)[3:]
    acc: Jacobian = (p[0], p[1], 1)
    for bit in bits[:-1]:
        acc = _double_jacobian(acc, e.a, n)
        if bit == "1":
            acc = _add_mixed(acc, p, n)
    if bits[-1] == "1":
        acc = _double_jacobian(acc, e.a, n)
    x, y, z = acc
    if math.gcd(z, n) != 1:
        return _scalar_mul_affine(p, k, e)
    zinv = pow(z, -1, n)
    zinv2 = zinv * zinv % n
    last = (x * zinv2 % n, y * zinv2 * zinv % n)
    return _add_affine_checked(last, p if bits[-1] == "1" else last, e)


def is_on_curve(p: Affine, e: Curve) -> bool:
    if p is None:
        return True
    x, y = p
    return (y * y - (x * x * x + e.a * x + e.b)) % e.n == 0


# ---------------------------------------------------------------------------
# CM curve families

def _smallest_nonresidue(n: int) -> int:
    for c in range(2, 10_000):
        j = jacobi(c, n)
        if j == -1:
            return c
        if j == 0:
            g = math.gcd(c, n)
            raise CompositeDetected("gcd-factor", factor=g if 1 < g < n else None, n=n)
    raise CompositeDetected("no-nonresidue-found", n=n)


def _smallest_sextic_generator(n: int) -> int:
    """Smallest element that is both a non-square and a non-cube.

    For prime n = 1 (mod 3) its class generates the order-6 group of
    sextic twist cosets, so its powers 0..5 cover every coset.
    """
    e = (n - 1) // 3
    for c in range(2, 10_000):
        if jacobi(c, n) == -1 and pow(c, e, n) != 1:
            return c
    raise CompositeDetected("no-sextic-generator-found", n=n)


def curves_from_j(j0: int, n: int) -> list[Curve]:
    """The CM curves with j-invariant j0 over Z/nZ, twists included.

    Generic j0 gives the curve (3k, 2k) with k = j0/(1728 - j0) and its
    quadratic twist.  j0 = 0 yields six sextic twists y^2 = x^3 + b and
    j0 = 1728 four quartic twists y^2 = x^3 + a x, with twisting
    constants chosen deterministically from the smallest non-residue
    (and smallest non-cube for the sextic family).
    """
    j0 %= n
    if j0 == 0:
        if n % 3 == 1:
            g = _smallest_sextic_generator(n)
        else:
            g = _smallest_nonresidue(n)  # only two real twist classes here
        bs = [pow(g, i, n) for i in range(6)]
        return [Curve(n, 0, b) for b in bs]
    if j0 == 1728 % n:
        g = _smallest_nonresidue(n)
        return [Curve(n, pow(g, i, n), 0) for i in range(4)]
    k = j0 * checked_inverse((1728 - j0) % n, n) % n
    g = _smallest_nonresidue(n)
    a, b = 3 * k % n, 2 * k % n
    g2, g3 = g * g % n, g * g % n * g % n
    return [Curve(n, a, b), Curve(n, a * g2 % n, b * g3 % n)]


_POINT_TRIES = 8  # random points per twist


def find_order_point(
    curves: list[Curve],
    m: int,
    c: int,
    nprime: int,
    rng: random.Random,
) -> tuple[Curve, tuple[int, int], tuple[int, int]] | None:
    """Search the twist list for a point of order nprime.

    Random x-coordinates are completed to points by a modular square
    root; Q = [c]P is accepted when Q is not the identity and [nprime]Q
    is.  Up to `_POINT_TRIES` points are spent per curve; a non-identity
    [nprime]Q moves on to the next twist (wrong cardinality).  Returns
    (curve, P, Q) with both points affine, or None when every twist
    failed.  Composite evidence from the arithmetic propagates.
    """
    if m != c * nprime:
        raise ValueError("m must equal c * nprime")
    for e in curves:
        if e.discriminant_gcd() != 1:
            continue
        attempts = 0
        budget = _POINT_TRIES * 16
        while attempts < _POINT_TRIES and budget > 0:
            budget -= 1
            x = rng.randrange(e.n)
            ysq = (x * x % e.n * x + e.a * x + e.b) % e.n
            if ysq == 0 or jacobi(ysq, e.n) != 1:
                continue
            y = sqrt_mod(ysq, e.n)
            if y is None:
                raise CompositeDetected("sqrt-failed-for-residue", n=e.n)
            attempts += 1
            p = (x, y)
            q = scalar_mul_checked(p, c, e)
            if q is None:
                continue
            r = scalar_mul_checked(q, nprime, e)
            if r is None:
                return e, p, q
            break  # wrong twist: [m]P != identity
    return None
