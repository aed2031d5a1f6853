import os
import random

import pytest

from fastecpp import cert, curve
from fastecpp.curve import Curve
from fastecpp.errors import CompositeDetected
from fastecpp.numth import is_probable_prime, jacobi, sqrt_mod

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# ---------------------------------------------------------------------------
# oracle: affine chord-tangent arithmetic over a prime field


def oracle_add(p, q, e: Curve):
    n = e.n
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2 and (y1 + y2) % n == 0:
        return None
    if p == q:
        lam = (3 * x1 * x1 + e.a) * pow(2 * y1, -1, n) % n
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, n) % n
    x3 = (lam * lam - x1 - x2) % n
    y3 = (lam * (x1 - x3) - y1) % n
    return (x3, y3)


def j_invariant(e: Curve) -> int:
    """1728 * 4a^3 / (4a^3 + 27b^2) mod n."""
    num = 4 * e.a**3 % e.n
    den = (num + 27 * e.b**2) % e.n
    return 1728 * num % e.n * pow(den, -1, e.n) % e.n


def oracle_mul(p, k, e: Curve):
    acc = None
    for _ in range(k):
        acc = oracle_add(acc, p, e)
    return acc


def enumerate_points(e: Curve):
    pts = [None]
    for x in range(e.n):
        rhs = (x * x * x + e.a * x + e.b) % e.n
        if rhs == 0:
            pts.append((x, 0))
        elif jacobi(rhs, e.n) == 1:
            y = sqrt_mod(rhs, e.n)
            pts.extend([(x, y), (x, e.n - y)])
    return pts


def random_curve_with_point(rng, p):
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        for _ in range(4 * p):
            x = rng.randrange(p)
            rhs = (x * x * x + a * x + b) % p
            if rhs == 0:
                return Curve(p, a, b), (x, 0)
            if jacobi(rhs, p) == 1:
                return Curve(p, a, b), (x, sqrt_mod(rhs, p))


# ---------------------------------------------------------------------------
# checked affine arithmetic against the oracle


def test_checked_add_matches_affine_oracle_random_triples():
    rng = random.Random(30)
    primes = [5, 7, 11, 13, 23, 97, 211, 499]
    trials = 0
    while trials < 10_000:
        p = rng.choice(primes)
        e, p1 = random_curve_with_point(rng, p)
        _, p2 = random_curve_with_point(rng, p)
        if not curve.is_on_curve(p2, e):
            # force both points onto the same curve
            p2 = p1
        # addition, doubling, and identity absorption
        assert curve._add_affine_checked(p1, p2, e) == oracle_add(p1, p2, e)
        assert curve._add_affine_checked(p1, p1, e) == oracle_add(p1, p1, e)
        assert curve._add_affine_checked(p1, None, e) == p1
        trials += 3


def test_scalar_mul_examples():
    e = Curve(97, 2, 3)
    p = (3, 6)
    assert curve.is_on_curve(p, e)
    assert curve.scalar_mul_checked(p, 0, e) is None
    assert curve.scalar_mul_checked(p, 1, e) == p
    assert curve.scalar_mul_checked(None, 5, e) is None
    # order from the brute-force group walk
    order = 1
    acc = p
    while acc is not None:
        acc = oracle_add(acc, p, e)
        order += 1
    assert curve.scalar_mul_checked(p, order, e) is None
    assert curve.scalar_mul_checked(p, order + 1, e) == p


def test_scalar_mul_vs_group_enumeration():
    """Every k up to the group order, against the iterative oracle
    (small primes here; the sweep to 10^3 is in the acceptance suite)."""
    rng = random.Random(31)
    for p in (5, 13, 31, 61):
        e, pt = random_curve_with_point(rng, p)
        order = len(enumerate_points(e))
        acc = None
        for k in range(order + 1):
            assert curve.scalar_mul_checked(pt, k, e) == acc, (p, k)
            acc = oracle_add(acc, pt, e)


def test_scalar_mul_rejects_negative():
    e = Curve(97, 2, 3)
    with pytest.raises(ValueError):
        curve.scalar_mul_checked((3, 6), -1, e)
    with pytest.raises(ValueError):
        curve.scalar_mul_checked((3, 6), -2, e)


# ---------------------------------------------------------------------------
# the one-inversion chain against the affine chain


def affine_chain(p, k, e: Curve):
    """The affine double-and-add chain with checked inversions: the oracle
    that `scalar_mul_checked` must agree with, including every raise."""
    if k < 0:
        raise ValueError("scalar must be non-negative")
    acc = None
    if p is None:
        return None
    for bit in bin(k)[2:] if k else "":
        acc = curve._add_affine_checked(acc, acc, e)
        if bit == "1":
            acc = curve._add_affine_checked(acc, p, e)
    return acc


def outcome(f, *args):
    """f(*args) as a comparable value: the point, or the raise's details."""
    try:
        return ("point", f(*args))
    except CompositeDetected as exc:
        return ("composite", exc.reason, exc.factor, exc.n)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the chains that fell back to the affine loop."""
    calls = []
    inner = curve._scalar_mul_affine

    def counted(p, k, e):
        calls.append(k)
        return inner(p, k, e)

    monkeypatch.setattr(curve, "_scalar_mul_affine", counted)
    return calls


def test_scalar_mul_matches_affine_chain_composite_moduli(fallbacks):
    """n = p q with distinct primes below 200 and a point built by CRT:
    the same point, None or CompositeDetected as the affine chain, with
    both the one-inversion path and the fallback taken."""
    rng = random.Random(50)
    primes = [p for p in range(2, 200) if is_probable_prime(p)]
    cases = 10_000
    for _ in range(cases):
        p, q = rng.sample(primes, 2)
        n = p * q
        a = rng.randrange(n)
        # a point (x, y) mod each factor, joined by CRT, fixes b
        ep, eq = q * pow(q, -1, p), p * pow(p, -1, q)  # idempotents mod n
        x = (rng.randrange(p) * ep + rng.randrange(q) * eq) % n
        y = (rng.randrange(p) * ep + rng.randrange(q) * eq) % n
        b = (y * y - x * x * x - a * x) % n
        e = Curve(n, a, b)
        assert curve.is_on_curve((x, y), e)
        k = rng.randrange(3 * n)
        assert outcome(curve.scalar_mul_checked, (x, y), k, e) == outcome(
            affine_chain, (x, y), k, e), (n, a, b, x, y, k)
    assert 0 < len(fallbacks) < cases


def test_scalar_mul_matches_affine_chain_on_certificates(fallbacks):
    """[c]P and [N'][c]P for every step of the stored certificates, with
    no fallback: an accepting [N']Q = O ends in the affine last step."""
    steps = 0
    for name in ("cert_10pow20.txt", "cert_10pow50.txt", "cert_10pow100.txt"):
        with open(os.path.join(DATA_DIR, name), encoding="ascii") as f:
            c = cert.parse(f.read())
        for s in c.steps:
            e = Curve(s.n, s.a, s.b)
            q = curve.scalar_mul_checked((s.px, s.py), s.c, e)
            assert q is not None and q == affine_chain((s.px, s.py), s.c, e)
            assert curve.scalar_mul_checked(q, s.nprime, e) is None
            assert affine_chain(q, s.nprime, e) is None
            steps += 1
    assert steps == 9
    assert fallbacks == []


# ---------------------------------------------------------------------------
# CM curve families


def test_curves_from_j_quartic_example():
    got = [e.a for e in curve.curves_from_j(1728, 7)]
    assert got == [1, 3, 2, 6]
    assert all(e.b == 0 for e in curve.curves_from_j(1728, 7))


def test_curves_from_j_sextic_example():
    got = sorted(e.b for e in curve.curves_from_j(0, 7))
    assert got == [1, 2, 3, 4, 5, 6]
    assert all(e.a == 0 for e in curve.curves_from_j(0, 7))


def test_curves_from_j_sextic_cover_classes():
    # n = 1 mod 3: the six values must cover all cosets modulo sixth powers
    n = 13
    bs = [e.b for e in curve.curves_from_j(0, n)]
    cosets = set()
    for b in bs:
        cosets.add(frozenset(b * pow(x, 6, n) % n for x in range(1, n)))
    assert len(cosets) == 6


def test_curves_from_j_generic():
    n = 1000003
    curves = curve.curves_from_j(54000, n)
    assert len(curves) == 2
    for e in curves:
        assert j_invariant(e) == 54000
    # twist is not isomorphic: different b up to sixth powers
    assert curves[0].b != curves[1].b


# ---------------------------------------------------------------------------
# order-point search


def test_find_order_point_sextic_13():
    # D = -3 chain at N = 13: m = 21 = 3 * 7
    twists = curve.curves_from_j(0, 13)
    res = curve.find_order_point(twists, 21, 3, 7, random.Random(40))
    assert res is not None
    e, p, q = res
    # the witnessing twist really has 21 points, and Q has order 7
    assert len(enumerate_points(e)) == 21
    assert curve.is_on_curve(p, e) and curve.is_on_curve(q, e)
    assert oracle_mul(q, 7, e) is None
    assert oracle_mul(p, 3, e) == q


def test_find_order_point_cofactor_one():
    # m = 7 = 1 * 7: Q = P itself must have order 7
    twists = curve.curves_from_j(0, 13)
    res = curve.find_order_point(twists, 7, 1, 7, random.Random(41))
    assert res is not None
    e, p, q = res
    assert p == q
    assert len(enumerate_points(e)) == 7


def test_find_order_point_wrong_cardinality_fails():
    twists = curve.curves_from_j(0, 13)
    # 11 is prime but no sextic twist mod 13 has 22 points
    assert all(len(enumerate_points(e)) != 22 for e in twists)
    assert curve.find_order_point(twists, 22, 2, 11, random.Random(42)) is None


def test_find_order_point_composite_soundness():
    # planted composite: no path may accept
    n = 91
    try:
        twists = curve.curves_from_j(3, n)
        res = curve.find_order_point(twists, 92, 4, 23, random.Random(43))
        assert res is None
    except CompositeDetected:
        pass


def test_twist_coverage_over_prime_corpus(discs2000):
    """For CM j0 from a valid (D, t), some twist accepts one of the two
    cardinalities."""
    from fastecpp import cm

    rng = random.Random(44)
    checked = 0
    primes = []
    while len(primes) < 6:
        p = rng.randrange(10**5, 10**7) | 1
        if is_probable_prime(p):
            primes.append(p)
    discs = [d for d, h in discs2000 if h <= 8]
    for n in primes:
        rng2 = random.Random(n)
        for d in rng2.sample(discs, 120):
            if jacobi(d, n) != 1:
                continue
            root = sqrt_mod(d, n)
            if root is None:
                continue
            sol = __import__("fastecpp").numth.cornacchia(n, d, root)
            if sol is None:
                continue
            t, v = sol
            poly = cm.hilbert_class_poly(d)
            j0 = cm.root_mod(poly, n, random.Random(checked))
            twists = curve.curves_from_j(j0, n)
            hit = False
            for m in {n + 1 - t, n + 1 + t}:
                res = curve.find_order_point(twists, m, 1, m, random.Random(m))
                if res is not None:
                    hit = True
            assert hit, (n, d, t)
            checked += 1
            break
    assert checked >= 4
