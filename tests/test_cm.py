import hashlib
import math
import os
import random

import mpmath
import pytest

from fastecpp import cert, cm, prover
from fastecpp.errors import CompositeDetected, PrecisionError
from fastecpp.numth import cornacchia, is_probable_prime, jacobi, sqrt_mod

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# ---------------------------------------------------------------------------
# oracle: class polynomial coefficients from mpmath's own Klein j


def j_path_precision(d: int, forms: list[cm.ReducedForm]) -> int:
    """Precision for the oracles of H_D from j: the height bound plus a
    guard of 10h + 64, well above cm.precision_for's h + 32, so that no
    oracle shares the guard it checks."""
    height = math.pi * math.sqrt(-d) * math.fsum(1.0 / f.a for f in forms) / math.log(2)
    return math.ceil(height) + 10 * len(forms) + 64


def class_poly_oracle(d: int, extra_bits: int = 128) -> list[int]:
    """Independent reconstruction via mpmath.kleinj (j / 1728)."""
    forms = cm.reduced_forms(d)
    prec = j_path_precision(d, forms) + extra_bits
    with mpmath.workprec(prec):
        roots = []
        for f in forms:
            tau = (-f.b + mpmath.sqrt(mpmath.mpc(d))) / (2 * f.a)
            roots.append(1728 * mpmath.kleinj(tau))
        poly = [mpmath.mpc(1)]
        for r in roots:
            nxt = [mpmath.mpc(0)] * (len(poly) + 1)
            for i, cf in enumerate(poly):
                nxt[i] += cf * (-r)
                nxt[i + 1] += cf
            poly = nxt
        out = []
        for cf in poly:
            assert abs(cf.imag) < 0.25
            out.append(int(mpmath.nint(cf.real)))
    return out


KNOWN = {
    -3: [0, 1],
    -4: [-1728, 1],
    -7: [3375, 1],
    -8: [-8000, 1],
    -11: [32768, 1],
    -15: [-121287375, 191025, 1],
    -23: [12771880859375, -5151296875, 3491750, 1],
    -163: [262537412640768000, 1],
}


def test_reduced_forms_derived():
    assert [(f.a, f.b, f.c) for f in cm.reduced_forms(-23)] == [
        (1, 1, 6), (2, -1, 3), (2, 1, 3),
    ]
    assert len(cm.reduced_forms(-3)) == 1
    assert len(cm.reduced_forms(-4)) == 1


def test_reduced_forms_match_class_numbers(discs2000):
    for d, h in discs2000:
        if -d > 500:
            continue
        forms = cm.reduced_forms(d)
        assert len(forms) == h, d
        for f in forms:
            assert f.b * f.b - 4 * f.a * f.c == d
            assert abs(f.b) <= f.a <= f.c
            if abs(f.b) == f.a or f.a == f.c:
                assert f.b >= 0


def test_hilbert_class_poly_known_values(monkeypatch):
    attempts = _spy_expand(monkeypatch)
    for d, coeffs in KNOWN.items():
        attempts.clear()
        got = cm.hilbert_class_poly(d)
        assert got.coeffs == coeffs, d
        assert got.coeffs == class_poly_oracle(d), d
        assert attempts[0][2] < 1e-6


def test_hilbert_class_poly_against_oracle_sampled(table2000, discs2000):
    rng = random.Random(20)
    candidates = [d for d, h in discs2000 if h <= 12 and -d >= 100]
    for d in rng.sample(candidates, 12):
        mine = cm.hilbert_class_poly(d)
        assert mine.coeffs == class_poly_oracle(d), d
        assert mine.coeffs[-1] == 1
        assert mine.degree == table2000.class_number(d)


def test_hilbert_class_poly_rejects_bad_d():
    with pytest.raises(ValueError):
        cm.hilbert_class_poly(-5)  # 2 mod 4
    with pytest.raises(ValueError):
        cm.hilbert_class_poly(4)


def _cache_env(tmp_path, table):
    env = prover.Environment(prover.ProveConfig(cache_dir=str(tmp_path)))
    env.table = table
    return env


def test_class_poly_cache_roundtrip(tmp_path, table2000, monkeypatch):
    d = -71
    a = _cache_env(tmp_path, table2000).class_poly(d)
    assert (tmp_path / "class_poly_71.bin").exists()

    def recompute(d):
        raise AssertionError("cached polynomial not used")

    monkeypatch.setattr(cm, "hilbert_class_poly", recompute)
    b = _cache_env(tmp_path, table2000).class_poly(d)
    assert a.coeffs == b.coeffs


def test_class_poly_cache_rejects_damaged_files(tmp_path, table2000):
    d = -1235
    good = _cache_env(tmp_path, table2000).class_poly(d)
    path = tmp_path / "class_poly_1235.bin"
    blob = path.read_bytes()
    payload = blob[blob.index(b"\n") + 1:]
    w = len(payload) // (table2000.class_number(d) + 1)
    assert w == 53

    def slots(coeffs):
        return b"".join(c.to_bytes(w, "little", signed=True) for c in coeffs)

    assert slots(good.coeffs) == payload
    envelopes = []
    # checksummed envelopes that fail the degree or monicity check: monic
    # of degree h(D) + 1 and h(D) - 1, and degree h(D) with top coefficient 2
    for bad in (slots(good.coeffs[:-1] + [0, 1]), slots(good.coeffs[1:]),
                slots(good.coeffs[:-1] + [2])):
        prover._cache_save(str(tmp_path), "class_poly_1235", bad)
        envelopes.append(path.read_bytes())
    for damaged in [blob[:-5], blob[:-1], blob[:-300], blob[:9], blob + b"\x00"] + envelopes:
        path.write_bytes(damaged)
        assert _cache_env(tmp_path, table2000).class_poly(d).coeffs == good.coeffs
        assert path.read_bytes() == blob  # recomputed and written back


# SHA-256 of the decimal coefficients joined by spaces, for every D of the
# pinned certificates and of the earlier 10^100 chain (-2712 to -39), one
# h = 64 discriminant and the 12 D of the chain of the first prime after
# 10^200; all were recorded from the evaluation of j by theta constants,
# before H_D was recovered from gamma2.
CLASS_POLY_DIGESTS = {
    -1235: "a1b108b77615a15c2ed081dae3e221207f60a8204a646da0b2c210ab69823164",
    -87235: "d33ca40ffbe1b750bc9fbb82755bd82383b8444f6e53d842b96ab38e9593ad38",
    -11: "ddd429a21df5e4e4e9bb3bfc0377e1adf9c1b9b8354e0d83cecff3466899c0c0",
    -11427: "51bc69c3ef5450c845e1e86b136b90d8a90b63671c3d344730465259934120e1",
    -6532: "d436f3ada2ec016e7c504b5350ad71934a5e1da207acc458a454a97324d3ea8d",
    -2712: "faf9bb6a047cbae84099ad4ed4273feba764425124736f7a25eb46589cd636c4",
    -20708: "49cd5f4a682fde36b24b3dcb2ed44eace86f16539ace0abc3083a9740c2b51a7",
    -76867: "06bc921515cba1e26cb14135dbb9ff4616fffbd439759887855fd240b68dcda6",
    -39: "13cf821aa98ef9c53e0d19672481609b517fa2e03192fe9ebf8de82238ce2100",
    -1187: "98d75012b0005dd65a96f6db683efe19d8489a5f0ca186634aab2b16489c54c6",
    -1691: "9cc72e974e685c7d8d6fe3c10222dea7605b52f8a74080076554f73489ec2f3e",
    -1435: "cf5af9e5f3b3784178fe28e4ac08874eb8e5df52563460d1b60fa36b361e6e19",
    -1595: "491ef8c93e6408d510417047d34fa6c74c2de4949ab1b85b6be2260b168c1d73",
    -24932: "52e3c030fd84a98b23440adff983b0f40801121e267dec27d2950764488e0a32",
    -427: "9a217957bbb1ccfff7eaf2951889c748087adb78c53717d89126982a35782996",
    -151: "8a064b3b8e9f29960a26aea9e1b94011a8bd7bb9786a2a71916a27c61436553b",
    -4504: "4b2b60ce064d3283a0d74dfb622b98f2b50dc4db00ed2bfcf1ee4505bf6f9171",
    -64168: "4c623ffab6b4c753e96a756b9004823d73f188d431d59531355e23ca8cd925b9",
    -50611: "720e422b41c118c0c7d36347d6345c8147586300144a3ea8f35eb9fb7b85b42a",
    -57619: "8a6fdbe90d2ce9434a902308a27f3e96fed6cefa00c58979fd5c1590f69436e2",
    -3143: "a8de6f6fc953937764e0a586f8e8ee4691020c7ed42504154e7c2489a99d03f9",
    -10643: "2e21894f596e1864a169ff59001cf9ba55144f55f3e1bf57f6138b1e69ca7cec",
    -4811: "68d314c33d66b678320708433e34b3c6978b24f51d87088f43895002dce7a8c3",
    -25828: "ec4437e4fbd85d76f0d05cd3f64f29bcf80a2c8b4b144685c08ff1c85849a5b0",
    -7: "7f6c40bee8bc3be7f6ee2c9cff870ea6c8ad006d56d8d6e34427d2c8f8a2b859",
    -532: "6351427cfb5828cd489f544eccd56320bb10e624e88ed33a2d4a2dce7ff7e420",
}


def _digest(coeffs: list[int]) -> str:
    return hashlib.sha256(" ".join(map(str, coeffs)).encode()).hexdigest()


def test_class_poly_digests():
    pinned = set()
    for name in ("cert_10pow20.txt", "cert_10pow50.txt", "cert_10pow100.txt"):
        with open(os.path.join(DATA_DIR, name), encoding="ascii") as f:
            pinned.update(step.d for step in cert.parse(f.read()).steps)
    assert pinned < set(CLASS_POLY_DIGESTS)
    for d, digest in CLASS_POLY_DIGESTS.items():
        assert _digest(cm.hilbert_class_poly(d).coeffs) == digest, d


def _spy_expand(monkeypatch, result=None):
    """Record every (wp, coefficients, residual) that cm._expand rounds;
    `result`, if given, replaces what an attempt returns: result(attempt,
    coeffs, residual) -> (coeffs, residual), and the replaced residual is
    the one recorded."""
    real, attempts = cm._expand, []

    def spy(d, forms, wp, cube_roots):
        coeffs, residual = real(d, forms, wp, cube_roots)
        if result:
            coeffs, residual = result(len(attempts) + 1, coeffs, residual)
        attempts.append((wp, coeffs, residual))
        return coeffs, residual

    monkeypatch.setattr(cm, "_expand", spy)
    return attempts


def test_precision_formula_covers_coefficients(monkeypatch):
    """First-attempt precision must dominate the coefficient sizes of the
    polynomial actually evaluated: W for 3 not dividing D, H_D for 3 | D."""
    attempts = _spy_expand(monkeypatch)
    for d in (-23, -71, -479, -1991, -15, -39, -771, -1155):
        attempts.clear()
        poly = cm.hilbert_class_poly(d)
        assert len(attempts) == 1
        evaluated = attempts[0][1]
        assert (evaluated == poly.coeffs) == (d % 3 == 0), d
        maxbits = max(abs(c).bit_length() for c in evaluated)
        assert cm.precision_for(d, cm.reduced_forms(d), d % 3 != 0) >= maxbits, d
        assert attempts[0][2] < 1e-6


def test_gamma2_path_matches_j_path(monkeypatch, discs2000):
    """For every fundamental D prime to 3 with |D| <= 2000, H_D recovered
    from gamma2 equals H_D evaluated from j at full precision."""
    real = cm._expand
    attempts = _spy_expand(monkeypatch)
    checked = 0
    for d, h in discs2000:
        if d % 3 == 0:
            continue
        forms = cm.reduced_forms(d)
        wp = j_path_precision(d, forms) + 32 + h.bit_length()
        coeffs, residual = real(d, forms, wp, False)
        assert residual < 1e-6, d
        attempts.clear()
        poly = cm.hilbert_class_poly(d)
        assert poly.coeffs == coeffs, d
        assert attempts[0][2] < 1e-6, d
        checked += 1
    assert checked > 400


def test_j_path_first_attempt_matches_a_wider_guard(monkeypatch, discs2000):
    """For every fundamental D with 3 | D and |D| <= 2000, and the 3 | D
    discriminants of the pinned chains (the earlier 10^100 chain's
    included), H_D from j at the guard h + 32
    succeeds at the first attempt with the coefficients of the guard
    10h + 64."""
    real = cm._expand
    attempts = _spy_expand(monkeypatch)
    discs = [d for d, _ in discs2000 if d % 3 == 0] + [-11427, -2712, -39]
    assert len(discs) == 154
    for d in discs:
        attempts.clear()
        forms = cm.reduced_forms(d)
        poly = cm.hilbert_class_poly(d)
        assert len(attempts) == 1, d
        assert attempts[0][0] == cm.precision_for(d, forms) + 32 + len(forms).bit_length()
        assert cm.precision_for(d, forms) < j_path_precision(d, forms)
        wp = j_path_precision(d, forms) + 32 + len(forms).bit_length()
        old, residual = real(d, forms, wp, False)
        assert residual < 1e-6, d
        assert attempts[0][1] == poly.coeffs == old, d
        assert attempts[0][2] < 1e-6, d


@pytest.mark.parametrize("d", [-20708, -10643])
def test_gamma2_forms_with_3_dividing_a_and_c(d):
    """These D are prime to 3 but have reduced forms with 3 | a and 3 | c,
    whose gamma2 conjugate needs tau + 1 before -1/tau."""
    assert d % 3 != 0
    assert any(f.a % 3 == 0 and f.c % 3 == 0 for f in cm.reduced_forms(d))
    assert _digest(cm.hilbert_class_poly(d).coeffs) == CLASS_POLY_DIGESTS[d]


@pytest.mark.parametrize("d", [-6532, -2712])
def test_precision_retry_after_a_bad_first_attempt(monkeypatch, d):
    """A first attempt with residual >= 1/4 (and wrong coefficients) is
    retried at doubled precision, for W (3 not dividing -6532) and for
    H_D (3 | -2712)."""
    def first_off(attempt, coeffs, residual):
        return ([c + 1 for c in coeffs], 0.3) if attempt == 1 else (coeffs, residual)

    attempts = _spy_expand(monkeypatch, first_off)
    poly = cm.hilbert_class_poly(d)
    assert [wp for wp, _, _ in attempts] == [attempts[0][0], 2 * attempts[0][0]]
    assert _digest(poly.coeffs) == CLASS_POLY_DIGESTS[d]


@pytest.mark.parametrize("d", [-151, -39])
def test_precision_retry_cap_raises(monkeypatch, d):
    attempts = _spy_expand(monkeypatch, lambda attempt, coeffs, residual: (coeffs, 0.25))
    with pytest.raises(PrecisionError):
        cm.hilbert_class_poly(d)
    wp = attempts[0][0]
    assert [w for w, _, _ in attempts] == [wp << i for i in range(cm._MAX_PRECISION_RETRIES + 1)]


# ---------------------------------------------------------------------------
# roots modulo N


def root_mod_oracle(poly: cm.ClassPolynomial, n: int, rng: random.Random) -> int:
    """The root finder with the x^n - x gcd first: split off the product of
    the linear factors, then split it by (x + delta)^((n-1)/2) - 1."""
    f = cm._pmonic(cm._ptrim([c % n for c in poly.coeffs]), n)
    if len(f) == 2:
        return -f[0] % n
    xn = cm._Modulus(f, n).pow_linear(0, n)
    xn[1] = (xn[1] - 1) % n
    g = cm._pgcd(xn, f, n)
    assert len(g) >= 2, "no root"
    while len(g) > 2:
        delta = rng.randrange(n)
        t = cm._Modulus(g, n).pow_linear(delta, (n - 1) // 2)
        t[0] = (t[0] - 1) % n
        d = cm._pgcd(t, g, n)
        if 1 < len(d) < len(g):
            g = d if len(d) * 2 <= len(g) + 1 else cm._pdivmod(g, d, n)[0]
    return -g[0] % n


@pytest.mark.parametrize("name", ["cert_10pow50.txt", "cert_10pow100.txt"])
def test_root_mod_matches_oracle_on_pinned_chains(name):
    with open(os.path.join(DATA_DIR, name), encoding="ascii") as f:
        steps = cert.parse(f.read()).steps
    for i, step in enumerate(steps):
        poly = cm.hilbert_class_poly(step.d)
        for seed in (i, 1000 + i):
            root = cm.root_mod(poly, step.n, random.Random(seed))
            assert root == root_mod_oracle(poly, step.n, random.Random(seed)), (step.d, seed)
            assert cm.poly_eval_mod(poly.coeffs, root, step.n) == 0


def test_root_mod_falls_back_to_the_linear_part():
    """f = (distinct linear factors) x (irreducible quadratic) mod a prime:
    a split can keep the quadratic, whose x^n - x gcd is 1; the factor set
    aside then still gives a root of f."""
    p = 1000003
    a = next(a for a in range(2, p) if jacobi(a, p) == -1)
    rng = random.Random(5)
    quadratic_left = 0
    for k in range(1, 7):
        for trial in range(12):
            roots = rng.sample(range(p), k)
            f = [-a % p, 0, 1]  # x^2 - a, irreducible mod p
            for r in roots:
                f = school_mul(f, [-r % p, 1], p)
            seed = 100 * k + trial
            assert cm.root_mod(cm.ClassPolynomial(0, f), p, random.Random(seed)) in roots
            # the first split takes every linear factor (the larger half
            # when k >= 2) and keeps the quadratic alone
            delta = random.Random(seed).randrange(p)
            quadratic_left += k >= 2 and all(jacobi(r + delta, p) == 1 for r in roots)
    assert quadratic_left > 0
    f = school_mul([-a % p, 0, 1], [-4 * a % p, 0, 1], p)
    with pytest.raises(CompositeDetected) as exc:
        cm.root_mod(cm.ClassPolynomial(0, f), p, random.Random(0))
    assert exc.value.reason == "class-poly-has-no-root"


def test_root_mod_linear_examples():
    poly = cm.ClassPolynomial(-4, [-1728, 1])
    assert cm.root_mod(poly, 1000003, random.Random(0)) == 1728 % 1000003
    poly = cm.ClassPolynomial(-3, [0, 1])
    assert cm.root_mod(poly, 17, random.Random(0)) == 0


def test_root_mod_d7_example():
    # H_{-7} = x + 3375; root mod 23 is -3375 = 6 (mod 23)
    poly = cm.hilbert_class_poly(-7)
    j0 = cm.root_mod(poly, 23, random.Random(0))
    assert j0 == (-3375) % 23 == 6
    # downstream check: a curve with this j over F_23 has a cardinality
    # in the Hasse interval consistent with 4*23 = t^2 + 7 v^2
    from fastecpp.curve import curves_from_j

    t, v = cornacchia(23, -7, sqrt_mod(-7, 23))
    orders = set()
    for e in curves_from_j(j0, 23):
        count = 1
        for x in range(23):
            rhs = (x * x * x + e.a * x + e.b) % 23
            if rhs == 0:
                count += 1
            elif jacobi(rhs, 23) == 1:
                count += 2
        orders.add(count)
    assert 23 + 1 - t in orders and 23 + 1 + t in orders


def test_root_mod_verifies_root(discs2000):
    rng = random.Random(21)
    primes = []
    while len(primes) < 12:
        p = rng.randrange(10**6, 10**9) | 1
        if is_probable_prime(p):
            primes.append(p)
    candidates = [d for d, h in discs2000 if h <= 16]
    found = 0
    for n in primes:
        rng2 = random.Random(n)
        for d in rng2.sample(candidates, 200):
            if jacobi(d, n) != 1:
                continue
            root = sqrt_mod(d, n)
            if root is None or cornacchia(n, d, root) is None:
                continue
            poly = cm.hilbert_class_poly(d)
            j0 = cm.root_mod(poly, n, random.Random(found))
            assert cm.poly_eval_mod(poly.coeffs, j0, n) == 0
            assert j0 == root_mod_oracle(poly, n, random.Random(found)), (n, d)
            found += 1
            break
    assert found >= 8


def test_root_mod_deterministic_under_seed():
    poly = cm.hilbert_class_poly(-23)
    r1 = cm.root_mod(poly, 59, random.Random(9))
    r2 = cm.root_mod(poly, 59, random.Random(9))
    assert r1 == r2


def test_root_mod_no_root_is_composite_evidence():
    # jacobi(-23, 1000003) = 1 yet the principal form misses 1000003:
    # for a prime modulus that means no root of H_-23 exists
    poly = cm.hilbert_class_poly(-23)
    assert jacobi(-23, 1000003) == 1
    with pytest.raises(CompositeDetected):
        cm.root_mod(poly, 1000003, random.Random(0))


def test_root_mod_composite_modulus_detected():
    poly = cm.hilbert_class_poly(-23)
    n = 59 * 71
    with pytest.raises(CompositeDetected):
        # either a factor shows up in a gcd or the root check fails
        for seed in range(8):
            j0 = cm.root_mod(poly, n, random.Random(seed))
            assert cm.poly_eval_mod(poly.coeffs, j0, n) == 0


def test_hilbert_deterministic():
    a = cm.hilbert_class_poly(-479)
    b = cm.hilbert_class_poly(-479)
    assert a.coeffs == b.coeffs


# ---------------------------------------------------------------------------
# packed polynomial kernels against schoolbook arithmetic


def school_mul(u: list[int], v: list[int], n: int) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for k, vk in enumerate(v):
            out[i + k] = (out[i + k] + ui * vk) % n
    return cm._ptrim(out)


def school_mod(u: list[int], f: list[int], n: int) -> list[int]:
    u = u[:]
    df = len(f) - 1
    while len(u) > df:
        lead = u.pop()
        for i in range(df):
            u[len(u) - df + i] = (u[len(u) - df + i] - lead * f[i]) % n
    return cm._ptrim(u)


def school_powmod(base: list[int], e: int, f: list[int], n: int) -> list[int]:
    result = [1]
    acc = school_mod(base, f, n)
    while e:
        if e & 1:
            result = school_mod(school_mul(result, acc, n), f, n)
        e >>= 1
        if e:
            acc = school_mod(school_mul(acc, acc, n), f, n)
    return result


M607 = 2**607 - 1  # Mersenne primes
M89 = 2**89 - 1
KERNEL_MODULI = [3, 59 * 71, 1000003, 2**127 - 1, M607, M607 * M89]
KERNEL_DEGREES = [1, 2, 3, 4, 7, 16, 33, 64]


def _random_monic(rng: random.Random, d: int, n: int) -> list[int]:
    return [rng.randrange(n) for _ in range(d)] + [1]


def test_packed_product_and_reduction_match_schoolbook():
    rng = random.Random(31)
    for n in KERNEL_MODULI:
        for d in KERNEL_DEGREES:
            f = _random_monic(rng, d, n)
            m = cm._Modulus(f, n)
            assert len(m.rows) == d - 1  # no row at degree 1, one at degree 2
            residues = [[n - 1] * d, [0] * d] + [
                [rng.randrange(n) for _ in range(d)] for _ in range(3)
            ]
            for u in residues:
                for v in (u, residues[-1]):
                    s = cm._pack(u, m.wb) * cm._pack(v, m.wb)
                    product = [c % n for c in cm._unpack(s, 2 * d - 1, m.wb)]
                    want = school_mul(u, v, n)
                    assert cm._ptrim(product) == want, (n, d)
                    assert cm._ptrim(m.reduce(s)) == school_mod(want, f, n), (n, d)


def test_pow_linear_matches_schoolbook():
    rng = random.Random(32)
    for n in KERNEL_MODULI:
        for d in KERNEL_DEGREES:
            f = _random_monic(rng, d, n)
            m = cm._Modulus(f, n)
            exponents = [1, 2, 3, rng.randrange(1, 1 << (40 if d < 16 else 12))]
            if d <= 4:
                exponents += [n, (n - 1) // 2]
            for delta in (0, rng.randrange(n)):
                for e in exponents:
                    got = m.pow_linear(delta, e)
                    assert len(got) == d and all(0 <= c < n for c in got)
                    want = school_powmod([delta, 1], e, f, n)
                    assert cm._ptrim(got) == want, (n, d, delta, e)
