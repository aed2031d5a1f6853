"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import math
import os
import random
import subprocess
import sys
import time

import pytest

import fastecpp
from fastecpp import cert, cm, curve, prover, stats, trialdiv
from fastecpp.curve import Curve
from fastecpp.errors import CompositeDetected, GiveUp
from fastecpp.numth import cornacchia, is_probable_prime, is_strong_witness, jacobi, sqrt_mod


def _pass(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def config(cache_dir):
    return prover.ProveConfig(seed=0, b_bits=20, cache_dir=cache_dir)


@pytest.fixture(scope="module")
def run50(config, env):
    n = prover.first_probable_prime_after(10**50)
    t0 = time.perf_counter()
    certificate, report = prover.prove_with_report(n, config, env)
    gen_seconds = time.perf_counter() - t0
    return n, certificate, report, gen_seconds


@pytest.fixture(scope="module")
def run100(config, env):
    n = prover.first_probable_prime_after(10**100)
    t0 = time.perf_counter()
    certificate, report = prover.prove_with_report(n, config, env)
    gen_seconds = time.perf_counter() - t0
    return n, certificate, report, gen_seconds


def _fresh_process_verify(path: str) -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(fastecpp.__file__)))
    env_vars = dict(os.environ)
    env_vars["PYTHONPATH"] = src + os.pathsep + env_vars.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "fastecpp.cli", "verify", path],
        capture_output=True,
        env=env_vars,
    )
    return proc.returncode


# ---------------------------------------------------------------------------
# 1. end-to-end proofs at 50 and 100 digits


def test_criterion_01_end_to_end(run50, run100, tmp_path):
    for label, (n, certificate, report, gen_seconds) in (
        ("10^50", run50), ("10^100", run100),
    ):
        assert certificate.subject == n
        assert gen_seconds < 600, f"{label} took {gen_seconds:.0f}s"
        res = cert.verify(certificate)
        assert res.accepted, (label, res)
        path = str(tmp_path / f"cert_{label.replace('^', '')}.txt")
        with open(path, "w", encoding="ascii") as f:
            f.write(cert.serialize(certificate))
        assert _fresh_process_verify(path) == 0, label
    # verification is far cheaper than generation (well under 5%)
    n, certificate, report, gen_seconds = run50
    t0 = time.perf_counter()
    res = cert.verify(certificate)
    verify_seconds = time.perf_counter() - t0
    assert res.accepted
    assert verify_seconds < 0.05 * gen_seconds
    _pass(1, f"10^50 ({len(run50[1].steps)} steps, {run50[3]:.1f}s) and "
             f"10^100 ({len(run100[1].steps)} steps, {run100[3]:.1f}s) "
             f"verified in-process and from file; verify/generate = "
             f"{verify_seconds / gen_seconds:.4f}")


# ---------------------------------------------------------------------------
# 2. soundness over a composite corpus


CARMICHAELS = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
    46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
    172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001,
    410041, 449065, 488881, 512461,
]


def _trial_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return 0


def _chernick_carmichael_above_2_64() -> int:
    k = 600_000
    while True:
        a, b, c = 6 * k + 1, 12 * k + 1, 18 * k + 1
        if all(is_probable_prime(x) for x in (a, b, c)):  # exact below 2^64
            n = a * b * c
            if n > 1 << 64:
                return n
        k += 1


def test_criterion_02_soundness_corpus(config, env):
    corpus = list(CARMICHAELS)
    for m in CARMICHAELS:
        assert _trial_factor(m), m  # composite by direct factorisation
    # semiprimes, including 2^64-straddling products
    anchors = [1 << 20, 10**9, 1 << 31, (1 << 32) - 40, 1 << 32, 10**12]
    for a in anchors:
        p = prover.first_probable_prime_after(a)
        q = prover.first_probable_prime_after(p)
        corpus.append(p * q)
    # prime powers
    p5 = prover.first_probable_prime_after(10**5)
    p10 = prover.first_probable_prime_after(10**10)
    corpus += [3**42, 5**30, 7**25, p5**4, p10**2]
    # classic special-form composites around and above 2^64
    corpus += [(1 << 64) - 1, (1 << 64) + 1, (1 << 67) - 1,
               (1 << 64) - 4, (1 << 64) + 4]
    # an above-threshold Carmichael number (Chernick form)
    corpus.append(_chernick_carmichael_above_2_64())
    # even and square cases
    corpus += [10**50, 10**20, 1 << 100, 9]
    assert len(corpus) >= 50

    accepted = []
    verdicts = 0
    for n in corpus:
        try:
            prover.prove(n, config, env)
            accepted.append(n)
        except CompositeDetected as exc:
            # the verdict carries evidence that re-checks without the prover
            if exc.factor is not None:
                assert 1 < exc.factor < n and n % exc.factor == 0, (n, exc)
            else:
                assert exc.witness is not None and is_strong_witness(n, exc.witness), (n, exc)
            verdicts += 1
        except GiveUp:
            pass
    assert not accepted, f"composites accepted: {accepted}"
    _pass(2, f"{len(corpus)} composites all ended COMPOSITE or GIVE-UP; "
             f"{verdicts} verdicts carry a factor or base that re-checks")


# ---------------------------------------------------------------------------
# 3. analytic constants


def test_criterion_03_analytic_constants():
    p1, p2, p_tail, p_gt_e = stats.bucket_probabilities()
    e_gamma = math.exp(stats.EULER_GAMMA)
    assert abs(p1 - 1 / e_gamma) < 1e-15
    assert abs(p2 - (2 - 2 * math.log(2)) / e_gamma) < 1e-15
    assert abs(p_gt_e - (1 - (math.e - 1) / e_gamma)) < 1e-15
    for got, expect in zip((p1, p2, p_tail, p_gt_e), (0.5615, 0.3446, 0.0939, 0.0353)):
        assert abs(got - expect) < 1e-3, (got, expect)
    _pass(3, f"buckets ({p1:.4f}, {p2:.4f}, {p_tail:.4f}, {p_gt_e:.4f}) "
             f"within 1e-3 of (0.5615, 0.3446, 0.0939, 0.0353)")


# ---------------------------------------------------------------------------
# 4. empirical constants


def test_criterion_04_empirical_sample(env):
    t0 = time.perf_counter()
    products = env.ensure_products(1 << 20)
    p1_analytic, p2_analytic, _, _ = stats.bucket_probabilities()
    deltas = []
    report = None
    for n in (1000, 10_000, 100_000):
        report = stats.sample(256, 1 << 20, n, seed=0, env_products=products)
        deltas.append(abs(report.bucket_probs[0] - p1_analytic))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"sampling took {elapsed:.0f}s"

    p1, p2, _, _ = report.bucket_probs
    assert abs(p1 - p1_analytic) < 0.02
    assert abs(p2 - p2_analytic) < 0.02
    rate, expect = report.acceptance_rate, report.expected_acceptance
    assert abs(rate - expect) / expect < 0.20
    # convergence toward the analytic value, one inversion allowed for noise
    inversions = sum(1 for a, b in zip(deltas, deltas[1:]) if b > a)
    assert inversions <= 1, deltas
    _pass(4, f"n=1e5: P(a<=1)={p1:.4f}, P(1<a<=2)={p2:.4f}, "
             f"rate={rate:.4f} vs {expect:.4f} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 5. maximum-statistics amplification


def test_criterion_05_amplification():
    q = (3 - 2 * math.log(2)) / math.exp(stats.EULER_GAMMA)
    value = stats.max_statistics_gain(1 - q, 8.9)
    assert 0.57 <= value <= 0.59
    _pass(5, f"1 - ((3 - 2 ln 2)/e^gamma)^8.9 = {value:.4f} in [0.57, 0.59]")


# ---------------------------------------------------------------------------
# 6. oracle equivalences


def _is_squarefree(x: int) -> bool:
    d = 2
    while d * d <= x:
        if x % (d * d) == 0:
            return False
        d += 1
    return x >= 1


def _is_fundamental(d: int) -> bool:
    """Standard fundamentality predicate for a negative discriminant."""
    if d >= 0:
        return False
    if d % 4 == 1:
        return _is_squarefree(-d)
    if d % 4 == 0:
        m = -d // 4
        return m % 4 in (1, 2) and _is_squarefree(m)
    return False


def _fundamental_discs_to(limit: int) -> list[int]:
    out = []
    for d in range(-3, -limit - 1, -1):
        if d % 4 not in (0, 1):
            continue
        if _is_fundamental(d):
            out.append(d)
    return out


def test_criterion_06a_cornacchia_vs_exhaustive():
    primes = [int(p) for p in trialdiv.primes_up_to(10_000)[1:]]  # odd primes
    discs = _fundamental_discs_to(200)
    mismatches = 0
    checked = 0
    for n in primes:
        squares = {}
        for r in range(n // 2 + 1):
            squares.setdefault(r * r % n, r)
        four_n = 4 * n
        for d in discs:
            if -d >= four_n:
                continue
            # exhaustive t-search oracle
            found = False
            t = 0
            while t * t <= four_n:
                rem = four_n - t * t
                if rem % (-d) == 0:
                    v = math.isqrt(rem // -d)
                    if v * v == rem // -d:
                        found = True
                        break
                t += 1
            root = squares.get(d % n)
            if root is None:
                if jacobi(d, n) == -1 and found:
                    mismatches += 1  # solution would demand a square root
                continue
            res = cornacchia(n, d, root)
            checked += 1
            if res is None:
                if found:
                    mismatches += 1
            else:
                tt, vv = res
                if tt * tt + (-d) * vv * vv != four_n or not found:
                    mismatches += 1
    assert mismatches == 0
    _pass(6, f"(a) cornacchia == exhaustive t-search on {checked} "
             f"(N <= 10^4, |D| <= 200) pairs, zero mismatches")


def test_criterion_06b_batch_factor_vs_naive():
    rng = random.Random(64)
    for bound in (1000, 100_000):
        primes = [int(p) for p in trialdiv.primes_up_to(bound)]
        products = [trialdiv.prime_product(1, bound)]
        ms = [rng.getrandbits(256) | (1 << 255) for _ in range(1000)]
        splits = trialdiv.batch_factor(ms, products)
        for m, s in zip(ms, splits):
            c, rest = 1, m
            for p in primes:
                while rest % p == 0:
                    c *= p
                    rest //= p
            assert (s.c, s.nprime) == (c, rest), (m, bound)
    _pass(6, "(b) batch_factor == naive trial division on 1000 random "
             "256-bit inputs at B in {10^3, 10^5}")


def test_criterion_06c_class_numbers_vs_oracle(table2000):
    count = 0
    for d in _fundamental_discs_to(200):
        forms = []
        for a in range(1, math.isqrt(-d // 3) + 1):
            for b in range(-a, a + 1):
                num = b * b - d
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a or (b < 0 and (abs(b) == a or a == c)):
                    continue
                if math.gcd(math.gcd(a, abs(b)), c) == 1:
                    forms.append((a, b, c))
        assert table2000.class_number(d) == len(forms), d
        count += 1
    _pass(6, f"(c) class numbers match reduced-form enumeration for all "
             f"{count} fundamental |D| <= 200")


def test_criterion_06d_scalar_mul_vs_enumeration():
    rng = random.Random(65)
    primes = [int(p) for p in trialdiv.primes_up_to(1000) if p >= 5]
    checked = 0
    for p in primes:
        # a random nonsingular curve with a point on it
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            pt = None
            for x in range(p):
                rhs = (x * x * x + a * x + b) % p
                if rhs == 0:
                    pt = (x, 0)
                    break
                if jacobi(rhs, p) == 1:
                    pt = (x, sqrt_mod(rhs, p))
                    break
            if pt is not None:
                break
        e = Curve(p, a, b)
        # group order by point counting
        order = 1
        for x in range(p):
            rhs = (x * x * x + a * x + b) % p
            if rhs == 0:
                order += 1
            elif jacobi(rhs, p) == 1:
                order += 2
        # iterative chord-tangent oracle walk
        acc = None
        for k in range(order + 1):
            got = curve.scalar_mul_checked(pt, k, e)
            assert got == acc, (p, k)
            checked += 1
            if acc is None:
                acc = pt
            else:
                x1, y1 = acc
                x2, y2 = pt
                if x1 == x2 and (y1 + y2) % p == 0:
                    acc = None
                else:
                    if acc == pt:
                        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
                    else:
                        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
                    x3 = (lam * lam - x1 - x2) % p
                    acc = (x3, (lam * (x1 - x3) - y1) % p)
    assert checked > 50_000
    _pass(6, f"(d) scalar_mul_checked == group walk for {checked} multiples over "
             f"all primes 5..997, zero mismatches")


# ---------------------------------------------------------------------------
# 7. class polynomial integrality


def test_criterion_07_class_poly_integrality(discs2000):
    known = {-3: [0, 1], -4: [-1728, 1], -7: [3375, 1]}
    for d, coeffs in known.items():
        assert cm.hilbert_class_poly(d).coeffs == coeffs
    count = 0
    worst = 0.0
    for d, h in discs2000:
        if h > 16:
            continue
        poly = cm.hilbert_class_poly(d)
        assert poly.degree == h, d
        assert poly.coeffs[-1] == 1
        assert poly.residual < 1e-6, (d, poly.residual)
        worst = max(worst, poly.residual)
        count += 1
    assert count > 400
    _pass(7, f"{count} class polynomials (|D| <= 2000, h <= 16) integral at "
             f"first-attempt precision; worst residual {worst:.2e}; "
             f"H(-3), H(-4), H(-7) = x, x - 1728, x + 3375")


# ---------------------------------------------------------------------------
# 8. tamper fuzzing


def test_criterion_08_tamper_fuzz(run50, golden_text):
    rng = random.Random(88)
    bases = [cert.parse(golden_text), run50[1]]
    fields = ["n", "d", "t", "m", "c", "nprime", "a", "b", "px", "py"]
    total, rejected = 0, 0
    while total < 1000:
        base = rng.choice(bases)
        steps = [cert.CertStep(*(getattr(s, f.lower()) for f in
                                 ("n", "d", "t", "m", "c", "nprime", "a", "b", "px", "py")))
                 for s in base.steps]
        terminal = base.terminal
        if rng.random() < 0.08:
            delta = rng.choice([2, -2, 6, rng.randrange(2, 1 << 30) * 2])
            terminal = terminal + delta
            if terminal == base.terminal or terminal < 2:
                continue
        else:
            i = rng.randrange(len(steps))
            f = rng.choice(fields)
            s = steps[i]
            old = getattr(s, f)
            delta = rng.choice([1, -1, 2, -2, rng.randrange(3, 1 << 40)])
            vals = {k: getattr(s, k) for k in fields}
            vals[f] = old + delta
            if vals[f] == old:
                continue
            steps[i] = cert.CertStep(**vals)
        mutated = cert.Certificate(steps, terminal)
        total += 1
        if not cert.verify(mutated).accepted:
            rejected += 1
    assert rejected == total == 1000
    _pass(8, "1000/1000 single-field mutations rejected")


# ---------------------------------------------------------------------------
# 9. chain statistics over twenty ~50-digit proofs


def test_criterion_09_chain_statistics(config, env):
    total_gain, total_steps = 0, 0
    for k in range(1, 21):
        n = prover.first_probable_prime_after(k * 10**49)
        certificate, report = prover.prove_with_report(n, config, env)
        assert cert.verify(certificate).accepted
        gains = report.bit_gains()
        total_gain += sum(gains)
        total_steps += len(gains)
    mean = total_gain / total_steps
    assert mean >= config.b_bits  # log2(B)
    _pass(9, f"mean bit gain per step {mean:.1f} = "
             f"{mean / config.b_bits:.2f} * log2(B) over {total_steps} steps "
             f"(paper reference at record pools: above 2.3)")


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_determinism(run50, run100, config, env):
    n, certificate, _, _ = run50
    again, _ = prover.prove_with_report(n, config, env)
    assert cert.serialize(again) == cert.serialize(certificate)
    # the 10^50 and 10^100 chains are pinned byte for byte
    data_dir = os.path.join(os.path.dirname(__file__), "data")
    for c, name in ((certificate, "cert_10pow50.txt"), (run100[1], "cert_10pow100.txt")):
        with open(os.path.join(data_dir, name), "r", encoding="ascii") as f:
            assert cert.serialize(c) == f.read(), name
    for c in (certificate, run100[1]):
        assert cert.verify(c).accepted
    _pass(10, "identical (input, seed) reproduce byte-identical "
              "certificates, equal to the pinned 10^50 and 10^100 chains")
