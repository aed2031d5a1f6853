import hashlib
import math

import mpmath
import pytest

from fastecpp import numth, stats

E_GAMMA = math.exp(stats.EULER_GAMMA)


def test_gamma_constant_precision():
    assert len(stats.EULER_GAMMA_STR.split(".")[1]) == 50
    assert abs(stats.EULER_GAMMA - 0.5772156649015329) < 1e-16


def test_density_spec_examples():
    assert abs(stats.density(0.5) - 0.561459) < 1e-6
    assert stats.density(1.0) == 1.0 / E_GAMMA
    # (1 - ln 2) / e^gamma, high-precision value 0.17228542553385577...
    assert abs(stats.density(2.0) - 0.172285) < 1e-6


def test_density_continuous_at_one():
    eps = 1e-12
    assert abs(stats.density(1.0) - stats.density(1.0 + eps)) < 1e-9


def test_density_domain_errors():
    with pytest.raises(ValueError):
        stats.density(0.0)
    with pytest.raises(ValueError):
        stats.density(-1.0)
    with pytest.raises(ValueError):
        stats.density(2.5)


def test_bucket_probabilities_values_and_identity():
    p1, p2, p_tail, p_gt_e = stats.bucket_probabilities()
    assert abs(p1 - 0.5615) < 1e-3
    assert abs(p2 - 0.3446) < 1e-3
    assert abs(p_tail - 0.0939) < 1e-3
    assert abs(p_gt_e - 0.0353) < 1e-3
    assert abs((p1 + p2 + p_tail) - 1.0) < 1e-12
    assert p_gt_e <= 0.036


def test_cumulative_lower_bound():
    p1, p2, _, _ = stats.bucket_probabilities()
    assert abs(stats.cumulative_lower_bound(2.0) - (p1 + p2)) < 1e-12
    peak = (math.e - 1.0) / E_GAMMA
    assert abs(stats.cumulative_lower_bound(math.e) - peak) < 1e-12
    assert stats.cumulative_lower_bound(10.0) == stats.cumulative_lower_bound(math.e)
    assert stats.cumulative_lower_bound(2.2) < stats.cumulative_lower_bound(2.6)
    with pytest.raises(ValueError):
        stats.cumulative_lower_bound(1.5)


def test_max_statistics_gain_examples():
    q = (3.0 - 2.0 * math.log(2.0)) / E_GAMMA
    amplified = stats.max_statistics_gain(1.0 - q, 8.9)
    assert 0.57 <= amplified <= 0.59
    assert stats.max_statistics_gain(0.3, 0) == 0.0
    assert abs(stats.max_statistics_gain(1.0 - q, 1) - (1.0 - q)) < 1e-12
    assert abs((1.0 - q) - 0.094) < 1e-3
    with pytest.raises(ValueError):
        stats.max_statistics_gain(1.5, 2)


def test_sample_small_run_partition_and_report():
    b = 1 << 10
    report = stats.sample(64, b, 3000, seed=1)
    p1, p2, p3, pe = report.bucket_probs
    assert abs((p1 + p2 + p3) - 1.0) < 1e-12
    assert 0 <= pe <= p3 + 1e-12
    assert report.n_prime_conditioned > 0
    text = report.to_text()
    assert "BOUND" in text
    kv = report.to_kv()
    assert "acceptance_rate" in kv
    csv = report.histogram_csv()
    assert csv.startswith("alpha_lo,alpha_hi,count")
    assert sum(int(r.split(",")[2]) for r in csv.strip().split("\n")[1:]) == (
        report.n_prime_conditioned
    )


def test_sample_validations():
    with pytest.raises(ValueError):
        stats.sample(64, 512, 10)
    with pytest.raises(ValueError):
        stats.sample(32, 1 << 10, 10)
    with pytest.raises(ValueError):
        stats.sample(64, 1 << 10, 0)
    with pytest.raises(ValueError):
        stats.sample(64, (1 << 24) + 1, 10)  # refused before the sieve is built


def test_sample_worker_invariance():
    b = 1 << 10
    r1 = stats.sample(64, b, 2000, seed=9, workers=1)
    r4 = stats.sample(64, b, 2000, seed=9, workers=4)
    assert r1.bucket_probs == r4.bucket_probs
    assert r1.n_prime_conditioned == r4.n_prime_conditioned


def test_sample_uses_supplied_products(product_2_20):
    report = stats.sample(64, 1 << 20, 500, seed=2, env_products=[product_2_20])
    assert report.n_total == 500


def test_sample_refuses_products_that_do_not_end_at_b(product_2_20):
    with pytest.raises(ValueError, match="end at b"):
        stats.sample(64, 1 << 16, 10, env_products=[product_2_20])


def _dlp_bound(mp, k: int, t: int):
    """Damgard-Landrock-Pomerance bound on p_{k,t}, 3 <= t <= k/9."""
    k, t = mp.mpf(k), mp.mpf(t)
    return k ** 1.5 * 2 ** t / mp.sqrt(t) * 4 ** (2 - mp.sqrt(t * k))


@pytest.mark.parametrize("bits", [64, 100, 256, 512, 4096])
def test_mr_rounds_schedule_meets_the_bound(bits):
    """Recomputed at 50 digits: each count is the smallest t in [3, k/9]
    with p_{k,t} <= 2^-33 / L, or 17 where there is none, and the bound
    summed over the schedule stays <= 2^-33."""
    mp = mpmath.mp
    with mp.workdps(50):
        limit = mp.mpf(2) ** -33 / bits
        total = mp.mpf(0)
        for k in range(2, bits + 1):
            t = numth.mr_rounds(k, bits)
            smallest = next(
                (s for s in range(3, k // 9 + 1) if _dlp_bound(mp, k, s) <= limit), None)
            if smallest is None:
                assert t == 17, (k, t)
                continue
            assert t == smallest and 3 <= t <= k / 9, (k, t)
            total += _dlp_bound(mp, k, t)
        assert total <= mp.mpf(2) ** -33, (bits, total)
    if bits == 256:
        assert [numth.mr_rounds(k, 256) for k in (98, 99, 153, 180, 181, 222, 223, 256)] == [
            17, 11, 6, 6, 5, 5, 4, 4]


# SHA-256 of to_kv() + histogram_csv(), recorded with 16 Miller-Rabin
# rounds for every cofactor.
SAMPLE_DIGESTS = {
    (256, 20, 2000, 0): "cfe87b5dc3183ce94a675690909d366441ed218f55c2da112e8b494cb4d0a0cb",
    (256, 20, 2000, 1): "da8d18903a6b328c3f2b2cfea9da9c769201f5da601e1ceb2e9ae3943d0d3767",
    (256, 20, 2000, 2): "1c7f4bdc2dd83ed44656e404ab790fcd7de3b8ea891c7bdbf6d11f7b894d06fd",
    (512, 20, 1000, 0): "2eda9b88664fe776ea648f0d6f2104f347b2389add1394ab6a9f6a1bf30b2e77",
    (64, 10, 3000, 1): "22e55be9557f952942130d8668b64356eb92d5ddf5ec7113f028ed0df1ed896d",
}


@pytest.mark.parametrize("case", sorted(SAMPLE_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_sample_digests(case, product_2_20):
    bits, b_bits, n, seed = case
    products = [product_2_20] if b_bits == 20 else None
    report = stats.sample(bits, 1 << b_bits, n, seed=seed, env_products=products)
    text = report.to_kv() + report.histogram_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_DIGESTS[case]
