import math

import pytest

from fastecpp import stats

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


def test_sample_worker_invariance():
    b = 1 << 10
    r1 = stats.sample(64, b, 2000, seed=9, workers=1)
    r4 = stats.sample(64, b, 2000, seed=9, workers=4)
    assert r1.bucket_probs == r4.bucket_probs
    assert r1.n_prime_conditioned == r4.n_prime_conditioned


def test_sample_uses_supplied_products(product_2_20):
    report = stats.sample(64, 1 << 20, 500, seed=2, env_products=[product_2_20])
    assert report.n_total == 500
