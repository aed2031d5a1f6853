"""Analytic vs empirical distribution of the smooth-cofactor exponent.

For numbers that split as (B-smooth) * (prime), the exponent
alpha = log(smooth part) / log(B) measures how many extra bits a downrun
step gains beyond the guaranteed one. Run:

    python3 demo/smooth_cofactor_distribution.py
"""

import math

from fastecpp import stats

p1, p2, p_tail, p_gt_e = stats.bucket_probabilities()
print("analytic constants (main terms):")
print(f"  P(alpha <= 1)     = 1/e^gamma         = {p1:.4f}")
print(f"  P(1 < alpha <= 2) = (2-2 ln2)/e^gamma = {p2:.4f}")
print(f"  P(alpha > 2)      = complement        = {p_tail:.4f}")
print(f"  P(alpha > e)     <= 1-(e-1)/e^gamma   = {p_gt_e:.4f}  (BOUND)")

print("\ndensity is flat below 1 and falls off logarithmically to 2:")
for a in (0.25, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
    bar = "#" * round(60 * stats.density(a))
    print(f"  f({a:4.2f}) = {stats.density(a):.4f} {bar}")

print("\ncumulative lower bound past 2 (maximum reached at alpha = e):")
for a in (2.0, 2.3, math.e, 3.5):
    print(f"  P(alpha <= {a:.2f}) >= {stats.cumulative_lower_bound(a):.4f}")

# searching many candidates at once amplifies the tail: with ~8.9 expected
# prime candidates per step, more-than-doubling the gain becomes likely
q = p1 + p2
print("\nbest-of-n amplification for P(gain >= 2 log2 B):")
for n in (1, 4, 8.9, 20):
    print(f"  n = {n:4}: {stats.max_statistics_gain(1 - q, n):.3f}")

print("\nMonte Carlo (L = 128 bits, B = 2^16, 20000 samples):")
report = stats.sample(128, 1 << 16, 20_000, seed=0)
print(report.to_text())
print("histogram rows (alpha in 0.1 bins):")
for line in report.histogram_csv().splitlines()[1:12]:
    print(" ", line)
