"""From a discriminant to a curve with known order, the second-phase path.

Run: python3 demo/class_polynomials_and_curves.py
"""

import random

from fastecpp import cm, curve
from fastecpp.numth import cornacchia, sqrt_mod

# Hilbert class polynomials of small discriminants: degree = class number
for d in (-3, -4, -7, -15, -23):
    poly = cm.hilbert_class_poly(d)
    terms = " + ".join(
        f"{c}*x^{i}" if i else str(c)
        for i, c in enumerate(poly.coeffs) if c
    )
    print(f"H_{d}(x) deg {poly.degree}: {terms}")

# pick a prime that the principal form of D = -23 represents
n = 1000033
root = sqrt_mod(-23, n)
sol = cornacchia(n, -23, root)
print(f"\n4*{n} = t^2 + 23 v^2 with (t, v) = {sol}")
t, v = sol

# a root of H_-23 mod n gives the j-invariant of a CM curve ...
poly = cm.hilbert_class_poly(-23)
j0 = cm.root_mod(poly, n, random.Random(0))
print(f"root of H_-23 mod {n}: j0 = {j0}")
assert cm.poly_eval_mod(poly.coeffs, j0, n) == 0

# ... whose order is N + 1 - t or N + 1 + t, up to the right twist
twists = curve.curves_from_j(j0, n)
for m in (n + 1 - t, n + 1 + t):
    res = curve.find_order_point(twists, m, 1, m, random.Random(1))
    if res is None:
        print(f"m = {m}: no twist accepted (the other cardinality wins)")
        continue
    e, p, q = res
    print(f"m = {m}: curve y^2 = x^3 + {e.a} x + {e.b}, point {q} "
          f"satisfies [m]Q = identity")
    assert curve.scalar_mul_checked(q, m, e) is None
