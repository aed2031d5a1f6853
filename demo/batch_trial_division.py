"""Smooth-part extraction with product and remainder trees, step by step.

Run: python3 demo/batch_trial_division.py
"""

import random

from fastecpp import trialdiv

# the product of all primes up to B replaces B individual trial divisions
B = 1 << 14
pp = trialdiv.prime_product(1, B)
print(f"P = product of primes <= 2^14: {pp.nbits} bits")

# one remainder tree delivers P mod m for a whole batch of m at once
rng = random.Random(0)
ms = [rng.getrandbits(96) | (1 << 95) | 1 for _ in range(8)]
rems = trialdiv.remainder_tree(pp.value, ms)
for m, r in zip(ms, rems):
    assert r == pp.value % m

# the iterated-gcd ladder then peels off the full smooth part:
# gcd(m, P mod m) catches each shared prime once, the following gcds
# catch higher powers until nothing is left
m = 2**7 * 3**4 * 10_000_019  # 10000019 is prime and above B
split = trialdiv.smooth_split(m, pp.value % m, pp.value)
print(f"\nm = 2^7 * 3^4 * 10000019 = {m}")
print(f"smooth part c = {split.c} (= 2^7 * 3^4 = {2**7 * 3**4})")
print(f"rough part N' = {split.nprime}")

# batch mode: one remainder tree against P, then the ladder for every m
splits = trialdiv.batch_factor(ms, pp)
assert all(s.c * s.nprime == m for m, s in zip(ms, splits))
print(f"\nbatch_factor splits {len(ms)} moduli against P in one call")
for m, s in zip(ms, splits):
    print(f"  m ({m.bit_length()} bits): c = {s.c}, N' has {s.nprime.bit_length()} bits")

# the tree runs in exact decimal arithmetic (libmpdec's NTT products and
# Newton division); the leaves are cut into batches of about |P|/4 bits,
# and each batch builds its product tree once and keeps it for the
# walk down, so the live tree stays near depth * |P|/4 plus the leaves
many = [rng.getrandbits(128) | (1 << 127) | 1 for _ in range(400)]
rems = trialdiv.remainder_tree(pp.value, many)
assert rems == [pp.value % m for m in many]
batches = trialdiv._batches(many, trialdiv._batch_cap(pp.decimal_value))
depth = max(len(b) - 1 for b in batches).bit_length()
print(f"\n{len(many)} moduli of 128 bits: {len(batches)} batches, "
      f"tree depth {depth} (largest batch {max(map(len, batches))} leaves)")
