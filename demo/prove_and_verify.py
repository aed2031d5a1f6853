"""Prove a 31-digit prime, inspect the certificate chain, tamper with it.

Run: python3 demo/prove_and_verify.py
"""

import time

from fastecpp import ProveConfig, parse, serialize, verify
from fastecpp.cert import Certificate, CertStep
from fastecpp.prover import first_probable_prime_after, prove_with_report

n = first_probable_prime_after(10**30)
print(f"subject: {n} ({n.bit_length()} bits)")

config = ProveConfig(seed=0)
t0 = time.time()
certificate, report = prove_with_report(n, config)
print(f"proved in {time.time() - t0:.2f}s, {len(certificate.steps)} steps\n")

for i, s in enumerate(certificate.steps):
    gain = s.n.bit_length() - s.nprime.bit_length()
    print(f"step {i}: {s.n.bit_length()} bits, D={s.d}, "
          f"cofactor c={s.c}, next {s.nprime.bit_length()} bits (gain {gain})")
print(f"terminal: {certificate.terminal} (below 2^64, deterministic test)\n")

text = serialize(certificate)
print(text)

result = verify(certificate)
print("verifier says:", "ACCEPT" if result.accepted else f"REJECT ({result.reason})")

# round-trip through the canonical text form
assert serialize(parse(text)) == text

# now flip one coordinate of the first step's point
s = certificate.steps[0]
forged = CertStep(s.n, s.d, s.t, s.m, s.c, s.nprime, s.a, s.b, s.px,
                  (s.py + 1) % s.n)
bad = Certificate([forged] + certificate.steps[1:], certificate.terminal)
result = verify(bad)
print(f"after tampering with py: REJECT at step {result.step_index} "
      f"({result.reason})")
