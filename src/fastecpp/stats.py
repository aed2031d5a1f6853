"""Size distribution of smooth cofactors, analytic and empirical.

For an L-bit number conditioned to be (B-smooth) * (prime), the smooth
exponent alpha = log(smooth part) / log(B) has density 1/e^gamma on
(0, 1] and (1 - ln alpha)/e^gamma on (1, 2]; past 2 only a lower bound
on the cumulative mass is available.  The Monte Carlo sampler reproduces
the buckets and the acceptance rate e^gamma * log2(B) / L.
"""

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import trialdiv
from .numth import derive_seed, is_probable_prime, mr_rounds

# Euler-Mascheroni constant to 50 decimal digits.
EULER_GAMMA_STR = "0.57721566490153286060651209008240243104215933593992"
EULER_GAMMA = float(EULER_GAMMA_STR)

_E_GAMMA = math.exp(EULER_GAMMA)


def density(alpha: float) -> float:
    """Density of the smooth exponent at alpha, for 0 < alpha <= 2."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha <= 1:
        return 1.0 / _E_GAMMA
    if alpha <= 2:
        return (1.0 - math.log(alpha)) / _E_GAMMA
    raise ValueError("unsupported: only a lower bound exists past alpha = 2, "
                     "see cumulative_lower_bound")


def bucket_probabilities() -> tuple[float, float, float, float]:
    """(P(a<=1), P(1<a<=2), tail mass past 2, bound on P(a > e)).

    The first two are exact integrals of the density (about 56% and 34%);
    the third is their complement (the 'only 10%' mass); the last is the
    bound 1 - (e - 1)/e^gamma <= 3.6%.
    """
    p1 = 1.0 / _E_GAMMA
    p2 = (2.0 - 2.0 * math.log(2.0)) / _E_GAMMA
    p_tail = 1.0 - p1 - p2
    p_gt_e = 1.0 - (math.e - 1.0) / _E_GAMMA
    return p1, p2, p_tail, p_gt_e


def cumulative_lower_bound(alpha: float) -> float:
    """Lower BOUND on P(exponent <= alpha) for alpha >= 2.

    (2a - 1 - a ln a)/e^gamma, monotone up to its maximum (e-1)/e^gamma
    at a = e; past e the best available bound is that maximum.  This is a
    bound, not an estimate: numbers with several large prime factors are
    subtracted more than once in the derivation.
    """
    if alpha < 2:
        raise ValueError("exact values exist below alpha = 2; use density")
    a = min(alpha, math.e)
    return (2.0 * a - 1.0 - a * math.log(a)) / _E_GAMMA


def expected_acceptance(bits: int, b: int) -> float:
    """Asymptotic chance e^gamma * log2(B) / L that an L-bit integer is
    (B-smooth) * (prime)."""
    return _E_GAMMA * math.log2(b) / bits


def max_statistics_gain(p_per_candidate: float, n_candidates: float) -> float:
    """Probability that the best of n candidates clears a threshold.

    1 - (1 - p)^n for per-candidate probability p; amplification by the
    maximum statistic over an expected n candidates.
    """
    if not 0.0 <= p_per_candidate <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n_candidates < 0:
        raise ValueError("n must be >= 0")
    return 1.0 - (1.0 - p_per_candidate) ** n_candidates


@dataclass
class SampleReport:
    """Monte Carlo summary for the smooth-exponent experiment."""

    bits: int
    b: int
    n_total: int
    n_prime_conditioned: int
    bucket_probs: tuple[float, float, float, float]
    acceptance_rate: float
    expected_acceptance: float
    histogram_edges: np.ndarray = field(repr=False, default=None)
    histogram_counts: np.ndarray = field(repr=False, default=None)

    def to_text(self) -> str:
        p1, p2, p3, pe = self.bucket_probs
        a1, a2, a3, ae = bucket_probabilities()
        rows = [
            ("P(alpha <= 1)", p1, a1, "exact"),
            ("P(1 < alpha <= 2)", p2, a2, "exact"),
            ("P(alpha > 2)", p3, a3, "complement"),
            ("P(alpha > e)", pe, ae, "BOUND"),
            ("acceptance rate", self.acceptance_rate, self.expected_acceptance, "asymptotic"),
        ]
        width = max(len(r[0]) for r in rows)
        lines = [
            f"L={self.bits} bits  B=2^{int(math.log2(self.b))}  "
            f"samples={self.n_total}  conditioned={self.n_prime_conditioned}",
            f"{'quantity'.ljust(width)}  empirical  analytic  kind",
        ]
        for name, emp, ana, kind in rows:
            lines.append(f"{name.ljust(width)}  {emp:9.4f}  {ana:8.4f}  {kind}")
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        p1, p2, p3, pe = self.bucket_probs
        kv = {
            "bits": self.bits,
            "b": self.b,
            "n_total": self.n_total,
            "n_prime_conditioned": self.n_prime_conditioned,
            "p_le_1": f"{p1:.6f}",
            "p_1_to_2": f"{p2:.6f}",
            "p_gt_2": f"{p3:.6f}",
            "p_gt_e": f"{pe:.6f}",
            "acceptance_rate": f"{self.acceptance_rate:.6f}",
            "expected_acceptance": f"{self.expected_acceptance:.6f}",
        }
        return "\n".join(f"{k} {v}" for k, v in kv.items()) + "\n"

    def histogram_csv(self) -> str:
        lines = ["alpha_lo,alpha_hi,count"]
        for lo, hi, cnt in zip(
            self.histogram_edges[:-1], self.histogram_edges[1:], self.histogram_counts
        ):
            lines.append(f"{lo:.2f},{hi:.2f},{int(cnt)}")
        return "\n".join(lines) + "\n"


_CHUNK = 4096


def sample(
    bits: int,
    b: int,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
    env_products: list[trialdiv.PrimeProduct] | None = None,
) -> SampleReport:
    """Draw uniform L-bit integers, split off the B-smooth part, and keep
    those whose quotient is a probable prime.

    The draw is over all L-bit integers (the model the analytic constants
    describe); restricting to odd samples would push the small-exponent
    bucket up by a visible finite-size bias.  Draws are seeded per
    fixed-size chunk and each Miller-Rabin test per sample index.
    `workers` is accepted for compatibility and ignored.
    B lies in [2^10, 2^24] (`trialdiv.MAX_B_BITS`), as for `prove`;
    `env_products`, when given, is [the product of the primes in (1, B]],
    as `prover.Environment.ensure_products` returns it.

    The Miller-Rabin round count depends on the bit length k of the
    cofactor N' (`numth.mr_rounds`), and the chance that any one sample
    keeps a composite N' stays below 4^-16, the worst-case bound of 16
    rounds:

    - N' is odd (B >= 2^10 takes out the 2s).  For a k-bit x, the draw m
      is uniform over 2^(L-1) integers and at most 2^(L-1)/x + 1 of them
      are multiples of x, so P(N' = x) <= 1/x + 2^(1-L) <= 2^(2-k).
    - There are 2^(k-2) odd k-bit integers, so the chance that N' is a
      k-bit composite passing t random rounds is at most the chance that
      a uniform odd k-bit integer is composite and passes t rounds.  That
      is at most p_{k,t}, the chance that it is composite given that it
      passes (k >= 21 and 3 <= t <= k/9 for the bound).  Bases drawn from
      [2, n-2] rather than [1, n-1] only lower each pass rate, since 1
      and n-1 never witness.
    - Each k <= L with a bound-derived t adds at most 2^-33 / L, so
      at most 2^-33 together.  The sizes that get 17 rounds add at most
      4^-17 together (Rabin's worst case), and cofactors below 2^64 take
      the exact base set and add nothing.  The total, 3 * 2^-34, is
      below 4^-16 = 2^-32.

    At L = 256 this gives 4 rounds for cofactors of 223-256 bits, 5 for
    181-222, 6 for 153-180, and more below, up to 17 below 99 bits.
    Each index keeps its RNG, so a composite draws the same bases as
    with 16 rounds, and the kept set only differs from a 16-round run if
    a composite passes all t of its rounds.
    """
    if b < 1 << 10:
        raise ValueError("b must be at least 2**10")
    if b > 1 << trialdiv.MAX_B_BITS:
        raise ValueError(f"b must be at most 2**{trialdiv.MAX_B_BITS}")
    if bits < 64:
        raise ValueError("bits must be at least 64")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    [product] = env_products or [trialdiv.prime_product(1, b)]
    if product.b_hi != b:
        raise ValueError("env_products must end at b")

    ms: list[int] = []
    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
    for ci in range(n_chunks):
        rng = random.Random(derive_seed(seed, "sample-chunk", ci))
        count = min(_CHUNK, n_samples - ci * _CHUNK)
        for _ in range(count):
            ms.append(rng.getrandbits(bits - 1) | (1 << (bits - 1)))

    splits = trialdiv.batch_factor(ms, product)
    rounds = [mr_rounds(k, bits) for k in range(bits + 1)]
    kept_alphas = []
    for i, sp in enumerate(splits):
        if sp.nprime < 2:
            continue
        rng = random.Random(derive_seed(seed, "mr", i))
        if is_probable_prime(sp.nprime, rounds[sp.nprime.bit_length()], rng):
            kept_alphas.append(math.log(sp.c) / math.log(b) if sp.c > 1 else 0.0)
    alphas = np.array(kept_alphas)

    kept = len(alphas)
    p1 = float(np.count_nonzero(alphas <= 1.0)) / kept if kept else 0.0
    p2 = float(np.count_nonzero((alphas > 1.0) & (alphas <= 2.0))) / kept if kept else 0.0
    p3 = float(np.count_nonzero(alphas > 2.0)) / kept if kept else 0.0
    pe = float(np.count_nonzero(alphas > math.e)) / kept if kept else 0.0
    top = max(3.0, float(alphas.max()) + 0.1) if kept else 3.0
    edges = np.arange(0.0, top + 0.1, 0.1)
    counts, edges = np.histogram(alphas, bins=edges)
    return SampleReport(
        bits=bits,
        b=b,
        n_total=n_samples,
        n_prime_conditioned=kept,
        bucket_probs=(p1, p2, p3, pe),
        acceptance_rate=kept / n_samples,
        expected_acceptance=expected_acceptance(bits, b),
        histogram_edges=edges,
        histogram_counts=counts,
    )
