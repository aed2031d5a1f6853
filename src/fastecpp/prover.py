"""Downrun orchestration: parameter policy, the four-substep candidate
search, curve construction, and the recursive chain down to the
deterministic base case.

The downrun is one sequential pipeline per step: square roots of the
signed primes, Cornacchia over the pool, batched trial division, then
Miller-Rabin in ascending N'.  Every random choice is seeded from the
master seed, so a certificate depends only on (n, config).
"""

import hashlib
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import cert as cert_mod
from . import cm, curve, disc, trialdiv
from .errors import CompositeDetected, GiveUp
from .numth import (
    DETERMINISTIC_THRESHOLD,
    compositeness_witness,
    cornacchia,
    is_probable_prime,
    sqrt_mod,
)
from .parallel import derive_seed
from .stats import EULER_GAMMA


@dataclass
class ProveConfig:
    """Knobs for a proving run; defaults target desk scale.

    `workers` is accepted for compatibility and ignored: the prover is
    sequential.
    """

    workers: int = 1
    seed: int = 0
    b_bits: int = 20                 # smoothness bound 2**b_bits
    dmax_cap: int = 1 << 20          # cap on the discriminant bound
    hmax: int = 64                   # largest class number considered
    pmax: int | None = None          # None: max(29, bits // 1024)
    maxparts: int = 3                # signed primes per discriminant
    round_cap: int = 8
    cache_dir: str | None = None
    verbose: bool = False

    def validate(self) -> None:
        if not (10 <= self.b_bits <= 40):
            raise ValueError("b_bits out of range (10..40)")
        if self.dmax_cap < 16:
            raise ValueError("dmax_cap too small")
        if self.hmax < 1 or self.maxparts < 1 or self.round_cap < 1:
            raise ValueError("hmax, maxparts and round_cap must be >= 1")


_RANGE_WIDTH = 1 << 24   # primes per product range
_MR_ROUNDS = 64
_POINT_TRIES = 8         # random points per twist


@dataclass
class StepParams:
    """Resolved parameters for one downrun step."""

    bits: int
    dmax: int
    hmax: int
    pmax: int
    b: int
    maxparts: int
    k: int = 0


@dataclass
class Candidate:
    """A fully split curve cardinality: m = c * nprime."""

    entry: disc.Disc
    t: int
    v: int
    m: int
    c: int
    nprime: int


@dataclass
class StepStats:
    index: int
    n_bits: int
    rounds: int = 0
    pool_size: int = 0
    pell_hits: int = 0
    candidates: int = 0
    mr_tested: int = 0
    d: int = 0
    h: int = 0
    nprime_bits: int = 0
    expected: float = 0.0


@dataclass
class RunReport:
    """Aggregated counters and per-substep timing shares for one proof."""

    n: int = 0
    bits: int = 0
    seed: int = 0
    b_bits: int = 20
    wall_seconds: float = 0.0
    substep_seconds: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)

    def add_time(self, name: str, seconds: float) -> None:
        self.substep_seconds[name] = self.substep_seconds.get(name, 0.0) + seconds

    def bit_gains(self) -> list[int]:
        return [s.n_bits - s.nprime_bits for s in self.steps]

    def to_text(self) -> str:
        lines = [
            "fastecpp run report v1",
            f"n {self.n}",
            f"bits {self.bits}",
            f"digits {len(str(self.n))}",
            f"seed {self.seed}",
            f"b_bits {self.b_bits}",
            f"steps {len(self.steps)}",
            f"wall_seconds {self.wall_seconds:.3f}",
        ]
        gains = self.bit_gains()
        if gains:
            mean = sum(gains) / len(gains)
            lines.append(f"mean_bit_gain_per_step {mean:.2f}")
            lines.append(f"mean_bit_gain_over_log2B {mean / self.b_bits:.3f}")
        total = sum(self.substep_seconds.values()) or 1.0
        for name in sorted(self.substep_seconds):
            sec = self.substep_seconds[name]
            lines.append(f"substep {name} seconds={sec:.3f} percent={100 * sec / total:.1f}")
        for s in self.steps:
            lines.append(
                f"step index={s.index} bits={s.n_bits} rounds={s.rounds} "
                f"pool={s.pool_size} pell_hits={s.pell_hits} candidates={s.candidates} "
                f"mr_tested={s.mr_tested} D={s.d} h={s.h} nprime_bits={s.nprime_bits}"
            )
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write(self.to_text())


def dmax_formula(bits: int) -> int:
    """Smallest power of two at or above min(2^35, max(2^20, L^2 / 2))."""
    v = min(1 << 35, max(1 << 20, bits * bits // 2))
    return 1 << (v - 1).bit_length()


def select_params(n: int, w: int = 1, config: ProveConfig | None = None) -> StepParams:
    """Deterministic step parameters for modulus n.

    `w` (a worker count) is accepted for compatibility and ignored.
    """
    config = config or ProveConfig()
    bits = n.bit_length()
    dmax = min(dmax_formula(bits), config.dmax_cap)
    pmax = config.pmax if config.pmax is not None else max(29, bits >> 10)
    return StepParams(
        bits=bits,
        dmax=dmax,
        hmax=config.hmax,
        pmax=pmax,
        b=1 << config.b_bits,
        maxparts=config.maxparts,
    )


def _survivor_weight(d: int, bits: int, b: int) -> float:
    """Expected probable-prime survivors from one discriminant D.

    Pell solvability of the order of 1 / sqrt(|D|), two cardinalities,
    and a prime-after-smooth-part chance of e^gamma * log2(B) / L.
    """
    return 2.0 * (math.exp(EULER_GAMMA) * math.log2(b) / bits) / math.sqrt(-d)


def expected_candidates(entries: list[disc.Disc], bits: int, b: int) -> float:
    """Plug-in estimate of surviving probable primes from these discriminants."""
    return sum((_survivor_weight(e.d, bits, b) for e in entries), 0.0)


def choose_k(
    n: int,
    pool: list[tuple[int, disc.Disc]],
    rnd: int,
    b: int,
) -> tuple[int, bool]:
    """Minimal signed-prime budget k reaching the expected-survivor target.

    `pool` pairs each candidate discriminant with its rank: the highest
    position among its signed primes in the split-prime ordering.  The
    target is 3 expected survivors in round 1 (so there is some choice)
    and 1 in later rounds.  Returns (k, exhausted); when even the whole
    pool falls short, k covers all of it and exhausted is True.
    """
    bits = n.bit_length()
    threshold = 3.0 if rnd <= 1 else 1.0
    by_rank = sorted(pool, key=lambda re: re[0])
    acc = 0.0
    for rank, entry in by_rank:
        acc += _survivor_weight(entry.d, bits, b)
        if acc >= threshold:
            return rank + 1, False
    max_rank = by_rank[-1][0] if by_rank else 0
    return max_rank + 1, True


_CACHE_MAGIC = b"FECPP-CACHE 1"


def _cache_header(key: str, payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return b"%s %s %d %s\n" % (_CACHE_MAGIC, key.encode("ascii"), len(payload), digest)


def _cache_load(cache_dir: str | None, key: str) -> bytes | None:
    """The payload saved under `key`, or None when there is no cache
    directory, the file is missing or unreadable, or its header (magic,
    version, key, length, SHA-256) does not match the payload."""
    if cache_dir is None:
        return None
    try:
        with open(os.path.join(cache_dir, key + ".bin"), "rb") as f:
            blob = f.read()
    except OSError:
        return None
    header, sep, payload = blob.partition(b"\n")
    if header + sep != _cache_header(key, payload):
        return None
    return payload


def _cache_save(cache_dir: str | None, key: str, payload: bytes) -> None:
    """Write `<key>.bin` atomically: one ASCII header line, then the payload."""
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".bin")
    with open(path + ".tmp", "wb") as f:
        f.write(_cache_header(key, payload) + payload)
    os.replace(path + ".tmp", path)


class Environment:
    """Shared read-only tables: class numbers, prime products, poly memo.

    The only code that reads or writes `config.cache_dir`.  Every file is
    one checksummed envelope (`_cache_load` / `_cache_save`); a payload
    that fails its check is recomputed and saved again.
    """

    def __init__(self, config: ProveConfig):
        self.config = config
        self.table: disc.ClassNumberTable | None = None
        self.products: list[trialdiv.PrimeProduct] = []
        self.poly_memo: dict[int, cm.ClassPolynomial] = {}

    def ensure_table(self, dmax: int, workers: int = 1) -> disc.ClassNumberTable:
        """The class-number table down to -dmax; `workers` is ignored.

        Payload: h(-x) for x = 0..dmax as little-endian int32.
        """
        if self.table is None or self.table.dmax < dmax:
            key = f"class_numbers_{dmax}"
            raw = _cache_load(self.config.cache_dir, key)
            if raw is not None and len(raw) == 4 * (dmax + 1):
                self.table = disc.ClassNumberTable(dmax, np.frombuffer(raw, dtype="<i4"))
            else:
                self.table = disc.class_number_table(dmax)
                _cache_save(self.config.cache_dir, key, self.table._h.astype("<i4").tobytes())
        return self.table

    def ensure_products(self, b: int) -> list[trialdiv.PrimeProduct]:
        """Prime products over (1, b] in ranges of `_RANGE_WIDTH`.

        Payload: the product's little-endian magnitude bytes.
        """
        if not self.products or self.products[-1].b_hi != b:
            self.products = []
            for lo in range(1, b, _RANGE_WIDTH):
                hi = min(lo + _RANGE_WIDTH, b)
                key = f"prime_product_{lo}_{hi}"
                raw = _cache_load(self.config.cache_dir, key)
                if raw is not None:
                    value = int.from_bytes(raw, "little")
                    pp = trialdiv.PrimeProduct(lo, hi, value, value.bit_length(), empty=value == 1)
                else:
                    pp = trialdiv.prime_product(lo, hi)
                    raw = pp.value.to_bytes((pp.nbits + 7) // 8 or 1, "little")
                    _cache_save(self.config.cache_dir, key, raw)
                self.products.append(pp)
        return self.products

    def class_poly(self, d: int) -> cm.ClassPolynomial:
        """The class polynomial of D, memoised.

        Payload: h(D) + 1 ascending coefficients in fixed-width signed
        little-endian slots, with h(D) from the class-number table; a
        payload of another degree or not monic is rejected.
        """
        poly = self.poly_memo.get(d)
        if poly is None:
            key = f"class_poly_{-d}"
            raw = _cache_load(self.config.cache_dir, key) or b""
            w, rest = divmod(len(raw), self.table.class_number(d) + 1)
            if w and not rest and int.from_bytes(raw[-w:], "little") == 1:
                poly = cm.ClassPolynomial(d, [int.from_bytes(raw[i:i + w], "little", signed=True)
                                              for i in range(0, len(raw), w)])
            else:
                poly = cm.hilbert_class_poly(d)
                w = max((c.bit_length() + 8) // 8 for c in poly.coeffs)
                _cache_save(self.config.cache_dir, key,
                            b"".join(c.to_bytes(w, "little", signed=True) for c in poly.coeffs))
            self.poly_memo[d] = poly
        return poly


class _Progress:
    def __init__(self, enabled: bool, stream=None):
        self.enabled = enabled
        self.stream = stream or sys.stderr

    def line(self, text: str) -> None:
        if self.enabled:
            print(text, file=self.stream, flush=True)


def _timed(report: RunReport, name: str):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.seconds = time.perf_counter() - self.t0
            report.add_time(name, self.seconds)

    return _Timer()


_UNIVERSE_CAP = 4096


def run_step(
    n: int,
    params: StepParams,
    step_seed: int,
    config: ProveConfig,
    env: Environment,
    report: RunReport,
    progress: _Progress,
    step_index: int = 0,
) -> cert_mod.CertStep:
    """One downrun step: find (D, t, m = c * N'), then the curve and point.

    Substeps: split-prime square roots, Cornacchia over every reachable
    pool discriminant, batched trial division with the quartic-root floor,
    Miller-Rabin by ascending N' keeping the smallest survivor, then the
    class polynomial, a root mod N, and a point of order N'.  Rounds widen
    the signed-prime budget until the cap, then GiveUp.  The pool is
    enumerated once per universe size and reused by later rounds.
    """
    table = env.ensure_table(params.dmax)
    products = env.ensure_products(params.b)
    stats = StepStats(index=step_index, n_bits=params.bits)
    report.steps.append(stats)

    stream = disc.signed_prime_stream(n)
    universe: list[disc.SignedPrime] = []
    roots: dict[int, int] = {}
    tried: set[int] = set()
    budget_prev = 0
    entries: list[disc.Disc] = []   # the pool over the whole universe
    ranked: list[tuple[int, disc.Disc]] = []
    enumerated = 0                   # universe size `entries` was built for

    def ensure_universe(count: int) -> None:
        while len(universe) < min(count, _UNIVERSE_CAP):
            universe.append(next(stream))

    for rnd in range(1, config.round_cap + 1):
        stats.rounds = rnd
        # --- substep 1: choose k, compute square roots ------------------
        with _timed(report, "roots") as tm:
            ensure_universe(16)
            while True:
                if enumerated != len(universe):
                    enumerated = len(universe)
                    rank_of = {sp.qstar: i for i, sp in enumerate(universe)}
                    entries = disc.enumerate_pool_discs(
                        [sp.qstar for sp in universe],
                        table,
                        params.dmax,
                        params.hmax,
                        params.pmax,
                        params.maxparts,
                    )
                    ranked = [(max(rank_of[q] for q in e.parts), e) for e in entries]
                k, exhausted = choose_k(n, ranked, rnd, params.b)
                if not exhausted or len(universe) >= _UNIVERSE_CAP:
                    break
                ensure_universe(len(universe) * 2)
            params.k = k
            budget = min(max(k, 2 * budget_prev), len(universe))
            budget_prev = budget
            for sp in universe[:budget]:
                if sp.qstar not in roots:
                    r = sqrt_mod(sp.qstar, n)
                    if r is None:
                        raise CompositeDetected("sqrt-failed-for-residue", n=n)
                    roots[sp.qstar] = r
            reachable = [e for rank, e in ranked if rank < budget]
            stats.expected = expected_candidates(reachable, params.bits, params.b)
        progress.line(
            f"step {step_index} round {rnd} roots: k={k} budget={budget} "
            f"expected_nprime={stats.expected:.2f} time={tm.seconds:.3f}s"
        )

        # --- substep 2: Cornacchia over all new reachable discriminants --
        with _timed(report, "cornacchia") as tm:
            # `roots` holds exactly the signed primes of universe[:budget]
            pool = disc.build_pool(n, entries, roots)
            stats.pool_size = len(pool)
            fresh = [e for e in pool if e.d not in tried]
            tried.update(e.d for e in fresh)
            hits = []
            for e in fresh:
                tv = cornacchia(n, e.d, e.root)
                if tv is not None:
                    hits.append((e, tv))
            stats.pell_hits += len(hits)
        progress.line(
            f"step {step_index} round {rnd} cornacchia: discs={len(fresh)} "
            f"hits={len(hits)} time={tm.seconds:.3f}s"
        )

        # --- substep 3: batched trial division ---------------------------
        with _timed(report, "trialdiv") as tm:
            skeletons = []
            for e, (t, v) in hits:
                for m in {n + 1 - t, n + 1 + t}:
                    skeletons.append((e, t, v, m))
            splits = trialdiv.batch_factor([m for (_, _, _, m) in skeletons], products)
            candidates = []
            for (e, t, v, m), sp in zip(skeletons, splits):
                if sp.c >= 2 and cert_mod.exceeds_quartic_floor(sp.nprime, n):
                    candidates.append(Candidate(e, t, v, m, sp.c, sp.nprime))
            candidates.sort(key=lambda cand: cand.nprime)
            stats.candidates += len(candidates)
        progress.line(
            f"step {step_index} round {rnd} trialdiv: ms={len(skeletons)} "
            f"candidates={len(candidates)} time={tm.seconds:.3f}s"
        )

        # --- substep 4 + phase 2: Miller-Rabin, then curves ---------------
        mr_time = 0.0
        for idx, cand in enumerate(candidates):
            t0 = time.perf_counter()
            rng = random.Random(derive_seed(step_seed, "mr", rnd, idx))
            ok = is_probable_prime(cand.nprime, _MR_ROUNDS, rng)
            stats.mr_tested += 1
            mr_time += time.perf_counter() - t0
            if not ok:
                continue
            step = _phase2(n, cand, step_seed, (rnd, idx), config, env, report, progress, step_index)
            if step is not None:
                report.add_time("mr", mr_time)
                stats.d = cand.entry.d
                stats.h = cand.entry.h
                stats.nprime_bits = cand.nprime.bit_length()
                progress.line(
                    f"step {step_index} round {rnd} mr: tested={stats.mr_tested} "
                    f"retained={cand.nprime} time={mr_time:.3f}s"
                )
                return step
        report.add_time("mr", mr_time)
        progress.line(
            f"step {step_index} round {rnd} mr: tested={stats.mr_tested} "
            f"retained=none time={mr_time:.3f}s"
        )

    raise GiveUp(f"round cap {config.round_cap} reached for N with {params.bits} bits")


def _phase2(
    n: int,
    cand: Candidate,
    step_seed: int,
    tag: tuple,
    config: ProveConfig,
    env: Environment,
    report: RunReport,
    progress: _Progress,
    step_index: int,
) -> cert_mod.CertStep | None:
    """Class polynomial, root extraction and order-N' point for one candidate."""
    d = cand.entry.d
    with _timed(report, "classpoly"):
        poly = env.class_poly(d)
    with _timed(report, "rootmod") as tm_root:
        rng = random.Random(derive_seed(step_seed, "rootmod", *tag))
        j0 = cm.root_mod(poly, n, rng)
    with _timed(report, "point") as tm_point:
        twists = curve.curves_from_j(j0, n)
        rng = random.Random(derive_seed(step_seed, "point", *tag))
        found = curve.find_order_point(
            twists, cand.m, cand.c, cand.nprime, rng, tries=_POINT_TRIES
        )
    if found is None:
        progress.line(
            f"step {step_index} phase2: D={d} h={cand.entry.h} outcome=failure"
        )
        return None
    e, p, _q = found
    progress.line(
        f"step {step_index} phase2: D={d} h={cand.entry.h} root={tm_root.seconds:.3f}s "
        f"point={tm_point.seconds:.3f}s outcome=ok"
    )
    return cert_mod.CertStep(
        n=n, d=d, t=cand.t, m=cand.m, c=cand.c, nprime=cand.nprime,
        a=e.a, b=e.b, px=p[0], py=p[1],
    )


def prove_with_report(
    n: int,
    config: ProveConfig | None = None,
    env: Environment | None = None,
) -> tuple[cert_mod.Certificate, RunReport]:
    """Prove n prime; returns the certificate and the run report.

    Raises CompositeDetected only with a witness that n is composite: a
    small prime factor or a Miller-Rabin base (`witness`) from the test
    of n itself, or a proper factor of n found along the way
    (`1 < factor < n`, `n % factor == 0`).
    Any other failure of a step says nothing checkable about n (a wrong
    cached class polynomial, or a failure on an intermediate N'), so it
    raises GiveUp, as do resource limits hit first.
    """
    config = config or ProveConfig()
    config.validate()
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    env = env or Environment(config)
    report = RunReport(
        n=n, bits=n.bit_length(), seed=config.seed, b_bits=config.b_bits,
    )
    progress = _Progress(config.verbose)
    t_start = time.perf_counter()

    rng = random.Random(derive_seed(config.seed, "subject", n))
    witness = compositeness_witness(n, _MR_ROUNDS, rng)  # exact below the threshold
    if witness is not None:
        if n % witness == 0:
            raise CompositeDetected("small-prime-factor", factor=witness, n=n)
        raise CompositeDetected("mr-witness", n=n, witness=witness)

    steps: list[cert_mod.CertStep] = []
    current = n
    level = 0
    try:
        while current >= DETERMINISTIC_THRESHOLD:
            params = select_params(current, config=config)
            step_seed = derive_seed(config.seed, "step", level)
            step = run_step(
                current, params, step_seed, config, env, report, progress, level
            )
            steps.append(step)
            current = step.nprime
            level += 1
        if not is_probable_prime(current):  # deterministic below the threshold
            raise CompositeDetected("mr-witness", n=current)
    except CompositeDetected as exc:
        if exc.n == n and exc.factor is not None and 1 < exc.factor < n and n % exc.factor == 0:
            raise
        raise GiveUp(f"step {level} failed without a factor of n: {exc}") from exc
    certificate = cert_mod.Certificate(steps, current)
    report.wall_seconds = time.perf_counter() - t_start

    res = cert_mod.verify(certificate)
    if not res:
        raise RuntimeError(
            f"internal error: generated certificate failed verification "
            f"({res.reason} at step {res.step_index})"
        )
    return certificate, report


def prove(n: int, config: ProveConfig | None = None, env: Environment | None = None) -> cert_mod.Certificate:
    """Prove n prime and return the certificate chain."""
    certificate, _ = prove_with_report(n, config, env)
    return certificate


def first_probable_prime_after(x: int, rounds: int = 64, rng: random.Random | None = None) -> int:
    """Smallest probable prime strictly greater than x."""
    cand = x + 1
    if cand <= 2:
        return 2
    if cand % 2 == 0:
        cand += 1
    while not is_probable_prime(cand, rounds, rng):
        cand += 2
    return cand
