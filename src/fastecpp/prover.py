"""Downrun orchestration: parameter policy, the four-substep candidate
search, curve construction, and the recursive chain down to the
deterministic base case.

The downrun is one sequential pipeline per step: square roots of the
signed primes, Cornacchia over the pool, batched trial division, then
Miller-Rabin in ascending N'.  Every random choice is seeded from the
master seed, so a certificate depends only on (n, config).
"""

import contextlib
import hashlib
import itertools
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import cert as cert_mod
from . import cm, curve, disc, trialdiv
from .errors import CompositeDetected, GiveUp
from .numth import (
    DETERMINISTIC_THRESHOLD,
    compositeness_witness,
    cornacchia,
    derive_seed,
    is_probable_prime,
    mr_rounds,
    sqrt_mod,
)
from .stats import expected_acceptance


@dataclass
class ProveConfig:
    """Settings of a proving run: the seed, the cache directory and the
    progress lines.  The smoothness bound B = 2^b_bits is fixed, as is
    the shape of the discriminant search (`_DMAX`, `_HMAX`, `_PMAX`,
    `_MAXPARTS`).

    `workers` is accepted for compatibility and ignored: the prover is
    sequential.
    """

    b_bits: ClassVar[int] = 20

    workers: int = 1
    seed: int = 0
    cache_dir: str | None = None
    verbose: bool = False


# The shape of every step's discriminant search, fixed at desk scale:
# |D| <= 2^20, h(D) <= 64, every prime factor of h(D) at most 29, and at
# most 3 signed primes per D.  FastECPP (Morain 2007) lets these bounds grow
# with L; here the class-number table down to -2^20 builds in 0.22-0.29 s,
# and the 12 class polynomials of the first prime after 10^200 (h <= 60)
# take 0.13-0.15 s together (2-core Xeon, CPython 3.11).
_DMAX = 1 << 20
_HMAX = 64
_PMAX = 29
_MAXPARTS = 3

_SUBJECT_ROUNDS = 64     # Miller-Rabin rounds for the subject n and its search


@dataclass
class StepParams:
    """Parameters of one downrun step: the modulus size, the bound on
    |D| and the smoothness bound B."""

    bits: int
    dmax: int
    b: int


@dataclass
class Candidate:
    """A fully split curve cardinality: m = c * nprime."""

    entry: disc.Disc
    t: int
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


@dataclass
class RunReport:
    """The one recorder of a proof: step counters, substep times, progress.

    `substep_seconds` sums the `timed` blocks by name: `pool` (signed
    primes, pool enumeration, the choice of k), `roots`,
    `cornacchia`, `trialdiv`, `mr`, `classpoly`, `rootmod`, `point`, and
    `setup` (tables), `subject` (the test of n) and `verify` (the
    self-check).  No two blocks overlap, and together they cover nearly
    all of `wall_seconds`.
    """

    n: int = 0
    bits: int = 0
    seed: int = 0
    b_bits: int = 20
    wall_seconds: float = 0.0
    substep_seconds: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    verbose: bool = False
    _shown: dict = field(default_factory=dict, repr=False)  # seconds already printed

    @contextlib.contextmanager
    def timed(self, name: str):
        """Add the block's time to substep `name`, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = self.substep_seconds
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0

    def progress(self, head: str, *substeps: str, **counts) -> None:
        """When verbose, print `head: key=value ...`: the counts, then for
        each named substep the time it gathered since its last line."""
        if not self.verbose:
            return
        fields = [f"{key}={value}" for key, value in counts.items()]
        for name in substeps:
            total = self.substep_seconds.get(name, 0.0)
            fields.append(f"{name}={total - self._shown.get(name, 0.0):.3f}s")
            self._shown[name] = total
        print(f"{head}: {' '.join(fields)}", file=sys.stderr, flush=True)

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


def select_params(n: int, w: int = 1, config: ProveConfig | None = None) -> StepParams:
    """Deterministic step parameters for modulus n.

    `w` (a worker count) is accepted for compatibility and ignored.
    """
    config = config or ProveConfig()
    return StepParams(bits=n.bit_length(), dmax=_DMAX, b=1 << config.b_bits)


def _survivor_weight(d: int, bits: int, b: int) -> float:
    """Expected probable-prime survivors from one discriminant D.

    Pell solvability of the order of 1 / sqrt(|D|), two cardinalities,
    and the prime-after-smooth-part chance `stats.expected_acceptance`.
    """
    return 2.0 * expected_acceptance(bits, b) / math.sqrt(-d)


def expected_candidates(entries: list[disc.Disc], bits: int, b: int) -> float:
    """Plug-in estimate of surviving probable primes from these discriminants."""
    return sum((_survivor_weight(e.d, bits, b) for e in entries), 0.0)


def choose_k(n: int, pool: list[disc.Disc], b: int) -> int | None:
    """Minimal signed-prime budget k reaching 3 expected survivors.

    `pool` holds the candidate discriminants, each with its `rank`.  The
    target of 3 leaves some choice among the survivors.  Returns None
    when even the whole pool falls short.
    """
    bits = n.bit_length()
    acc = 0.0
    for entry in sorted(pool, key=lambda e: e.rank):
        acc += _survivor_weight(entry.d, bits, b)
        if acc >= 3.0:
            return entry.rank + 1
    return None


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
    """Shared read-only tables: class numbers, the prime product, poly memo.

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
        """The product of the primes in (1, b], as the one-element list `products`.

        Payload: the product's little-endian magnitude bytes.
        """
        if not self.products or self.products[0].b_hi != b:
            key = f"prime_product_1_{b}"
            raw = _cache_load(self.config.cache_dir, key)
            if raw is not None:
                value = int.from_bytes(raw, "little")
                pp = trialdiv.PrimeProduct(1, b, value, value.bit_length())
            else:
                pp = trialdiv.prime_product(1, b)
                raw = pp.value.to_bytes((pp.nbits + 7) // 8 or 1, "little")
                _cache_save(self.config.cache_dir, key, raw)
            self.products = [pp]
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


# Signed primes among which round 1 looks for k.
# With each signed prime counted once, the 3-survivor target is out of reach
# at 665 bits, so without this bound the first prime after 10^200 grew round
# 1's universe to 4096 at most steps and took 30 s against 8-11 s (2-core
# machine, CPython 3.11); at 128 it stays at par.  Later rounds, which run
# only after a round found no step, are not bound by it.
_FIRST_ROUND_CAP = 128

# Most signed primes a round's budget reaches; the step gives up after it.
_UNIVERSE_CAP = 4096


def run_step(
    n: int,
    params: StepParams,
    step_seed: int,
    env: Environment,
    report: RunReport,
    step_index: int = 0,
) -> cert_mod.CertStep:
    """One downrun step: find (D, t, m = c * N'), then the curve and point.

    Substeps: the discriminant pool (|D| <= `params.dmax`, h(D) <=
    `_HMAX` with prime factors <= `_PMAX`, at most `_MAXPARTS` signed
    primes) and the signed-prime budget k, split-prime square roots,
    Cornacchia over the pool discriminants new to the round, batched
    trial division with the quartic-root floor, Miller-Rabin by ascending
    N' keeping the smallest survivor, then the class polynomial, a root
    mod N, and a point of order N'.

    The budget rule: k is chosen once per step, as the fewest signed
    primes whose discriminants reach 3 expected survivors (`choose_k`)
    among the first `_FIRST_ROUND_CAP`; if they fall short, k is all of
    them, so that round 2 brings new signed primes.  Round r uses the
    first min(k * 2^(r-1), `_UNIVERSE_CAP`) signed primes, growing the
    universe to them, and tries the discriminants reachable with them but
    not with the previous round's.  The step gives up after the round at
    `_UNIVERSE_CAP` = 4096, or earlier, before a round whose first new
    signed prime has |q*| > dmax: the stream yields them by non-decreasing
    |q*|, so no later round can add a discriminant.  Each substep is timed
    under its name in `report` (the tables under `setup`), and each round
    prints one progress line per substep but `pool`, whose time the
    `roots` line shows.

    Each N' gets the `mr_rounds` count for its size, not the subject's
    64, drawn from the same RNG, so the kept candidate only differs when a
    composite passes all of its rounds; that N' then fails as the next
    modulus or in the final deterministic test: GiveUp, no certificate.
    """
    with report.timed("setup"):
        table = env.ensure_table(params.dmax)
        [product] = env.ensure_products(params.b)
    stats = StepStats(index=step_index, n_bits=params.bits)
    report.steps.append(stats)

    stream = disc.signed_prime_stream(n)
    universe: list[int] = []
    roots: dict[int, int] = {}
    entries: list[disc.Disc] = []   # the universe's pool
    budget = rnd = 0
    expected = 0.0                  # expected survivors of the discriminants tried so far

    def grow_universe(count: int) -> None:
        """Extend the universe to `count` signed primes and enumerate its pool."""
        nonlocal entries
        if len(universe) >= count:
            return
        universe.extend(itertools.islice(stream, count - len(universe)))
        entries = disc.enumerate_pool_discs(universe, table, params.dmax, _HMAX, _PMAX, _MAXPARTS)

    with report.timed("pool"):
        grow_universe(_FIRST_ROUND_CAP)
        k = choose_k(n, entries, params.b) or len(universe)

    while budget < _UNIVERSE_CAP:
        # --- substep 1: the pool and square roots -------------------------
        with report.timed("pool"):
            start, end = budget, min(k << rnd, _UNIVERSE_CAP)
            grow_universe(end)
        if abs(universe[start]) > params.dmax:
            break  # every D from here on has |D| > dmax
        budget = end
        rnd += 1
        stats.rounds = rnd
        with report.timed("roots"):
            for qs in universe[start:budget]:
                r = sqrt_mod(qs, n)
                if r is None:
                    raise CompositeDetected("sqrt-failed-for-residue", n=n)
                roots[qs] = r
            # the earlier rounds tried every discriminant of rank < start
            fresh = [e for e in entries if start <= e.rank < budget]
            stats.pool_size += len(fresh)
            expected += expected_candidates(fresh, params.bits, params.b)
        head = f"step {step_index} round {rnd}"
        report.progress(f"{head} roots", "pool", "roots", k=k, budget=budget,
                        expected_nprime=f"{expected:.2f}")

        # --- substep 2: Cornacchia over the round's new discriminants ----
        with report.timed("cornacchia"):
            fresh = disc.build_pool(n, fresh, roots)
            hits = []
            for e in fresh:
                tv = cornacchia(n, e.d, e.root)
                if tv is not None:
                    hits.append((e, tv))
            stats.pell_hits += len(hits)
        report.progress(f"{head} cornacchia", "cornacchia", discs=len(fresh), hits=len(hits))

        # --- substep 3: batched trial division ---------------------------
        with report.timed("trialdiv"):
            skeletons = []
            for e, (t, _v) in hits:
                for m in {n + 1 - t, n + 1 + t}:
                    skeletons.append((e, t, m))
            splits = trialdiv.batch_factor([m for (_, _, m) in skeletons], product)
            candidates = []
            for (e, t, m), sp in zip(skeletons, splits):
                if sp.c >= 2 and cert_mod.exceeds_quartic_floor(sp.nprime, n):
                    candidates.append(Candidate(e, t, m, sp.c, sp.nprime))
            candidates.sort(key=lambda cand: cand.nprime)
            stats.candidates += len(candidates)
        report.progress(f"{head} trialdiv", "trialdiv", ms=len(skeletons),
                        candidates=len(candidates))

        # --- substep 4 + phase 2: Miller-Rabin, then curves ---------------
        step = None
        for idx, cand in enumerate(candidates):
            with report.timed("mr"):
                rng = random.Random(derive_seed(step_seed, "mr", rnd, idx))
                rounds = mr_rounds(cand.nprime.bit_length(), params.bits)
                ok = is_probable_prime(cand.nprime, rounds, rng)
            stats.mr_tested += 1
            if ok:
                step = _phase2(n, cand, step_seed, (rnd, idx), env, report, step_index)
            if step is not None:
                stats.d, stats.h = cand.entry.d, cand.entry.h
                stats.nprime_bits = cand.nprime.bit_length()
                break
        report.progress(f"{head} mr", "mr", tested=stats.mr_tested,
                        retained=step.nprime if step else "none")
        if step is not None:
            return step

    raise GiveUp(f"no step after the round at {budget} signed primes "
                 f"for N with {params.bits} bits")


def _phase2(
    n: int,
    cand: Candidate,
    step_seed: int,
    tag: tuple,
    env: Environment,
    report: RunReport,
    step_index: int,
) -> cert_mod.CertStep | None:
    """Class polynomial, root extraction and order-N' point for one candidate."""
    d = cand.entry.d
    with report.timed("classpoly"):
        poly = env.class_poly(d)
    with report.timed("rootmod"):
        rng = random.Random(derive_seed(step_seed, "rootmod", *tag))
        j0 = cm.root_mod(poly, n, rng)
    with report.timed("point"):
        twists = curve.curves_from_j(j0, n)
        rng = random.Random(derive_seed(step_seed, "point", *tag))
        found = curve.find_order_point(twists, cand.m, cand.c, cand.nprime, rng)
    report.progress(f"step {step_index} phase2", "rootmod", "point", D=d, h=cand.entry.h,
                    outcome="failure" if found is None else "ok")
    if found is None:
        return None
    e, p, _q = found
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
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    env = env or Environment(config)
    report = RunReport(
        n=n, bits=n.bit_length(), seed=config.seed, b_bits=config.b_bits,
        verbose=config.verbose,
    )
    t_start = time.perf_counter()

    with report.timed("subject"):
        rng = random.Random(derive_seed(config.seed, "subject", n))
        witness = compositeness_witness(n, _SUBJECT_ROUNDS, rng)  # exact below the threshold
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
            step = run_step(current, params, step_seed, env, report, level)
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
    with report.timed("verify"):
        res = cert_mod.verify(certificate)
    report.wall_seconds = time.perf_counter() - t_start
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


def first_probable_prime_after(x: int, rng: random.Random | None = None) -> int:
    """Smallest probable prime strictly greater than x."""
    cand = x + 1
    if cand <= 2:
        return 2
    if cand % 2 == 0:
        cand += 1
    while not is_probable_prime(cand, _SUBJECT_ROUNDS, rng):
        cand += 2
    return cand
