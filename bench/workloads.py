"""The benchmark's workloads: inputs, set-up, timed units and output gates.

A workload's timed operation is a pass over its units: the subjects of a
prove workload in turn, or the one sample call.  ``setup()`` builds the
tables a user pays for once per process.  ``new_pass()`` gives the state a
pass starts from.  ``op()`` runs one unit and returns its output, which
carries the unit's wall time.  ``check()`` runs the independent check of
one output and returns its wall time.  Every output is gated, and every
operation is counted in a Tally: a raise or a wrong output is a failure
and yields None.
"""

import contextlib
import dataclasses
import math
import random
import sys
import time

from fastecpp import cert, prover, stats, trialdiv

NAMES = ("prove-100", "prove-batch-60", "sample-10k")

B_BITS = 20
SAMPLE_BITS = 256
# Sample outputs are gated at Z standard errors of the conditioned count.
Z = 4.0
# Moduli of the sample re-split one by one against the prime product.
REFERENCE_SPLITS = 128
SUBSTEPS = ("roots", "cornacchia", "trialdiv", "mr", "classpoly", "rootmod", "point")

# Analytic bucket shares, from Euler's constant rather than from the program.
_INV_E_GAMMA = math.exp(-0.5772156649015329)
P_LE_1 = _INV_E_GAMMA
P_1_TO_2 = (2.0 - 2.0 * math.log(2.0)) * _INV_E_GAMMA
P_GT_E_BOUND = 1.0 - (math.e - 1.0) * _INV_E_GAMMA


class OutputError(Exception):
    """An operation returned a wrong result."""


class Tally:
    """Counts attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn):
        """Run one operation; any raise counts as a failure and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # the benchmark's boundary: report and go on
            self.failed += 1
            print(f"failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def _operation(tracer, kind: str, index: int):
    """The root span of one operation when tracing, else nothing."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.op = (kind, index)
    return tracer.span(f"bench.{kind}")


@dataclasses.dataclass
class Proof:
    n: int
    wall: float
    certificate: cert.Certificate
    text: str
    report: prover.RunReport


def _gate_certificate(n: int, certificate: cert.Certificate, text: str) -> None:
    if certificate.subject != n:
        raise OutputError(f"certificate proves {certificate.subject}, not {n}")
    parsed = cert.parse(text)
    if parsed != certificate or cert.serialize(parsed) != text:
        raise OutputError("certificate changed in a serialize/parse round trip")


def report_metrics(proofs: list[Proof]) -> dict[str, float]:
    """Counts and substep times from the program's own run reports."""
    steps = [s for p in proofs for s in p.report.steps]
    out = {
        "prover.report.rounds": sum(s.rounds for s in steps),
        "prover.report.pool_size": sum(s.pool_size for s in steps),
        "prover.report.pell_hits": sum(s.pell_hits for s in steps),
        "prover.report.candidates": sum(s.candidates for s in steps),
        "prover.report.mr_tested": sum(s.mr_tested for s in steps),
        "prover.report.h_sum": sum(s.h for s in steps),
    }
    for name in SUBSTEPS:
        out[f"prover.report.{name}_s"] = sum(p.report.substep_seconds.get(name, 0.0) for p in proofs)
    # Wall time of the prove calls that no substep covers (set-up, the
    # subject test, self-verify, the class-polynomial memo).
    out["prover.report.uncovered_s"] = sum(
        p.wall - sum(p.report.substep_seconds.values()) for p in proofs
    )
    out["cert.steps"] = sum(len(p.certificate.steps) for p in proofs)
    out["cert.bytes"] = sum(len(p.text) for p in proofs)
    return out


class ProveWorkload:
    """Prove fixed subjects in turn, then parse and verify each certificate."""

    main_kind = "prove"

    def __init__(self, subjects: list[int], seed: int):
        self.subjects = subjects
        self.units = len(subjects)
        self.config = prover.ProveConfig(workers=1, seed=seed)

    def describe(self) -> dict:
        return {
            "subject_digits": [len(str(n)) for n in self.subjects],
            "prove_config": dataclasses.asdict(self.config),
        }

    def setup(self) -> prover.Environment:
        env = prover.Environment(self.config)
        dmax = max(prover.select_params(n, 1, self.config).dmax for n in self.subjects)
        env.ensure_table(dmax, 1)
        env.ensure_products(1 << self.config.b_bits)
        return env

    def new_pass(self, env: prover.Environment) -> prover.Environment:
        # The tables are shared; the class-polynomial memo starts empty in
        # every pass, so subject i does the same work in every pass.
        pass_env = prover.Environment(self.config)
        pass_env.table, pass_env.products = env.table, env.products
        return pass_env

    def op(self, pass_env: prover.Environment, i: int, tally: Tally, tracer=None) -> Proof | None:
        """Prove subject i; run the subjects of a pass in order."""
        n = self.subjects[i]

        def prove_one() -> Proof:
            with _operation(tracer, "prove", i):
                t0 = time.perf_counter()
                certificate, report = prover.prove_with_report(n, self.config, pass_env)
                wall = time.perf_counter() - t0
            text = cert.serialize(certificate)
            _gate_certificate(n, certificate, text)
            return Proof(n, wall, certificate, text, report)

        return tally.run(f"prove {n}", prove_one)

    def check(self, env, proof: Proof, tally: Tally, tracer=None) -> float | None:
        def verify_one() -> float:
            with _operation(tracer, "verify", self.subjects.index(proof.n)):
                t0 = time.perf_counter()
                result = cert.verify(cert.parse(proof.text))
                dt = time.perf_counter() - t0
            if not result:
                raise OutputError(f"verifier rejected: {result.reason} at step {result.step_index}")
            return dt

        return tally.run(f"verify {proof.n}", verify_one)

    def layer_metrics(self, proofs: list[Proof]) -> dict[str, float]:
        return report_metrics(proofs)


@contextlib.contextmanager
def _capture(module, name: str, calls: list):
    """Record (args, result) of every call to module.name while active."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    setattr(module, name, recording)
    try:
        yield
    finally:
        setattr(module, name, original)


@dataclasses.dataclass
class Sample:
    wall: float
    report: stats.SampleReport
    calls: list  # (args, result) of each trialdiv.batch_factor call


def _gate_sample(report: stats.SampleReport, n_samples: int) -> None:
    k = report.n_prime_conditioned
    if report.n_total != n_samples or k < 1:
        raise OutputError(f"sample of {report.n_total} with {k} conditioned, asked {n_samples}")
    p1, p2, _, p_gt_e = report.bucket_probs
    for label, emp, ana in (("P(alpha<=1)", p1, P_LE_1), ("P(1<alpha<=2)", p2, P_1_TO_2)):
        tol = Z * math.sqrt(ana * (1.0 - ana) / k)
        if abs(emp - ana) > tol:
            raise OutputError(f"{label} = {emp:.4f}, analytic {ana:.4f} +/- {tol:.4f} at k={k}")
    tol = Z * math.sqrt(P_GT_E_BOUND * (1.0 - P_GT_E_BOUND) / k)
    if p_gt_e > P_GT_E_BOUND + tol:
        raise OutputError(f"P(alpha>e) = {p_gt_e:.4f} above the bound {P_GT_E_BOUND:.4f} + {tol:.4f}")


class SampleWorkload:
    """One stats.sample call; the check re-tests its trial division."""

    main_kind = "sample"
    units = 1

    def __init__(self, n_samples: int, seed: int):
        self.n_samples = n_samples
        self.seed = seed

    def describe(self) -> dict:
        return {"bits": SAMPLE_BITS, "b": 1 << B_BITS, "n_samples": self.n_samples,
                "seed": self.seed, "workers": 1}

    def setup(self) -> list[trialdiv.PrimeProduct]:
        return [trialdiv.prime_product(1, 1 << B_BITS)]

    def new_pass(self, products: list[trialdiv.PrimeProduct]) -> list[trialdiv.PrimeProduct]:
        return products

    def op(self, products, i: int, tally: Tally, tracer=None) -> Sample | None:
        def sample_once() -> Sample:
            calls: list = []
            with _capture(trialdiv, "batch_factor", calls), _operation(tracer, "sample", i):
                t0 = time.perf_counter()
                report = stats.sample(SAMPLE_BITS, 1 << B_BITS, self.n_samples, self.seed,
                                      workers=1, env_products=products)
                wall = time.perf_counter() - t0
            _gate_sample(report, self.n_samples)
            return Sample(wall, report, calls)

        return tally.run("sample", sample_once)

    def check(self, products, sample: Sample, tally: Tally, tracer=None) -> float | None:
        """Every split multiplies back to its modulus; a seeded subset of the
        moduli is re-split one by one against P mod m computed directly."""
        p = products[0].value

        def check_splits() -> float:
            with _operation(tracer, "check", 0):
                t0 = time.perf_counter()
                if len(sample.calls) != 1:
                    raise OutputError(f"expected one batch_factor call, saw {len(sample.calls)}")
                (ms, *_), splits = sample.calls[0]
                if len(ms) != self.n_samples or len(splits) != len(ms):
                    raise OutputError("batch_factor output does not match its input")
                for m, sp in zip(ms, splits):
                    if sp.m != m or sp.c < 1 or sp.c * sp.nprime != m:
                        raise OutputError(f"bad split of {m}")
                rng = random.Random(self.seed)
                for i in rng.sample(range(len(ms)), min(REFERENCE_SPLITS, len(ms))):
                    ref = trialdiv.smooth_split(ms[i], p % ms[i], p)
                    if (ref.c, ref.nprime) != (splits[i].c, splits[i].nprime):
                        raise OutputError(f"split of {ms[i]} differs from the reference")
                return time.perf_counter() - t0

        return tally.run("check sample splits", check_splits)

    def layer_metrics(self, samples: list[Sample]) -> dict[str, float]:
        return report_metrics([])


def make(name: str, seed: int, tiny: bool = False):
    """The workload `name`; `tiny` shrinks its inputs for a smoke run.

    The prove subjects are fixed, and the seed drives the prover's own
    random choices: the cost of a subject varies several-fold between
    subjects of one size, which would drown any regression bound.
    """
    rng = random.Random(0)
    if name == "prove-100":
        n = prover.first_probable_prime_after(10 ** (30 if tiny else 100), rng=rng)
        return ProveWorkload([n], seed)
    if name == "prove-batch-60":
        digits, count = (25, 3) if tiny else (60, 6)
        subjects = [
            prover.first_probable_prime_after(rng.randrange(10 ** (digits - 1), 10 ** digits), rng=rng)
            for _ in range(count)
        ]
        return ProveWorkload(subjects, seed)
    if name == "sample-10k":
        return SampleWorkload(500 if tiny else 10_000, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
