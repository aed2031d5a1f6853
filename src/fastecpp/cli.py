"""Command-line interface: prove, verify, stats, bench.

Exit codes: 0 success, 1 mathematical reject (composite input with a
witness, or certificate rejection), 2 I/O or parse errors, 3 give-up.
"""

import argparse
import math
import re
import sys
import time

from . import stats as stats_mod
from .cert import serialize, verify, verify_file
from .errors import CertificateFormatError, CompositeDetected, GiveUp
from .numth import is_strong_witness
from .prover import Environment, ProveConfig, first_probable_prime_after, prove_with_report

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_IO = 2
EXIT_GIVEUP = 3

_EXPR_RE = re.compile(r"^[0-9+\-*() ^]+$")


def parse_number(text: str) -> int:
    """Decimal value or arithmetic expression such as 10^20+39.

    The prefix form first-prime-after:EXPR searches for the next probable
    prime above the value.
    """
    text = text.strip()
    search = False
    if text.startswith("first-prime-after:"):
        search = True
        text = text[len("first-prime-after:"):].strip()
    if not _EXPR_RE.match(text):
        raise ValueError(f"cannot parse number expression: {text!r}")
    value = eval(text.replace("^", "**"), {"__builtins__": {}}, {})  # noqa: S307
    if not isinstance(value, int):
        raise ValueError("expression did not evaluate to an integer")
    if search:
        value = first_probable_prime_after(value)
    return value


def _config_from_args(args) -> ProveConfig:
    return ProveConfig(
        seed=args.seed,
        b_bits=args.b_bits,
        dmax_cap=args.dmax,
        hmax=args.hmax,
        pmax=args.pmax,
        maxparts=args.maxparts,
        round_cap=args.rounds,
        cache_dir=args.cache_dir,
        verbose=not args.quiet,
    )


def cmd_prove(args) -> int:
    try:
        n = parse_number(args.number)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    config = _config_from_args(args)
    try:
        certificate, report = prove_with_report(n, config)
    except CompositeDetected as exc:
        if exc.factor is not None and not 1 < math.gcd(exc.factor, n) < n:
            print(f"give-up: {exc}: not a proper factor of {n}", file=sys.stderr)
            return EXIT_GIVEUP
        if exc.witness is not None and not is_strong_witness(n, exc.witness):
            print(f"give-up: {exc}: base does not witness {n} composite", file=sys.stderr)
            return EXIT_GIVEUP
        print(f"composite: {n}", file=sys.stderr)
        print(f"evidence: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except GiveUp as exc:
        print(f"give-up: {exc}", file=sys.stderr)
        return EXIT_GIVEUP
    text = serialize(certificate)
    if args.cert:
        try:
            with open(args.cert, "w", encoding="ascii") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"certificate written to {args.cert} "
              f"({len(certificate.steps)} steps, terminal {certificate.terminal})")
    else:
        sys.stdout.write(text)
    if args.report:
        try:
            report.write(args.report)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    if not args.quiet:
        sys.stderr.write(report.to_text())
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    try:
        result, certificate = verify_file(args.path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CertificateFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    wall = time.perf_counter() - t0
    if result:
        print(f"ACCEPT {certificate.subject}")
        print(f"steps {len(certificate.steps)} wall_seconds {wall:.3f}")
        return EXIT_OK
    where = "terminal" if result.step_index is None else f"step {result.step_index}"
    print(f"REJECT {where}: {result.reason}")
    return EXIT_REJECT


def cmd_stats(args) -> int:
    p1, p2, p3, pe = stats_mod.bucket_probabilities()
    print("analytic smooth-exponent constants")
    print(f"  P(alpha <= 1)      {p1:.4f}")
    print(f"  P(1 < alpha <= 2)  {p2:.4f}")
    print(f"  P(alpha > 2)       {p3:.4f}  (complement)")
    print(f"  P(alpha > e)       {pe:.4f}  (BOUND)")
    q = 1.0 - p1 - p2
    print(f"  best-of-8.9 gain >= 2 log2(B): "
          f"{stats_mod.max_statistics_gain(q, 8.9):.4f}")
    if args.sample:
        try:
            report = stats_mod.sample(
                args.bits, 1 << args.b_bits, args.samples, args.seed
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print()
        sys.stdout.write(report.to_text())
        print()
        sys.stdout.write(report.to_kv())
        if args.csv:
            try:
                with open(args.csv, "w", encoding="ascii") as f:
                    f.write(report.histogram_csv())
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_IO
            print(f"histogram written to {args.csv}")
    return EXIT_OK


def cmd_bench(args) -> int:
    digits = args.digits
    print(f"{'digits':>7} {'log2B':>6} {'#steps':>7} {'time_s':>9} {'gain/log2B':>11}")
    config = _config_from_args(args)
    env = Environment(config)
    for nd in digits:
        if nd > args.max_digits:
            print(f"error: {nd} digits exceeds the cap {args.max_digits}", file=sys.stderr)
            return EXIT_IO
        n = first_probable_prime_after(10 ** nd)
        t0 = time.perf_counter()
        try:
            certificate, report = prove_with_report(n, config, env)
        except CompositeDetected as exc:
            print(f"error proving first prime after 10^{nd}: {exc}", file=sys.stderr)
            return EXIT_REJECT
        except GiveUp as exc:
            print(f"give-up proving first prime after 10^{nd}: {exc}", file=sys.stderr)
            return EXIT_GIVEUP
        wall = time.perf_counter() - t0
        result = verify(certificate)
        if not result:
            print(f"error: produced certificate failed verification", file=sys.stderr)
            return EXIT_REJECT
        gains = report.bit_gains()
        ratio = (sum(gains) / len(gains) / args.b_bits) if gains else float("nan")
        print(f"{nd:>7} {args.b_bits:>6} {len(certificate.steps):>7} "
              f"{wall:>9.2f} {ratio:>11.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastecpp",
        description="Prove primality with verifiable elliptic-curve certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--b-bits", type=int, default=20, dest="b_bits",
                       help="smoothness bound is 2^B_BITS (default 20)")
        p.add_argument("--dmax", type=int, default=1 << 20,
                       help="cap on |D| (default 2^20)")
        p.add_argument("--hmax", type=int, default=64)
        p.add_argument("--pmax", type=int, default=None)
        p.add_argument("--maxparts", type=int, default=3)
        p.add_argument("--rounds", type=int, default=8,
                       help="round cap before give-up")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--quiet", action="store_true")

    p_prove = sub.add_parser("prove", help="prove a number prime")
    p_prove.add_argument("number",
                         help='decimal, expression (10^20+39), or first-prime-after:EXPR')
    p_prove.add_argument("--cert", default=None, help="certificate output path")
    p_prove.add_argument("--report", default=None, help="run report output path")
    common(p_prove)
    p_prove.set_defaults(func=cmd_prove)

    p_verify = sub.add_parser("verify", help="verify a certificate file")
    p_verify.add_argument("path")
    p_verify.set_defaults(func=cmd_verify)

    p_stats = sub.add_parser("stats", help="smooth-cofactor statistics")
    p_stats.add_argument("--sample", action="store_true",
                         help="run the Monte Carlo experiment")
    p_stats.add_argument("--bits", type=int, default=256)
    p_stats.add_argument("--b-bits", type=int, default=20, dest="b_bits")
    p_stats.add_argument("--samples", type=int, default=100_000)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--csv", default=None,
                         help="write the alpha histogram as CSV")
    p_stats.set_defaults(func=cmd_stats)

    p_bench = sub.add_parser("bench", help="prove first primes after powers of ten")
    p_bench.add_argument("digits", type=int, nargs="*",
                         help="digit counts, e.g. 50 100")
    p_bench.add_argument("--max-digits", type=int, default=1000, dest="max_digits")
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
