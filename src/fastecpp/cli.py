"""Command-line interface: prove, verify, stats, bench.

Exit codes: 0 success, 1 mathematical reject (composite input with a
witness, or certificate rejection), 2 I/O, parse or argument errors
(including a number below 2, a `bench` digit count outside 1..1000,
`stats --sample --b-bits` outside 10..24 or an unusable cache
directory), 3 give-up (including an internal error of the prover).
"""

import argparse
import ast
import math
import operator
import sys
import time

from . import stats as stats_mod
from .cert import serialize, verify_file
from .errors import CertificateFormatError, CompositeDetected, GiveUp
from .numth import is_strong_witness
from .prover import Environment, ProveConfig, first_probable_prime_after, prove_with_report

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_IO = 2
EXIT_GIVEUP = 3

_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Pow: pow}
_MAX_BITS = 1 << 20
_BENCH_MAX_DIGITS = 1000


def _evaluate(node: ast.AST) -> int:
    """Value of an expression tree of int literals, + - * and **.

    Any value above _MAX_BITS bits is refused.  A power is refused
    before it is computed if its exponent is negative or
    bitlen(base) * exponent exceeds _MAX_BITS.
    """
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left, right = _evaluate(node.left), _evaluate(node.right)
        if isinstance(node.op, ast.Pow) and (
            right < 0 or left.bit_length() * right > _MAX_BITS
        ):
            raise ValueError("power with a negative exponent or above 2^20 bits")
        value = _BINARY[type(node.op)](left, right)
        if value.bit_length() > _MAX_BITS:
            raise ValueError("value above 2^20 bits")
        return value
    raise ValueError(f"unsupported expression element: {type(node).__name__}")


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
    try:
        value = _evaluate(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # CPython's parser reports too deep a nesting as MemoryError
        raise ValueError(f"cannot parse number expression: {text!r}") from exc
    if search:
        value = first_probable_prime_after(value)
    return value


def _evidence_holds(exc: CompositeDetected, n: int) -> bool:
    """True if exc names a proper factor of n or a base that proves n composite."""
    if exc.factor is not None and 1 < math.gcd(exc.factor, n) < n:
        return True
    return exc.witness is not None and is_strong_witness(n, exc.witness)


def _config_from_args(args) -> ProveConfig:
    """The options `prove` and `bench` share, as a ProveConfig."""
    return ProveConfig(seed=args.seed, cache_dir=args.cache_dir, verbose=not args.quiet)


def _prove_or_exit(label: str, n: int, config: ProveConfig, *env):
    """(certificate, report) for n, or the exit code after printing why
    there is none; `label` names n in the messages, and an Environment in
    `env` is shared with earlier proves."""
    try:
        return prove_with_report(n, config, *env)
    except CompositeDetected as exc:
        if _evidence_holds(exc, n):
            print(f"composite: {label}\nevidence: {exc}", file=sys.stderr)
            return EXIT_REJECT
        print(f"give-up: {exc}: no factor or base that re-checks for {label}", file=sys.stderr)
        return EXIT_GIVEUP
    except (GiveUp, RuntimeError) as exc:  # a PrecisionError or a failed self-verify
        print(f"give-up: {label}: {exc}", file=sys.stderr)
        return EXIT_GIVEUP
    except OSError as exc:  # the cache directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def cmd_prove(args) -> int:
    config = _config_from_args(args)
    try:
        n = parse_number(args.number)
        if n < 2:
            raise ValueError(f"{n} is below 2")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    result = _prove_or_exit(str(n), n, config)
    if isinstance(result, int):
        return result
    certificate, report = result
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
    except (CertificateFormatError, UnicodeDecodeError) as exc:
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
    for nd in digits:  # every count before the first prove
        if not 1 <= nd <= _BENCH_MAX_DIGITS:
            print(f"error: {nd} digits is outside 1..{_BENCH_MAX_DIGITS}", file=sys.stderr)
            return EXIT_IO
    config = _config_from_args(args)
    print(f"{'digits':>7} {'log2B':>6} {'#steps':>7} {'time_s':>9} {'gain/log2B':>11}")
    env = Environment(config)
    for nd in digits:
        n = first_probable_prime_after(10 ** nd)
        result = _prove_or_exit(f"the first probable prime after 10^{nd}", n, config, env)
        if isinstance(result, int):
            return result
        certificate, report = result
        gains = report.bit_gains()
        ratio = (sum(gains) / len(gains) / config.b_bits) if gains else float("nan")
        print(f"{nd:>7} {config.b_bits:>6} {len(certificate.steps):>7} "
              f"{report.wall_seconds:>9.2f} {ratio:>11.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastecpp",
        description="Prove primality with verifiable elliptic-curve certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
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
                         help="digit counts from 1 to 1000, e.g. 50 100")
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
