"""Benchmark of fastecpp: prove, verify and sample workloads.

Run from the repository root:

    python3 bench/run.py --workload prove-100 --seed 0 --seconds 55 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced pass instead.  The line before it is the environment block.
Both, and the spans of a traced run, are also written to ``bench/out/``.
See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Time spent repeating the output check after each unit of the operation,
# as a share of that unit's time.
CHECK_SHARE = 0.25
PROBE_REPS = 5


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _bigint_probe() -> float:
    """Median time of a fixed pure-Python big-int job.

    It explains drift of the machine between runs; no metric is rescaled
    by it.
    """
    modulus = (1 << 2048) - 159
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        pow(3, modulus - 1, modulus)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(os.getcwd()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "config": workload.describe(),
        "bigint_probe_s": _bigint_probe(),
    }


def measure(workload, seconds: float, tally) -> tuple[dict[str, float], dict[str, list]]:
    """End-to-end metrics of an untraced run, and the timed samples.

    The run makes passes over the workload's units while the next unit and
    its checks, at the unit's mean time so far, would end less than half
    that time after `seconds`; so a run ends within half a unit of
    `seconds`.  After each
    unit its output is checked over and over for a share of the unit's
    time, so the checks are spread over the run like the units.  After each
    whole pass the set-up is made again.  The set-up reports the median of
    its samples.  The operation and the check report the sum, over the
    units, of each unit's mean time over the run: the shared machine's
    speed drifts within a run, and a unit's mean follows the run's average
    speed, which varies less between runs than its fastest stretch does.
    """
    start = time.perf_counter()
    deadline = start + seconds
    state = workload.setup()
    setup_times = [time.perf_counter() - start]
    op_times: list[list[float]] = [[] for _ in range(workload.units)]
    check_times: list[list[float]] = [[] for _ in range(workload.units)]

    def fits(i: int) -> bool:
        # The first pass always runs; a unit that never succeeded ends the run.
        known = op_times[i]
        if not known:
            return passes == 0
        unit = statistics.fmean(known) * (1.0 + CHECK_SHARE)  # with its checks
        return time.perf_counter() + unit / 2 <= deadline

    def check_until(i: int, out, until: float) -> None:
        while True:
            dt = workload.check(state, out, tally)
            if dt is None:
                return
            check_times[i].append(dt)
            if time.perf_counter() >= until:
                return

    cut, passes = False, 0
    while not cut:
        pass_state = workload.new_pass(state)
        for i in range(workload.units):
            if not fits(i):
                cut = True
                break
            out = workload.op(pass_state, i, tally)
            if out is None:
                continue
            op_times[i].append(out.wall)
            check_until(i, out, time.perf_counter() + out.wall * CHECK_SHARE)
        else:
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        passes += 1
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s": sum(statistics.fmean(times) for times in op_times if times),
        "check_s": sum(statistics.fmean(times) for times in check_times if times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"setup_s": setup_times, "op_s": op_times, "check_s": check_times}


def one_pass(workload, state, tally, tracer=None) -> list:
    """The outputs of one pass over the workload's units."""
    pass_state = workload.new_pass(state)
    outputs = (workload.op(pass_state, i, tally, tracer) for i in range(workload.units))
    return [out for out in outputs if out is not None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_traced(workload, tally, tracing) -> tuple[dict[str, float], object]:
    """Per-layer metrics: one untraced pass, then a traced set-up, pass and check."""
    state = workload.setup()
    untraced = one_pass(workload, state, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workload.setup()
        outputs = one_pass(workload, state, tally, tracer)
        for out in outputs:
            workload.check(state, out, tally, tracer)
    finally:
        tracer.uninstall()
    untraced = sum(out.wall for out in untraced)
    traced = sum(out.wall for out in outputs)

    totals = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics: dict[str, float] = {}
    for name in tracing.layer_names():
        for key, value in totals.get(name, zero).items():
            metrics[f"{name}.{key}"] = value

    def count(name, counter):
        return tracer.counters.get((name, counter), 0)

    calls = {name: totals.get(name, zero)["calls"] for name in tracing.layer_names()}
    lookups = calls["prover.Environment.class_poly"]
    metrics["cm.class_poly.memo_hit_ratio"] = (
        1.0 - calls["cm.hilbert_class_poly"] / lookups if lookups else 0.0
    )
    metrics["trialdiv.batch_factor.moduli"] = count("trialdiv.batch_factor", "moduli")
    metrics["numth.is_probable_prime.true_ratio"] = _ratio(
        count("numth.is_probable_prime", "true"), calls["numth.is_probable_prime"])
    metrics["numth.cornacchia.hit_ratio"] = _ratio(
        count("numth.cornacchia", "hits"), calls["numth.cornacchia"])
    metrics["curve.find_order_point.fail_ratio"] = _ratio(
        count("curve.find_order_point", "fails"), calls["curve.find_order_point"])
    metrics.update(workload.layer_metrics(outputs))

    # The wrapped layers' self times should tile the timed operations.
    kind = workload.main_kind
    in_ops = tracer.totals({kind})
    op_wall = in_ops.get(f"bench.{kind}", zero)["s"]
    layer_self = sum(in_ops.get(name, zero)["self_s"] for name in tracing.layer_names())
    metrics["trace.accounted_ratio"] = _ratio(layer_self, op_wall)
    metrics["trace.overhead_ratio"] = _ratio(traced, untraced)
    rootmod_traced = in_ops.get("cm.root_mod", zero)["s"]
    rootmod_report = metrics["prover.report.rootmod_s"]
    metrics["trace.rootmod_ratio"] = _ratio(rootmod_traced, rootmod_report)

    def cross_check() -> None:
        # Spans must see every root_mod call the program's report times;
        # the slack covers the seeding the report's timer also encloses.
        if abs(rootmod_traced - rootmod_report) > 0.05 * rootmod_report + 0.005:
            raise RuntimeError(
                f"traced cm.root_mod {rootmod_traced:.3f}s against "
                f"reported rootmod {rootmod_report:.3f}s"
            )

    tally.run("trace cross-check", cross_check)
    return metrics, tracer


END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "check_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "cert.bytes":
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (smoke run; the figures mean nothing)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fastecpp", "__init__.py")):
        print("error: ./src/fastecpp not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import tracer as tracing
    import workloads

    tally = workloads.Tally()
    workload = workloads.make(args.workload, args.seed, args.tiny)
    env = environment(args, workload)
    spans, samples = None, None
    if args.trace:
        metrics, tracer = measure_traced(workload, tally, tracing)
        spans = tracer.spans
    else:
        metrics, samples = measure(workload, args.seconds, tally)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"environment": env, "result": result, "samples": samples}, f, indent=1)
    if spans is not None:
        with open(os.path.join(out_dir, f"{tag}.spans.jsonl"), "w", encoding="utf-8") as f:
            f.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in spans:
                f.write(json.dumps(span) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
