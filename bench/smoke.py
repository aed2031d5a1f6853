"""Smoke run of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced with ``--tiny``
and checks the result line: the exact keys, no failed operation, and every
metric that BENCHMARK.json names emitted once with its unit (end-to-end
metrics untraced, per-layer metrics traced).  It then checks that the
benchmark refuses to run, without a result line, in a directory holding
only BENCHMARK.json and the benchmark's files.  Exits 1 on any mismatch.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    with open(os.path.join(cwd, "BENCHMARK.json"), encoding="utf-8") as f:
        command = json.load(f)["command"]
    return subprocess.run(
        command + ["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str], positive: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                      f"failed={result.get('failed')}: {proc.stderr.strip()[-500:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{name}: value {value!r} is not a number")
        elif positive and value <= 0:
            errors.append(f"{name}: value {value} is not positive")
    return errors


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, "bench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(os.path.join(ROOT, "bench")):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(ROOT, "bench", name), os.path.join(bare, "bench"))
    try:
        proc = run(bare, "prove-100", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            errors = check_result(run(ROOT, workload, trace), expected, positive=trace == 0)
            print(f"{'FAIL' if errors else 'ok  '} {workload} trace={trace}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    errors = check_bare_directory()
    print(f"{'FAIL' if errors else 'ok  '} bare directory refused")
    for e in errors:
        print(f"     {e}")
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
