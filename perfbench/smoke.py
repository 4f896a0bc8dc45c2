"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json:
- an untraced run prints every end-to-end metric with its unit, each
  value positive, and finds no failed operation;
- a traced run prints every per-layer metric with its unit;
then that an injected wrong oracle reply is counted as a failed
operation, and that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out", "smoke")


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--out", OUT, *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 and lines else None)


def check_result(result: dict, expected: list[dict], errors: list[str], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: v.get("unit") for name, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        errors.append(f"{label}: missing {missing} extra {extra} wrong unit {wrong}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result['attempted']!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    errors: list[str] = []
    for w in bench["workloads"]:
        name = w["name"]
        proc, result = run(name, 0)
        if result is None:
            errors.append(f"{name}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        check_result(result, bench["end_to_end"], errors, f"{name} trace 0")
        if not result["correct"] or result["failed"]:
            errors.append(f"{name}: {result['failed']} failed operations: {proc.stderr[-500:]}")
        zero = [m for m, v in result["metrics"].items() if not v["value"] > 0]
        if zero:
            errors.append(f"{name}: metrics not positive: {zero}")
        proc, result = run(name, 1)
        if result is None:
            errors.append(f"{name} traced: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        check_result(result, bench["per_layer"], errors, f"{name} trace 1")
        print(f"ok   {name}: {len(bench['end_to_end'])} end-to-end and "
              f"{len(bench['per_layer'])} per-layer metrics", flush=True)

    # A wrong reply on the wire must count as a failed operation.
    proc, result = run("oracle_exec", 0, "--fault-every", "5")
    if result is None:
        errors.append(f"fault injection: exit {proc.returncode}: {proc.stderr[-500:]}")
    elif (result["correct"] or result["failed"] < 1
          or not result["metrics"]["ok_frac"]["value"] < 1.0):
        errors.append(f"fault injection not counted: {result}")
    else:
        print(f"ok   injected wrong replies counted: {result['failed']} of "
              f"{result['attempted']} operations failed", flush=True)

    # Without the program's sources the benchmark must fail and print no result.
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run(bench["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode}, nothing on stdout", flush=True)
    shutil.rmtree(OUT, ignore_errors=True)

    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
