"""Self-test of the benchmark harness at tiny scale.

    python3 perfbench/selftest.py

Runs every workload shrunk (``--tiny``) untraced and traced, and fails
unless each run passes its output checks and prints every metric that
``BENCHMARK.json`` declares, with the declared unit. It also checks that
the harness refuses to run, without printing a result, in a directory
that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, workload: str, trace: int, seconds: str = "3") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}: {done.stderr[-1500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True:
                failures.append(f"{label}: output checks failed: {done.stderr[-1500:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace] and got[n] != expected[trace][n])
                failures.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"ok  {label}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
    # In a directory holding only the benchmark, the program is absent:
    # the harness must fail without printing a result.
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = _run(bare, bench["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("a directory without the program did not fail cleanly")
        else:
            print("ok  refuses to run without the program", flush=True)
    finally:
        shutil.rmtree(bare)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
