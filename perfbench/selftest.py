"""Harness self-test: every workload, untraced and traced, at --scale small.

    python3 perfbench/selftest.py

It checks that each run reports correct outputs and prints every metric
named in BENCHMARK.json with its unit, that the traced run's counters
agree exactly across two invocations with one seed, that another seed
changes the inputs but not the metric names, and that the benchmark
refuses to run, without printing a result, where the program's sources
are missing.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, dict, dict]:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{what}: exit status {proc.returncode}\n{proc.stderr[-3000:]}")
    tagged = {}
    for line in lines[:-1]:
        if line.startswith("perfbench "):
            tag, payload = line[len("perfbench "):].split(" ", 1)
            tagged[tag] = json.loads(payload)
    return tagged["meta"], tagged["counters"], json.loads(lines[-1])


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_result(result: dict, trace: int, what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{what}: outputs judged incorrect")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{what}: attempted {result['attempted']!r}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"{what}: metrics or units differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{what}: {name} is not a number")
        if not trace and not m["value"] > 0:
            fail(f"{what}: end-to-end metric {name} reads {m['value']}")


def exact_counts(result: dict, counters: dict) -> dict:
    counts = {n: m["value"] for n, m in result["metrics"].items() if m["unit"] == "count"}
    return {**counts, **counters}


def main() -> int:
    for wl in SPEC["workloads"]:
        name = wl["name"]
        meta0, _, plain = parse(run(name, 1, 0), f"{name} untraced")
        check_result(plain, 0, f"{name} untraced")
        first = parse(run(name, 1, 1), f"{name} traced")
        second = parse(run(name, 1, 1), f"{name} traced again")
        other = parse(run(name, 2, 1), f"{name} traced, seed 2")
        for (_, counters, result), what in ((first, "traced"), (second, "traced again"),
                                            (other, "traced, seed 2")):
            check_result(result, 1, f"{name} {what}")
        if exact_counts(first[2], first[1]) != exact_counts(second[2], second[1]):
            fail(f"{name}: counters differ between two traced runs with one seed")
        if other[0]["inputs"] == first[0]["inputs"] or meta0["inputs"] != first[0]["inputs"]:
            fail(f"{name}: input fingerprints do not follow the seed")
        print(f"selftest {name}: ok", flush=True)

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the program's sources")
    print("selftest without sources: refused, as it should", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
