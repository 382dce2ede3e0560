"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size for one second in both trace modes and
checks that each run exits 0, prints every metric it names with its unit,
reports error_rate 0, and ends with the result object BENCHMARK.json
promises.  Also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY_SIZES = {"cli-chain": 2_000, "dense-grid": 2_000, "long-walk": 20_000}
HEADLINES = {
    "cli-chain": ("cli.simulate_s", "cli.condcorr_s", "cli.invstats_s", "stock_days_per_s"),
    "dense-grid": ("stock_days_per_s",),
    "long-walk": ("passages_per_s",),
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--size", str(TINY_SIZES[workload])]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    done = _run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {done.stderr.strip()[-300:]}")
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"result metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            printed[fields[0]] = (float(fields[1]), fields[2])
    named = dict(expected, error_rate="ratio")
    named.update({name: None for name in HEADLINES[workload]})
    for name, unit in named.items():
        if name not in printed:
            problems.append(f"{name} not printed")
        elif unit is not None and printed[name][1] != unit:
            problems.append(f"{name} printed with unit {printed[name][1]}, expected {unit}")
    if printed.get("error_rate", (None,))[0] != 0.0:
        problems.append(f"error_rate {printed.get('error_rate')}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = _run(bare, "cli-chain", 0)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit code {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in TINY_SIZES:
        for trace in (0, 1):
            problems = check_run(bench, workload, trace)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"bare directory refused: {'ok' if not problems else 'FAILED'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
