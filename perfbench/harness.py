"""Runs one workload: set-up, warm-up, timed runs, output checks, report.

Every run of the workload happens in a forked child, one at a time, so each
run's peak RSS is its own (taken from wait4) and a traced run's wrappers never
reach the parent.  The parent builds the inputs once per set-up repeat and
checks every run's outputs after the child has exited, outside the timed
region.

Timings are scaled to the machine's reference speed (see speed.py): the
host's speed drifts by more than the bounds in BENCHMARK.json over the minutes
a set of runs takes, while the work of a run does not.  The per-layer
metrics and the recorded wall times stay unscaled.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracing
from speed import SpeedProbe
from workloads import WORKLOADS, CheckResult, ratio, record_rank_sums

SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import condcorr, condcorr.cli; "
                "print(time.perf_counter() - t0)")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "cli.self_s": "s",
    "fearsim.simulate_s": "s",
    "io.write_csv_s": "s",
    "io.write_csv_mib": "MiB",
    "io.ingest_s": "s",
    "io.ingest_rows": "count",
    "io.ingest_rows_per_s": "1/s",
    "io.write_reports_s": "s",
    "io.run_simulate_self_s": "s",
    "io.run_condcorr_self_s": "s",
    "io.run_invstats_self_s": "s",
    "timeseries.align_s": "s",
    "timeseries.detrend_s": "s",
    "conditional.analyze_s": "s",
    "conditional.member_windows": "count",
    "conditional.level_members": "count",
    "conditional.member_windows_per_s": "1/s",
    "conditional.member_frac": "ratio",
    "conditional.peak_mib": "MiB",
    "ranktests.rank_sum_s": "s",
    "ranktests.rank_sum_calls": "count",
    "ranktests.ranked_values": "count",
    "ranktests.subsample_s": "s",
    "inverse_stats.first_passage_s": "s",
    "inverse_stats.first_passage_calls": "count",
    "inverse_stats.starts_per_s": "1/s",
    "inverse_stats.crossed_frac": "ratio",
    "inverse_stats.peak_mib": "MiB",
    "inverse_stats.histogram_s": "s",
    "inverse_stats.fit_s": "s",
    "conditional.max_dev_vs_direct": "1",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class RunResult:
    mode: str
    wall_s: float | None
    rss_mib: float
    ops: list[dict]
    spans: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    rank_sums: list[dict] = field(default_factory=list)
    crash: str | None = None
    speed: float = 1.0  # scale factor to the reference speed, from SpeedProbe


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _import_seconds(src: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=src.parent,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def measure_setup(workload, seed: int, size: int, src: Path):
    """Median package import time plus median input build time.

    The import runs in a fresh interpreter each time, because a user pays it
    before every command.  The median discards the first import of a fresh
    checkout, which also writes the bytecode cache.  Both are scaled to the
    reference speed.  Returns (setup_s, inputs, fearsim_s), fearsim_s unscaled.
    """
    probe = SpeedProbe(workload.speed_kernel)
    imports = []
    for _ in range(SETUP_REPEATS):
        seconds = _import_seconds(src)
        imports.append(seconds * probe.factor())
    builds, fearsim_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs, fearsim_s = workload.build(seed, size)
        builds.append((time.perf_counter() - t0) * probe.factor())
        fearsim_times.append(fearsim_s)
    setup_s = statistics.median(imports) + statistics.median(builds)
    return setup_s, inputs, statistics.median(fearsim_times)


def _child_body(workload, inputs, out: Path, mode: str) -> dict:
    tracer = rank_sums = None
    if mode == "warm-up":
        rank_sums = record_rank_sums()
    elif mode != "plain":
        tracer = tracing.Tracer(memory=mode == "memory")
        tracer.install()
    operations = workload.operations(inputs, out)
    ops = []
    start = time.perf_counter()
    for name, fn in operations:
        t0 = time.perf_counter()
        error = None
        try:
            fn()
        except Exception:
            error = traceback.format_exc(limit=-4)
        ops.append({"name": name, "seconds": time.perf_counter() - t0, "error": error})
    wall = time.perf_counter() - start
    payload = {"wall_s": wall, "ops": ops}
    if tracer is not None:
        payload.update(spans=tracer.spans, counters=dict(tracer.counters),
                       missing=tracer.missing)
    if rank_sums is not None:
        payload["rank_sums"] = rank_sums
    return payload


def in_child(fn) -> tuple[dict, float]:
    """Run fn() in a forked child and wait for it to end.

    Returns ``({"value": result}`` or ``{"crash": reason}, peak RSS in MiB)``;
    the result must be JSON-serialisable.  Running the work in a child keeps
    its allocations, and the parent's, out of each other's peak RSS.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = {"value": fn()}
            except BaseException:
                payload = {"crash": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(payload).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    payload = json.loads(data) if data else {}
    if status != 0 or not payload:
        payload = {"crash": f"child ended with wait status {status}"}
    return payload, usage.ru_maxrss / 1024.0


def run_child(workload, inputs, out: Path, mode: str) -> RunResult:
    """One run of the workload in a forked child."""
    payload, rss_mib = in_child(lambda: _child_body(workload, inputs, out, mode))
    if "crash" in payload:
        return RunResult(mode, None, rss_mib, [], crash=payload["crash"])
    body = payload["value"]
    return RunResult(mode, body["wall_s"], rss_mib, body["ops"], body.get("spans", []),
                     body.get("counters", {}), body.get("missing", []),
                     body.get("rank_sums", []))


def check_outputs(workload, inputs, out: Path, seed: int, warm: RunResult) -> CheckResult:
    """The workload's output checks, run in a child on the warm-up's outputs."""
    payload, _ = in_child(lambda: asdict(workload.check(inputs, out, seed, warm.rank_sums)))
    if "crash" in payload:
        reason = warm.crash or payload["crash"]
        return CheckResult({name: [reason] for name in workload.op_dirs}, {})
    return CheckResult(**payload["value"])


def output_hashes(out: Path, op_dirs: dict[str, str]) -> dict[str, dict[str, str]]:
    hashes = {}
    for op, sub in op_dirs.items():
        root = out / sub
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else []
        hashes[op] = {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in files}
    return hashes


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self, op_names, reference_failures: dict[str, list[str]]):
        self.op_names = list(op_names)
        self.reference_failures = reference_failures
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, run: RunResult, hashes, reference_hashes):
        errors = {op["name"]: op["error"] for op in run.ops}
        for name in self.op_names:
            self.attempted += 1
            reason = None
            if run.crash:
                reason = run.crash
            elif errors.get(name):
                reason = errors[name]
            elif hashes[name] != reference_hashes[name]:
                reason = "output files differ from the warm-up run's"
            elif self.reference_failures.get(name):
                reason = "; ".join(self.reference_failures[name])
            if reason:
                self.failed += 1
                if len(self.reasons) < 5:
                    last_line = reason.strip().splitlines()[-1]
                    self.reasons.append(f"{run.mode} run, {name}: {last_line}")


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def per_layer_metrics(traced: list[RunResult], memory_run: RunResult, plain_wall: float,
                      check, setup_fearsim_s: float) -> dict[str, float]:
    per_run = [tracing.self_times(r.spans) for r in traced if r.wall_s is not None]
    times = {m: _median([t.get(m, 0.0) for t in per_run])
             for m in tracing.LAYER_METRICS}
    counters = next((r.counters for r in traced if r.wall_s is not None), {})
    traced_wall = _median([r.wall_s for r in traced if r.wall_s is not None])
    conditional = check.metrics
    member_windows = conditional.get("conditional.member_windows", 0)
    starts = counters.get("inverse_stats.starts", 0)
    layer = {f"{m}_s": times[m] for m in tracing.LAYER_METRICS}
    layer.update({
        "fearsim.simulate_s": times["fearsim.simulate"] + setup_fearsim_s,
        "io.write_csv_mib": counters.get("io.write_csv_bytes", 0) / 2**20,
        "io.ingest_rows": counters.get("io.ingest_rows", 0),
        "io.ingest_rows_per_s": ratio(counters.get("io.ingest_rows", 0),
                                       times["io.ingest"]),
        "conditional.member_windows": member_windows,
        "conditional.level_members": conditional.get("conditional.level_members", 0),
        "conditional.member_windows_per_s": ratio(member_windows,
                                                   times["conditional.analyze"]),
        "conditional.member_frac": conditional.get("conditional.member_frac", 0.0),
        "conditional.peak_mib": tracing.peak_mib(memory_run.spans, "conditional.analyze"),
        "ranktests.rank_sum_calls": counters.get("ranktests.rank_sum_calls", 0),
        "ranktests.ranked_values": counters.get("ranktests.ranked_values", 0),
        "inverse_stats.first_passage_calls":
            counters.get("inverse_stats.first_passage_calls", 0),
        "inverse_stats.starts_per_s": ratio(starts, times["inverse_stats.first_passage"]),
        "inverse_stats.crossed_frac": ratio(counters.get("inverse_stats.crossed", 0),
                                             starts),
        "inverse_stats.peak_mib": tracing.peak_mib(memory_run.spans,
                                                   "inverse_stats.first_passage"),
        "conditional.max_dev_vs_direct": conditional.get("conditional.max_dev_vs_direct",
                                                         0.0),
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.spans": len(traced[-1].spans) if traced else 0,
    })
    return {name: layer[name] for name in PER_LAYER}


def _checked_run(workload, inputs, out: Path, mode: str, tally: Tally,
                 reference_hashes, probe: SpeedProbe | None = None) -> RunResult:
    result = run_child(workload, inputs, out, mode)
    if probe is not None:
        result.speed = probe.factor()
    tally.add(result, output_hashes(out, workload.op_dirs), reference_hashes)
    shutil.rmtree(out, ignore_errors=True)
    return result


def _print_line(name: str, value: float, unit: str):
    print(f"{name:<36} {value:.6g} {unit}")


def run(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    size = args.size or workload.default_size
    work = root / ".perfbench-work"
    out = work / workload.name
    shutil.rmtree(out, ignore_errors=True)

    machine = machine_info()
    setup_s, inputs, setup_fearsim_s = measure_setup(workload, args.seed, size, root / "src")

    # warm-up: discarded from timing; its outputs are the reference
    warm = run_child(workload, inputs, out, "warm-up")
    reference_hashes = output_hashes(out, workload.op_dirs)
    check = check_outputs(workload, inputs, out, args.seed, warm)
    shutil.rmtree(out, ignore_errors=True)

    tally = Tally(workload.op_dirs, check.failures)
    modes = ("plain", "spans") if args.trace else ("plain",)
    runs: dict[str, list[RunResult]] = {mode: [] for mode in modes}
    start = time.perf_counter()
    probe = SpeedProbe(workload.speed_kernel)
    while (time.perf_counter() - start < args.seconds
           or len(runs["plain"]) < MIN_TIMED_RUNS):
        for mode in modes:
            runs[mode].append(_checked_run(workload, inputs, out, mode, tally,
                                           reference_hashes, probe))
    measured_s = time.perf_counter() - start
    memory_run = (_checked_run(workload, inputs, out, "memory", tally, reference_hashes)
                  if args.trace else None)

    timed = [r for r in runs["plain"] if r.wall_s is not None]
    walls = [r.wall_s for r in timed]
    speeds = [r.speed for r in timed]
    wall_s = _median([r.wall_s * r.speed for r in timed])
    op_seconds = {name: _median([op["seconds"] * r.speed for r in timed for op in r.ops
                                 if op["name"] == name]) for name in workload.op_dirs}
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mib": _median([r.rss_mib for r in timed]),
    }
    extras = workload.headline(op_seconds, wall_s, check)
    error_rate = ratio(tally.failed, tally.attempted)

    print(f"# condcorr benchmark: workload={workload.name} seed={args.seed} "
          f"{workload.size_label}={size} trace={args.trace}")
    print(f"# timed runs={len(walls)} over {measured_s:.1f} s "
          f"(min {min(walls, default=0):.4f} s, max {max(walls, default=0):.4f} s, "
          f"median {_median(walls):.4f} s unscaled)")
    print(f"# timings scaled to the reference speed (kernel {'+'.join(probe.parts)}, "
          f"reference {probe.reference_s} s): median factor {_median(speeds):.4f}, "
          f"kernel {_median(probe.kernel_times):.4f} s")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, value in end_to_end.items():
        _print_line(name, value, END_TO_END[name])
    _print_line("error_rate", error_rate, "ratio")
    for name, (value, unit) in extras.items():
        _print_line(name, value, unit)

    metrics, units = end_to_end, END_TO_END
    spans = []
    if args.trace:
        metrics = per_layer_metrics(runs["spans"], memory_run, _median(walls), check,
                                    setup_fearsim_s)
        units = PER_LAYER
        for name, value in metrics.items():
            _print_line(name, value, PER_LAYER[name])
        largest = max((f"{m}_s" for m in tracing.LAYER_METRICS), key=metrics.get)
        print(f"# largest layer self time: {largest}")
        missing = sorted({m for r in runs["spans"] for m in r.missing})
        if missing:
            print(f"# not wrapped (absent from the package): {', '.join(missing)}")
        spans = [dict(span, run=i) for i, r in enumerate(runs["spans"] + [memory_run])
                 for span in r.spans]
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    results_dir = work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=workload.name, seed=args.seed, size=size,
                  machine=machine, error_rate=error_rate,
                  extras={k: v for k, (v, _) in extras.items()},
                  walls=walls, speed_factors=speeds,
                  kernel_s=probe.kernel_times, failures=tally.reasons)
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0
