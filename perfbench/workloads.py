"""The three benchmark workloads: their inputs, operations and output checks.

cli-chain   the README walkthrough (simulate -> condcorr -> invstats) through
            condcorr.cli.main on CSV files.  Writing and ingesting CSV
            dominates; the sparse control grid keeps the conditional sweep
            light.
dense-grid  io.run_condcorr on an in-memory panel with the default RunConfig
            (16 levels, chi and C_t).  No CSV work; the conditional sweep
            dominates.
long-walk   io.run_invstats on a long in-memory index series with the default
            RunConfig (8 magnitudes x 2 signs).  First-passage scans dominate;
            no panel work runs.

Inputs come from the fear simulator under the benchmark seed.  N, the level
sets and the window range fix each workload's layer mix and stay as below;
only T (days) or n (walk length) is sized to fit the run length.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import direct
from condcorr import cli, conditional, fearsim
from condcorr import io as cc_io
from condcorr.timeseries import PriceSeries

FEAR_PROBABILITY = 0.05
STEP_SIZE = 0.01
CLI_CHAIN_STOCKS = 30
DENSE_GRID_STOCKS = 30
LONG_WALK_STOCKS = 10
CHAIN_RHO_GRID = "-0.10,-0.05,-0.03,0.03,0.05,0.10"
CHAIN_CHI_LEVELS = "0.03,0.05,0.10"
# the ±ρ pair whose C is recomputed independently
DIRECT_LEVELS = (-0.05, 0.05)
# Gross errors (a wrong level, branch or normalisation) move C by more than
# this; wrong windows also change the member counts checked below.  Finer
# deviations, such as the known prefix-sum definedness defect (constant
# windows counted as defined, up to ~2e-3 on long panels), are not gated but
# reported, whatever their size, as conditional.max_dev_vs_direct.
C_TOLERANCE = 1e-2
# the defect needs long panels (running sums of squares above ~3), so the
# dense-grid check also probes a panel of this many days, untimed
PROBE_DAYS = 50_000
Z_RELATIVE_TOLERANCE = 1e-9


class OperationFailed(Exception):
    """A CLI command exited with a nonzero code."""


@dataclass
class CheckResult:
    failures: dict[str, list[str]]
    metrics: dict[str, float]
    stock_days: int = 0
    passages: int = 0


def ratio(num, den):
    return num / den if den else 0.0


def _run_cli(argv: list[str]):
    captured = stdio.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"exit code {code}: {captured.getvalue()[-400:]}")


def _read_tsv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:]]


def record_rank_sums() -> list[dict]:
    """Record the exact samples and z of every rank-sum test the pipeline runs.

    Installed in the warm-up run only: the written tables round values to 12
    digits, and binary-walk correlations have many near-equal values that
    round to ties, so only the samples as passed can be ranked again.
    """
    records = []
    rank_sum = cc_io.wilcoxon_rank_sum

    def recording(sample_a, sample_b):
        result = rank_sum(sample_a, sample_b)
        records.append({"a": np.asarray(sample_a, dtype=float).tolist(),
                        "b": np.asarray(sample_b, dtype=float).tolist(), "z": result.z})
        return result

    cc_io.wilcoxon_rank_sum = recording
    return records


def _check_rank_sums(cc_dir: Path, rank_sums: list[dict]) -> list[str]:
    rows = _read_tsv(cc_dir / "wilcoxon_pairs.tsv") + _read_tsv(cc_dir / "wilcoxon_time.tsv")
    if not rows or len(rows) != len(rank_sums):
        return [f"{len(rows)} rank-sum rows written for {len(rank_sums)} tests run"]
    failures = []
    for row, test in zip(rows, rank_sums):
        a, b, z = np.array(test["a"]), np.array(test["b"]), test["z"]
        z_ref = direct.rank_sum_z(a, b)
        if row[1] != f"{z:.12g}" or int(row[3]) != len(a):
            failures.append(f"rank-sum row {row} does not match the test run "
                            f"(z={z!r}, n={len(a)})")
        if len(a) != len(b) or abs(z - z_ref) > Z_RELATIVE_TOLERANCE * max(1.0, abs(z_ref)):
            failures.append(f"rank sum at {row[0]}: z={z!r} on {len(a)} vs {len(b)} "
                            f"values, scipy z={z_ref!r}")
    return failures


def check_condcorr(cc_dir: Path, stock_log: np.ndarray, index_log: np.ndarray,
                   rank_sums: list[dict]):
    """Check a condcorr output directory against independent recomputation.

    Returns the failures and the conditional metrics: member counts from the
    index series and the largest |C - C_direct| over DIRECT_LEVELS.
    """
    summary = json.loads((cc_dir / "summary.json").read_text(encoding="utf-8"))
    config = summary["config"]
    window_range = (config["dt1"], config["dt2"])
    horizon = config["delta_t"]
    levels = set(config["rho_grid"])
    for lev in config["chi_levels"] + [config["ct_level"]]:
        levels |= {lev, -lev}
    per_level, excluded, union, all_windows = direct.member_counts(
        index_log, sorted(levels), window_range, horizon)

    failures = []
    rows = {float(r[0]): r for r in _read_tsv(cc_dir / "curve.tsv")}
    for rho in config["rho_grid"]:
        if per_level[rho] == 0:
            continue
        row = rows.get(rho)
        if row is None:
            failures.append(f"curve.tsv lacks rho={rho} with {per_level[rho]} members")
        elif (int(row[2]), int(row[3])) != (per_level[rho], excluded[rho]):
            failures.append(f"curve.tsv rho={rho}: n_samples={row[2]} "
                            f"n_excluded={row[3]}, expected {per_level[rho]} "
                            f"and {excluded[rho]}")

    checked = {rho: summary["curve"][f"{rho:.12g}"]["C"]
               for rho in DIRECT_LEVELS if rho in rows and per_level[rho]}
    if not checked:
        failures.append(f"no member windows at {DIRECT_LEVELS} for the direct check")
    deviations = direct_deviations(checked, stock_log, index_log, window_range, horizon)
    failures += [f"C({rho})={c!r} but direct two-pass C={c_direct!r}"
                 for rho, (c, c_direct) in deviations.items()
                 if c_direct is None or abs(c - c_direct) > C_TOLERANCE]

    failures += _check_rank_sums(cc_dir, rank_sums)
    metrics = {
        "conditional.member_windows": union,
        "conditional.level_members": sum(per_level.values()),
        "conditional.member_frac": union / all_windows,
        "conditional.max_dev_vs_direct": max_deviation(deviations),
    }
    return failures, metrics


def direct_deviations(c_values, stock_log, index_log, window_range, horizon):
    """{rho: (C from the program, C from the direct two-pass computation)}."""
    return {rho: (c, direct.conditional_curve_value(stock_log, index_log, rho,
                                                    window_range, horizon)[0])
            for rho, c in c_values.items()}


def max_deviation(deviations) -> float:
    return max((abs(c - c_direct) for c, c_direct in deviations.values()
                if c_direct is not None), default=0.0)


def long_panel_deviation(seed: int, window_range, horizon) -> float:
    """Largest |C - C_direct| at DIRECT_LEVELS on a PROBE_DAYS-day fear panel."""
    panel = fearsim.to_aligned_panel(_fear_market(DENSE_GRID_STOCKS, PROBE_DAYS, seed))
    analysis = conditional.analyze_panel(panel, DIRECT_LEVELS, window_range, horizon)
    c_values = {p.rho: p.value for p in analysis.curve.points}
    stock_log = np.log(np.vstack([s.closes for s in panel.stocks]))
    return max_deviation(direct_deviations(c_values, stock_log,
                                           np.log(panel.index_series.closes),
                                           window_range, horizon))


def check_invstats(inv_dir: Path, series_length: int):
    """Crossed plus censored starts must equal the starts of every scan.

    Returns the failures and the total number of first-passage starts.
    """
    summary = json.loads((inv_dir / "summary.json").read_text(encoding="utf-8"))
    window = summary["config"]["detrend_window"]
    analyzed = series_length - window + 1 if window else series_length
    starts = analyzed - 1
    magnitudes = {abs(r) for r in summary["config"]["rho_grid"]}
    failures = []
    if len(summary["levels"]) != len(magnitudes):
        failures.append(f"{len(summary['levels'])} levels written for "
                        f"{len(magnitudes)} magnitudes")
    for tag, entry in summary["levels"].items():
        for side in ("plus", "minus"):
            total = entry[f"n_{side}"] + entry[f"censored_{side}"]
            if total != starts:
                failures.append(f"|rho|={tag} {side}: crossed + censored = {total}, "
                                f"expected {starts} starts")
    return failures, starts * 2 * len(magnitudes)


def _fear_market(n_stocks: int, n_steps: int, seed: int) -> fearsim.SimPanel:
    return fearsim.simulate_market(fearsim.SimConfig(
        n_stocks=n_stocks, n_steps=n_steps, fear_probability=FEAR_PROBABILITY,
        step_size=STEP_SIZE, seed=seed))


class CliChain:
    name = "cli-chain"
    default_size = 6_000
    size_label = "T"
    op_dirs = {"simulate": "market", "condcorr": "cc", "invstats": "inv"}
    # row-by-row CSV work in the interpreter, then numpy analysis
    speed_kernel = ("csv", "array")

    def build(self, seed: int, size: int):
        """Nothing to build: the chain's first command simulates the market."""
        return {"seed": seed, "days": size}, 0.0

    def operations(self, inputs, out: Path):
        market = out / "market"
        manifest = str(market / "manifest.json")
        return [
            ("simulate", lambda: _run_cli([
                "simulate", "--n-stocks", str(CLI_CHAIN_STOCKS),
                "--n-steps", str(inputs["days"]),
                "--fear-probability", str(FEAR_PROBABILITY),
                "--step-size", str(STEP_SIZE), "--seed", str(inputs["seed"]),
                "--out", str(market)])),
            ("condcorr", lambda: _run_cli([
                "condcorr", "--manifest", manifest, "--out", str(out / "cc"),
                f"--rho-grid={CHAIN_RHO_GRID}", "--chi-levels", CHAIN_CHI_LEVELS])),
            ("invstats", lambda: _run_cli([
                "invstats", "--manifest", manifest, "--out", str(out / "inv"),
                "--rho-grid=-0.05,0.05", "--detrend-window", "251"])),
        ]

    def check(self, inputs, out: Path, seed: int, rank_sums: list[dict]) -> CheckResult:
        market = out / "market"
        manifest = json.loads((market / "manifest.json").read_text(encoding="utf-8"))
        rows = inputs["days"] + 1
        failures = {"simulate": [], "condcorr": [], "invstats": []}
        files = [manifest["index_file"]] + [f for _, f in manifest["stock_files"]]
        if len(files) != CLI_CHAIN_STOCKS + 1:
            failures["simulate"].append(f"manifest lists {len(files)} files")
        prices = {}
        for name in files:
            closes = np.loadtxt(market / name, delimiter=",", skiprows=1, usecols=5, ndmin=1)
            if len(closes) != rows or not np.all(closes > 0.0):
                failures["simulate"].append(f"{name}: {len(closes)} rows, expected "
                                            f"{rows} positive prices")
            prices[name] = closes
        if failures["simulate"]:
            return CheckResult(failures, {})
        index_log = np.log(prices[manifest["index_file"]])
        stock_log = np.log(np.vstack([prices[f] for _, f in manifest["stock_files"]]))
        failures["condcorr"], metrics = check_condcorr(out / "cc", stock_log, index_log,
                                                     rank_sums)
        failures["invstats"], passages = check_invstats(out / "inv", rows)
        return CheckResult(failures, metrics, stock_days=CLI_CHAIN_STOCKS * rows,
                           passages=passages)

    def headline(self, op_seconds, wall_s, check):
        metrics = {f"cli.{op}_s": (op_seconds[op], "s") for op in self.op_dirs}
        metrics["stock_days_per_s"] = (ratio(check.stock_days, op_seconds["condcorr"]),
                                       "1/s")
        return metrics


class DenseGrid:
    name = "dense-grid"
    default_size = 6_000
    size_label = "T"
    op_dirs = {"run_condcorr": "cc"}
    speed_kernel = ("array",)

    def build(self, seed: int, size: int):
        t0 = time.perf_counter()
        panel = fearsim.to_aligned_panel(_fear_market(DENSE_GRID_STOCKS, size, seed))
        return panel, time.perf_counter() - t0

    def operations(self, panel, out: Path):
        return [("run_condcorr", lambda: cc_io.run_condcorr(
            None, cc_io.RunConfig(), out / "cc", panel=panel))]

    def check(self, panel, out: Path, seed: int, rank_sums: list[dict]) -> CheckResult:
        stock_log = np.log(np.vstack([s.closes for s in panel.stocks]))
        index_log = np.log(panel.index_series.closes)
        failures, metrics = check_condcorr(out / "cc", stock_log, index_log,
                                                     rank_sums)
        config = cc_io.RunConfig()
        probe_dev = long_panel_deviation(seed, config.window_range,
                                         config.delta_t)
        metrics["conditional.max_dev_vs_direct"] = max(
            metrics["conditional.max_dev_vs_direct"], probe_dev)
        return CheckResult({"run_condcorr": failures}, metrics,
                           stock_days=stock_log.size)

    def headline(self, op_seconds, wall_s, check):
        return {"stock_days_per_s": (ratio(check.stock_days, op_seconds["run_condcorr"]),
                                     "1/s")}


class LongWalk:
    name = "long-walk"
    default_size = 500_000
    size_label = "n"
    op_dirs = {"run_invstats": "inv"}
    speed_kernel = ("array",)

    def build(self, seed: int, size: int):
        t0 = time.perf_counter()
        sim = _fear_market(LONG_WALK_STOCKS, size, seed)
        closes = fearsim.build_index(sim)
        fearsim_s = time.perf_counter() - t0
        calendar = np.datetime64("2000-01-03", "D") + np.arange(len(closes))
        return PriceSeries("INDEX", calendar, closes), fearsim_s

    def operations(self, series, out: Path):
        return [("run_invstats", lambda: cc_io.run_invstats(
            series, cc_io.RunConfig(), out / "inv"))]

    def check(self, series, out: Path, seed: int, rank_sums: list[dict]) -> CheckResult:
        failures, passages = check_invstats(out / "inv", len(series))
        return CheckResult({"run_invstats": failures}, {}, passages=passages)

    def headline(self, op_seconds, wall_s, check):
        return {"passages_per_s": (ratio(check.passages, wall_s), "1/s")}


WORKLOADS = {w.name: w for w in (CliChain(), DenseGrid(), LongWalk())}
