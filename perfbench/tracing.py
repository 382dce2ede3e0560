"""Span tracing of condcorr's layers from outside the package.

A Tracer replaces the public functions the pipeline calls through (module
attributes such as ``condcorr.io.ingest_csv``) with wrappers that record one
span per call: name, start, end, parent span and, when memory tracing is on
and the layer is in PEAK_METRICS, the tracemalloc peak of the allocations
made during the call.  Spans stay in memory until the run ends.  Only the
traced benchmark runs install a Tracer; they run in a child process, so the
untraced runs never see a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import Counter


def _count_rows(counters, args, kwargs, result):
    counters["io.ingest_rows"] += len(result)


def _count_csv_bytes(counters, args, kwargs, result):
    counters["io.write_csv_bytes"] += os.path.getsize(args[0])


def _count_rank_sum(counters, args, kwargs, result):
    counters["ranktests.rank_sum_calls"] += 1
    counters["ranktests.ranked_values"] += result.n_a + result.n_b


def _count_passages(counters, args, kwargs, result):
    counters["inverse_stats.first_passage_calls"] += 1
    counters["inverse_stats.starts"] += result.n_starts
    counters["inverse_stats.crossed"] += len(result)


_REPORT_WRITERS = ("write_curve_tsv", "write_chi_tsv", "write_pair_conditionals_tsv",
                   "write_time_resolved_tsv", "write_wilcoxon_tsv",
                   "write_histogram_tsv", "_write_summary")

# (module, attribute the pipeline calls through, layer metric, counter)
WRAPS = (
    ("condcorr.cli", "main", "cli.self", None),
    ("condcorr.io", "run_simulate", "io.run_simulate_self", None),
    ("condcorr.io", "run_condcorr", "io.run_condcorr_self", None),
    ("condcorr.io", "run_invstats", "io.run_invstats_self", None),
    ("condcorr.io", "simulate_market", "fearsim.simulate", None),
    ("condcorr.io", "to_aligned_panel", "fearsim.simulate", None),
    ("condcorr.io", "write_price_csv", "io.write_csv", _count_csv_bytes),
    ("condcorr.io", "ingest_csv", "io.ingest", _count_rows),
    ("condcorr.io", "align_panel", "timeseries.align", None),
    ("condcorr.io", "detrend_log_price", "timeseries.detrend", None),
    ("condcorr.conditional", "analyze_panel", "conditional.analyze", None),
    ("condcorr.io", "wilcoxon_rank_sum", "ranktests.rank_sum", _count_rank_sum),
    ("condcorr.io", "equal_size_subsample", "ranktests.subsample", None),
    ("condcorr.inverse_stats", "first_passage_times", "inverse_stats.first_passage",
     _count_passages),
    ("condcorr.inverse_stats", "waiting_time_histogram", "inverse_stats.histogram", None),
    ("condcorr.inverse_stats", "fit_tail_exponent", "inverse_stats.fit", None),
) + tuple(("condcorr.io", name, "io.write_reports", None) for name in _REPORT_WRITERS)

LAYER_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in WRAPS))
# layers whose peak memory is reported; tracemalloc runs only inside their
# spans, so the memory run does not slow the CSV parsing around them
PEAK_METRICS = ("conditional.analyze", "inverse_stats.first_passage")


class Tracer:
    """Records spans of the wrapped calls made while it is installed."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._open: list[dict] = []

    def install(self):
        for module_name, attr, metric, count in WRAPS:
            module = importlib.import_module(module_name)
            name = f"{module_name}.{attr}"
            if not hasattr(module, attr):
                # the pipeline no longer calls through this name; its time
                # falls into the caller's self time
                self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(getattr(module, attr), name, metric, count))

    def _wrap(self, fn, name, metric, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        return traced

    def _enter(self, name, metric):
        span = {"name": name, "metric": metric,
                "parent": self._open[-1]["id"] if self._open else None,
                "id": len(self.spans)}
        if self.memory and metric in PEAK_METRICS and not tracemalloc.is_tracing():
            tracemalloc.start()
            span["traced_memory"] = True
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()
        if span.pop("traced_memory", False):
            span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer metric: each span's duration minus its children's."""
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = Counter()
    for s in spans:
        out[s["metric"]] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(out)


def peak_mib(spans: list[dict], metric: str) -> float:
    """Largest tracemalloc peak over the spans of one layer, counted from entry."""
    peaks = [s["peak_bytes"] for s in spans if "peak_bytes" in s and s["metric"] == metric]
    return max(peaks, default=0) / 2**20
