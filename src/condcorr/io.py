"""Data ingestion, run configuration, and result persistence.

Input CSVs follow the daily-quote schema ``Date,Open,High,Low,Close,Adj
Close,Volume`` with ISO dates.  All numeric output uses 12 significant
digits; p-values are written as log10(p) because the z scores of interest
live far beyond double-precision tail printing.  Every run writes a
``summary.json`` recording the settings it reads and the input hashes that
reproduce it; summaries carry no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, conditional, inverse_stats
from .errors import DataError, InsufficientDataError, ValidationError, check_fields
from .fearsim import SimConfig, simulate_market, to_aligned_panel
from .ranktests import RankSumResult, equalize_sizes, wilcoxon_rank_sum
from .timeseries import (DEFAULT_DETREND_WINDOW, AlignedPanel, PriceSeries, align_panel,
                         detrend_log_price)

__all__ = [
    "CSV_HEADER",
    "DatasetManifest",
    "RunConfig",
    "ingest_csv",
    "load_manifest",
    "load_panel",
    "load_run_config",
    "run_simulate",
    "run_condcorr",
    "run_invstats",
    "fmt",
]

DEFAULT_PRICE_COLUMN = "Adj Close"
CSV_HEADER = ["Date", "Open", "High", "Low", "Close", DEFAULT_PRICE_COLUMN, "Volume"]

# proleptic Gregorian ordinal of 1970-01-01, day 0 of datetime64[D]
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def fmt(x) -> str:
    """12-significant-digit decimal rendering used in every output file."""
    if x is None:
        return "nan"
    return f"{float(x):.12g}"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# ingestion


def _header_columns(reader, path, price_column: str) -> tuple[int, int]:
    """Read the header record; return the ``Date`` and price column indices
    (a repeated name means its last column)."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file, no header row")
    missing = [c for c in ("Date", price_column) if c not in header]
    if missing:
        raise DataError(f"{path}: header {header} lacks column(s) {missing}")
    column = {field: k for k, field in enumerate(header)}
    return column["Date"], column[price_column]


# a Date field the fast path takes is YYYY-MM-DD in ASCII digits: byte k of
# its S11 field less _DATE_LOW[k] (wrapping) is at most _DATE_SPAN[k], and
# byte 11 is empty, since a longer field is cut to 11 bytes
_DATE_LOW = np.frombuffer(b"0000-00-00\0", np.uint8)
_DATE_SPAN = np.frombuffer(b"\t\t\t\t\0\t\t\0\t\t\0", np.uint8)
# numpy parses year 0000, which datetime.date refuses
_FIRST_DATE = np.datetime64("0001-01-01", "D")


def _date_order(dates: np.ndarray):
    """Stable date order of ``dates``, the sorted dates, and the sorted
    positions whose date repeats the next one."""
    order = np.argsort(dates, kind="stable")
    dates = dates[order]
    return order, dates, np.flatnonzero(dates[1:] == dates[:-1])


def ingest_csv(path, price_column: str = DEFAULT_PRICE_COLUMN,
               ticker: str | None = None) -> PriceSeries:
    """Parse one daily-quote CSV into a PriceSeries.

    The header record is read with ``csv.reader``.  The body is then parsed
    in one ``np.loadtxt`` call over the ``Date`` and price columns, the
    dates read as 11-byte strings and converted in one cast to
    ``datetime64[D]``.  That fast path takes a file only if it holds no NUL
    byte (numpy drops a field's trailing NULs), every date is exactly
    ``YYYY-MM-DD`` in ASCII digits with a year from 0001, and every price
    is finite and positive, with at least one row and no repeated date.
    Any other file, and any exception or warning on the way, goes to the
    ``csv.reader`` path (``_ingest_csv_reader``), which alone decides what
    is accepted and alone raises ``DataError``; a padded, basic or week
    date is read there.  Both paths give the same series, so the accepted
    forms, the values and every error message are those of the
    ``csv.reader`` path; only ``csv.field_size_limit()`` binds that path
    alone.  A file that is not UTF-8, or that ``csv.reader`` refuses, raises
    ``DataError`` too.  The ticker defaults to the file stem.
    """
    # any failure or warning hands the file to the csv.reader path, which
    # decides whether it is an error and reports it
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = _parse_fast(path, price_column)
    except Exception:
        parsed = None
    if parsed is None:
        parsed = _ingest_csv_reader(path, price_column)
    return PriceSeries(ticker if ticker is not None else Path(path).stem, *parsed)


def _parse_fast(path, price_column: str):
    """The ``np.loadtxt`` path of ``ingest_csv``: the sorted dates and
    their prices, or None for a file it leaves to the ``csv.reader`` path."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        date_col, price_col = _header_columns(reader, path, price_column)
    if b"\0" in Path(path).read_bytes():
        return None
    body = np.loadtxt(path, delimiter=",", skiprows=reader.line_num,
                      usecols=(date_col, price_col),
                      dtype=[("d", "S11"), ("p", np.float64)],
                      quotechar='"', comments=None, encoding="utf-8", ndmin=1)
    raw = np.ascontiguousarray(body["d"]).view(np.uint8).reshape(-1, 11)
    if len(body) == 0 or not np.all(raw - _DATE_LOW <= _DATE_SPAN):
        return None
    order, dates, repeats = _date_order(body["d"].astype("datetime64[D]"))
    closes = body["p"][order]
    if (len(repeats) or dates[0] < _FIRST_DATE
            or not np.all(np.isfinite(closes) & (closes > 0.0))):
        return None
    return dates, closes


def _ingest_csv_reader(path, price_column: str = DEFAULT_PRICE_COLUMN):
    """The ``csv.reader`` path of ``ingest_csv``: the sorted dates and
    their prices.  It alone raises ``DataError``.

    Only the stripped ``Date`` and price fields of each non-blank record
    are kept (a short row's absent fields are empty), and every record is
    read before any is converted, so a read error wins over a bad row.  The
    rows are then converted in file order, each date with
    ``datetime.date.fromisoformat`` (every ISO form it accepts) before its
    price with ``float``, and the first that fails, or whose price is not
    finite and positive, raises naming its physical line number.  Rows may
    arrive in any order: a stable sort by date follows, and duplicate dates
    are rejected naming both lines.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    raw_dates, raw_prices, linenos = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            date_col, price_col = _header_columns(reader, path, price_column)
            width = max(date_col, price_col) + 1
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    row += [""] * (width - len(row))
                raw_dates.append(row[date_col].strip())
                raw_prices.append(row[price_col].strip())
                linenos.append(reader.line_num)
    except csv.Error as exc:  # an oversized field; on Python 3.10 also a NUL byte
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # decoded in chunks, so no line number
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    ordinals, closes = [], []
    for raw_date, raw_price, lineno in zip(raw_dates, raw_prices, linenos):
        try:
            ordinals.append(datetime.date.fromisoformat(raw_date).toordinal())
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad date {raw_date!r}") from None
        if raw_price in ("", "null", "NA", "N/A"):
            raise DataError(f"{path}:{lineno}: missing {price_column!r} value")
        try:
            price = float(raw_price)
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: bad {price_column!r} value {raw_price!r}") from None
        if not (math.isfinite(price) and price > 0.0):
            raise DataError(f"{path}:{lineno}: non-positive price {raw_price!r}")
        closes.append(price)
    if not linenos:
        raise DataError(f"{path}: no data rows")
    order, dates, repeats = _date_order(
        (np.array(ordinals) - _EPOCH_ORDINAL).astype("datetime64[D]"))
    if len(repeats):
        k = repeats[0]
        raise DataError(f"{path}: duplicate date {dates[k]} "
                        f"(lines {linenos[order[k]]} and {linenos[order[k + 1]]})")
    return dates, np.array(closes)[order]


@dataclass(frozen=True)
class DatasetManifest:
    """Which files make up a panel.  Paths are relative to ``base_dir``.

    ``stock_files`` must be a sequence of at least two ``(ticker, path)``
    string pairs with distinct tickers, and ``date_range`` None or two dates
    ``date.fromisoformat`` accepts, the first not after the second (kept as
    YYYY-MM-DD); ``errors.check_fields`` checks the strings.
    """

    index_file: str
    stock_files: tuple[tuple[str, str], ...]
    date_range: tuple[str, str] | None = None
    price_column: str = DEFAULT_PRICE_COLUMN
    base_dir: Path = Path(".")

    def __post_init__(self):
        check_fields(self)
        pairs = self.stock_files
        if not (isinstance(pairs, (list, tuple)) and all(
                isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(part, str) for part in pair) for pair in pairs)):
            raise ValidationError("stock_files: expected a list of [ticker, path] "
                                  f"string pairs, got {pairs!r}")
        object.__setattr__(self, "stock_files", tuple(map(tuple, pairs)))
        if len(self.stock_files) < 2:
            raise ValidationError("manifest needs at least 2 stock files")
        tickers = [t for t, _ in self.stock_files]
        if len(set(tickers)) != len(tickers):
            raise ValidationError(f"duplicate tickers in manifest: {sorted(tickers)}")
        if self.date_range is not None:
            object.__setattr__(self, "date_range", _date_range(self.date_range))

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else Path(self.base_dir) / p


def _date_range(bounds) -> tuple[str, str]:
    """``bounds`` as two YYYY-MM-DD dates; the ValidationError names
    ``date_range``."""
    try:
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ValueError
        first, last = map(datetime.date.fromisoformat, bounds)
    except (TypeError, ValueError):
        raise ValidationError(
            f"date_range: expected null or two ISO dates, got {bounds!r}") from None
    if first > last:
        raise ValidationError(f"date_range: {bounds[0]!r} is after {bounds[1]!r}")
    return first.isoformat(), last.isoformat()


def _load_record(cls, path, noun: str, overrides=None, **given):
    """A ``cls`` from the JSON object in ``path``, then ``overrides``, then the
    ``given`` fields, which the file may not set.  A missing file or bad JSON
    raises DataError; a key that is not a field the file may set, or a
    missing required field, raises ValidationError naming it."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such {noun} file")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(cls)}.difference(given)
    if unknown:
        raise ValidationError(f"{path}: unknown {noun} keys {sorted(unknown)}")
    values = raw | (overrides or {}) | given
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if missing:
        raise ValidationError(f"{path}: {noun} needs {' and '.join(missing)}")
    return cls(**values)


def load_manifest(path) -> DatasetManifest:
    """Read a manifest JSON: index_file, stock_files, date_range, price_column."""
    return _load_record(DatasetManifest, path, "manifest", base_dir=Path(path).parent)


def _load_series(manifest: DatasetManifest, ticker: str, rel: str) -> PriceSeries:
    """One manifest file, ingested and clipped to the manifest's date range."""
    series = ingest_csv(manifest.resolve(rel), manifest.price_column, ticker=ticker)
    date_range = manifest.date_range
    if date_range is None:
        return series
    start, end = np.datetime64(date_range[0], "D"), np.datetime64(date_range[1], "D")
    mask = (series.dates >= start) & (series.dates <= end)
    if not np.any(mask):
        raise DataError(f"{ticker}: no rows within {date_range}")
    return PriceSeries(ticker, series.dates[mask], series.closes[mask])


def load_panel(manifest: DatasetManifest) -> AlignedPanel:
    """Ingest every file in the manifest and align onto the common calendar."""
    index = _load_series(manifest, "INDEX", manifest.index_file)
    stocks = [_load_series(manifest, t, p) for t, p in manifest.stock_files]
    return align_panel(stocks, index)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Analysis parameters; a command takes flags for and records only its ``COMMAND_FIELDS``.

    rho_grid holds signed levels; chi_levels and ct_level are positive
    magnitudes (each expands to a ± pair), no two chi_levels with one ``fmt``
    tag, which names their report files.  invstats subtracts a centred moving
    average over detrend_window days (odd, >= 3; 0 turns detrending off).
    ``errors.check_fields`` checks the types; seed must be >= 0.
    """

    delta_t: int = 1
    dt1: int = conditional.DEFAULT_WINDOW_RANGE[0]
    dt2: int = conditional.DEFAULT_WINDOW_RANGE[1]
    rho_grid: tuple[float, ...] = (
        -0.15, -0.10, -0.08, -0.05, -0.04, -0.03, -0.02, -0.01,
        0.01, 0.02, 0.03, 0.04, 0.05, 0.08, 0.10, 0.15,
    )
    chi_levels: tuple[float, ...] = (0.03, 0.05, 0.10)
    ct_level: float = 0.05
    detrend_window: int = DEFAULT_DETREND_WINDOW
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.delta_t < 1:
            raise ValidationError("delta_t must be >= 1")
        if not 1 <= self.dt1 < self.dt2:
            raise ValidationError(
                f"need 1 <= dt1 < dt2, got dt1={self.dt1}, dt2={self.dt2}"
            )
        if len(self.rho_grid) == 0:
            raise ValidationError("rho_grid must not be empty")
        if any(level <= 0 for level in self.chi_levels):
            raise ValidationError("chi_levels must be positive magnitudes")
        tags = [fmt(level) for level in self.chi_levels]
        if len(set(tags)) < len(tags):
            raise ValidationError(f"chi_levels must not repeat a level, got {', '.join(tags)}")
        if self.ct_level <= 0:
            raise ValidationError("ct_level must be a positive magnitude")
        if self.detrend_window and (self.detrend_window < 3 or self.detrend_window % 2 == 0):
            raise ValidationError("detrend_window must be 0 (off) or odd and >= 3")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @property
    def window_range(self) -> tuple[int, int]:
        return (self.dt1, self.dt2)

    def invstats_levels(self) -> list[float]:
        """The sorted |ρ| magnitudes invstats scans; a 0 level raises ValidationError."""
        if 0.0 in self.rho_grid:
            raise ValidationError("rho_grid for inverse statistics must not contain 0")
        return sorted({abs(r) for r in self.rho_grid})


# the RunConfig fields each analysis command reads, dt1 and dt2 through window_range
COMMAND_FIELDS = {"condcorr": ("delta_t", "dt1", "dt2", "rho_grid", "chi_levels", "ct_level",
                               "seed"),
                  "invstats": ("rho_grid", "detrend_window")}


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional flat JSON file plus overrides, which
    beat the file; a None override is not given."""
    values = {k: v for k, v in (overrides or {}).items() if v is not None}
    return RunConfig(**values) if path is None else _load_record(RunConfig, path, "config", values)


# ---------------------------------------------------------------------------
# writers


def _write_tsv(path: Path, header: list[str], rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def write_curve_tsv(path, curve: conditional.CorrelationCurve):
    _write_tsv(Path(path), ["rho", "C", "n_samples", "n_excluded"], (
        [fmt(p.rho), fmt(p.value), str(p.sample_count), str(p.excluded_windows)]
        for p in curve.points
    ))


def write_chi_tsv(path, report: conditional.ChiReport):
    _write_tsv(Path(path), ["x", "y", "chi"], (
        [p.pair[0], p.pair[1], fmt(p.chi)]
        for p in report.pairs if p.chi is not None
    ))


def write_pair_conditionals_tsv(path, report: conditional.ChiReport):
    _write_tsv(Path(path), ["x", "y", "C_minus", "C_plus", "n_minus", "n_plus"], (
        [p.pair[0], p.pair[1], fmt(p.c_minus), fmt(p.c_plus),
         str(p.count_minus), str(p.count_plus)]
        for p in report.pairs
    ))


def write_time_resolved_tsv(path, tr: conditional.TimeResolvedCorrelation,
                            calendar: np.ndarray):
    _write_tsv(Path(path), ["date", "C_t"], (
        [str(calendar[t]), fmt(v)]
        for t, v in zip(tr.times, tr.values)
    ))


def write_wilcoxon_tsv(path, rows: list[tuple[float, RankSumResult]]):
    _write_tsv(Path(path), ["rho", "z", "log10_p", "n"], (
        [fmt(rho), fmt(r.z), fmt(r.log10_p), str(min(r.n_a, r.n_b))]
        for rho, r in rows
    ))


def write_histogram_tsv(path, hist: inverse_stats.WaitingTimeHistogram):
    _write_tsv(Path(path), ["tau_center", "density"], (
        [fmt(c), fmt(d)]
        for c, d in zip(hist.bin_centers, hist.densities)
    ))


def _output_dir(path) -> Path:
    """``path``, made a directory with its parents; ValidationError if it cannot be one."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot create output directory ({exc.strerror})") from None
    return Path(path)


def _write_summary(out_dir: Path, payload: dict):
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run orchestrators


def write_price_csv(path, series: PriceSeries, *, dates: list[str] | None = None):
    """Write a PriceSeries in the ingestion schema (flat OHLC, zero volume).

    ``dates``, when given, are the series' dates already formatted as
    YYYY-MM-DD, so a caller writing many series on one calendar formats it
    once.
    """
    if dates is None:
        dates = np.datetime_as_string(series.dates).tolist()
    closes = series.closes.tolist()
    # one %-format for the whole file: "%.12g" renders a float as fmt does,
    # and each piece keeps its trailing comma
    values = (("%.12g,\n" * len(closes)) % tuple(closes)).split("\n")
    rows = [",".join(CSV_HEADER) + "\n"]
    rows += [f"{date},{v}{v}{v}{v}{v}0\n" for date, v in zip(dates, values)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(rows))


def run_simulate(sim_config: SimConfig, output_dir) -> dict:
    """Simulate a market and persist it as an ingestible CSV panel + manifest."""
    out = _output_dir(output_dir)
    panel = to_aligned_panel(simulate_market(sim_config))
    dates = np.datetime_as_string(panel.calendar).tolist()
    stock_files = []
    for stock in panel.stocks:
        rel = f"{stock.ticker}.csv"
        write_price_csv(out / rel, stock, dates=dates)
        stock_files.append([stock.ticker, rel])
    write_price_csv(out / "INDEX.csv", panel.index_series, dates=dates)
    manifest = {
        "index_file": "INDEX.csv",
        "stock_files": stock_files,
        "date_range": None,
        "price_column": DEFAULT_PRICE_COLUMN,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary = {
        "command": "simulate",
        "config": asdict(sim_config),
        "outputs": {
            "manifest": "manifest.json",
            "files": [f for _, f in stock_files] + ["INDEX.csv"],
        },
        "version": __version__,
    }
    _write_summary(out, summary)
    return summary


def _input_hashes(manifest: DatasetManifest) -> dict:
    files = {"INDEX": manifest.resolve(manifest.index_file)}
    files.update({t: manifest.resolve(p) for t, p in manifest.stock_files})
    return {t: _sha256(p) for t, p in sorted(files.items())}


def _rank_test(plus: np.ndarray, minus: np.ndarray, seed: int) -> RankSumResult | None:
    """Rank-sum test of ``plus`` against ``minus`` after trimming the larger
    side to the smaller's size; None below 2 values a side."""
    plus, minus = equalize_sizes(plus, minus, seed)
    return wilcoxon_rank_sum(plus, minus) if len(plus) >= 2 else None


def _rank_tests_summary(tests: list[tuple[float, RankSumResult]]) -> dict:
    """The summary.json block of one Wilcoxon table: z, log10(p), n per level."""
    return {fmt(level): {"z": r.z, "log10_p": r.log10_p, "n": min(r.n_a, r.n_b)}
            for level, r in tests}


def run_condcorr(manifest: DatasetManifest | None, config: RunConfig, output_dir,
                 panel: AlignedPanel | None = None) -> dict:
    """Full conditional-correlation pipeline -> TSV reports + summary.json.

    Emits the ρ-curve, per-pair χ distributions and conditional values, the
    ±ct_level time-resolved C_t series, and two Wilcoxon tables: one over
    per-pair conditional correlations, one over the C_t samples (the larger
    side subsampled to equal size first).
    """
    out = _output_dir(output_dir)
    if panel is None:
        if manifest is None:
            raise ValidationError("need a manifest or a pre-built panel")
        panel = load_panel(manifest)
    ct_levels = (config.ct_level, -config.ct_level)
    analysis = conditional.analyze_panel(
        panel,
        rho_grid=config.rho_grid,
        window_range=config.window_range,
        horizon=config.delta_t,
        chi_levels=config.chi_levels,
        ct_levels=ct_levels,
    )
    write_curve_tsv(out / "curve.tsv", analysis.curve)

    pair_tests: list[tuple[float, RankSumResult]] = []
    skipped_pair_tests = []
    for level in config.chi_levels:
        report = analysis.chi[level]
        tag = fmt(level)
        write_chi_tsv(out / f"chi_{tag}.tsv", report)
        write_pair_conditionals_tsv(out / f"pairs_{tag}.tsv", report)
        test = _rank_test(
            np.array([p.c_plus for p in report.pairs if p.c_plus is not None]),
            np.array([p.c_minus for p in report.pairs if p.c_minus is not None]),
            config.seed)
        if test is None:
            skipped_pair_tests.append(level)
        else:
            pair_tests.append((level, test))
    write_wilcoxon_tsv(out / "wilcoxon_pairs.tsv", pair_tests)

    ct_plus, ct_minus = (analysis.time_resolved[level] for level in ct_levels)
    for side, tr in (("plus", ct_plus), ("minus", ct_minus)):
        write_time_resolved_tsv(out / f"ct_{side}_{fmt(config.ct_level)}.tsv", tr, panel.calendar)
    ct_test = _rank_test(ct_plus.values, ct_minus.values, config.seed)
    ct_tests = [] if ct_test is None else [(config.ct_level, ct_test)]
    write_wilcoxon_tsv(out / "wilcoxon_time.tsv", ct_tests)

    summary = {
        "command": "condcorr",
        "config": {name: getattr(config, name) for name in COMMAND_FIELDS["condcorr"]},
        "inputs": _input_hashes(manifest) if manifest is not None else {},
        "panel": {
            "n_stocks": panel.n_stocks,
            "n_days": panel.n_days,
            "first_date": str(panel.calendar[0]),
            "last_date": str(panel.calendar[-1]),
        },
        "curve": {
            fmt(p.rho): {
                "C": p.value,
                "n_samples": p.sample_count,
                "n_excluded_windows": p.excluded_windows,
                "stderr": p.stderr,
                "flagged_low_statistics": p.flagged,
            }
            for p in analysis.curve.points
        },
        "chi": {
            fmt(level): {
                "n_samples": sum(p.chi is not None for p in analysis.chi[level].pairs),
                "excluded_small_denominator": analysis.chi[level].excluded_denominator,
                "excluded_missing_data": analysis.chi[level].excluded_missing,
            }
            for level in config.chi_levels
        },
        "wilcoxon_pairs": _rank_tests_summary(pair_tests),
        "wilcoxon_pairs_skipped": [fmt(l) for l in skipped_pair_tests],
        "wilcoxon_time": _rank_tests_summary(ct_tests),
        "version": __version__,
    }
    _write_summary(out, summary)
    return summary


def run_invstats(source, config: RunConfig, output_dir) -> dict:
    """Inverse-statistics pipeline on one series -> histogram TSVs + summary.

    ``source`` is a DatasetManifest (its index series is analyzed), a CSV
    path, or a PriceSeries.  The series is detrended in log-price space
    first unless detrend_window is 0.  Levels come from the magnitudes in
    rho_grid; a grid containing 0 is rejected.
    """
    levels = config.invstats_levels()
    out = _output_dir(output_dir)

    inputs = {}
    if isinstance(source, DatasetManifest):
        series = _load_series(source, "INDEX", source.index_file)
        inputs["INDEX"] = _sha256(source.resolve(source.index_file))
    elif isinstance(source, PriceSeries):
        series = source
    else:
        series = ingest_csv(source)
        inputs[series.ticker] = _sha256(Path(source))

    if config.detrend_window:
        log_prices = detrend_log_price(series, config.detrend_window)
    else:
        log_prices = np.log(series.closes)

    report = inverse_stats.gain_loss_report(log_prices, levels)
    starts = len(log_prices) - 1  # every start is scanned at every level
    level_summaries = {}
    for entry in report.entries:
        tag = fmt(entry.level_abs)
        fits = {}
        level_summaries[tag] = row = {
            "mode_plus": entry.mode_plus,
            "mode_minus": entry.mode_minus,
            "asymmetry": entry.asymmetry,
            "tail_fit": fits,
        }
        for side, hist in (("plus", entry.plus), ("minus", entry.minus)):
            if hist is None:
                fits[side] = {"error": f"no crossings to histogram (all {starts} "
                                       "starts censored)"}
                row[f"n_{side}"], row[f"censored_{side}"] = 0, starts
                continue
            write_histogram_tsv(out / f"hist_{side}_{tag}.tsv", hist)
            row[f"n_{side}"], row[f"censored_{side}"] = hist.total_samples, hist.censored_count
            try:
                fit = inverse_stats.fit_tail_exponent(hist)
                fits[side] = {"exponent": fit.exponent, "stderr": fit.stderr,
                              "fit_range": list(fit.fit_range), "n_bins": fit.n_bins}
            except InsufficientDataError as exc:
                fits[side] = {"error": str(exc)}

    summary = {
        "command": "invstats",
        "config": {name: getattr(config, name) for name in COMMAND_FIELDS["invstats"]},
        "inputs": inputs,
        "series": {
            "ticker": series.ticker,
            "n_days": len(series),
            "detrended": bool(config.detrend_window),
        },
        "levels": level_summaries,
        "version": __version__,
    }
    _write_summary(out, summary)
    return summary
