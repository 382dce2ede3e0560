"""Command-line entry points.

Subcommands are independently runnable stages of the same pipeline:

* ``simulate``     — write a seeded synthetic market as an ingestible panel
* ``ingest-check`` — validate CSVs or a whole manifest without analyzing
* ``condcorr``     — conditional correlation curve, χ distributions, C_t,
                     and Wilcoxon tables for a panel
* ``invstats``     — waiting-time histograms and tail fits for one series
* ``wilcoxon``     — standalone rank-sum z-test of two value files
* ``chi``          — the relative-difference calculator for two C values

Analysis parameters come from an optional flat JSON config; every field can
be overridden by a flag of the same name in kebab-case.  Exit codes: 0
success, 2 validation error, 3 data error, 4 insufficient statistics.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import io
from .conditional import relative_difference_chi
from .errors import CondCorrError, DataError, ValidationError
from .fearsim import SimConfig
from .ranktests import equalize_sizes, wilcoxon_rank_sum

_CONFIG_FIELDS = [f.name for f in fields(io.RunConfig)]


def _print_json(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    print()


def _number_list(text: str) -> tuple[float, ...]:
    """A ``--rho-grid`` or ``--chi-levels`` value: comma-separated numbers."""
    try:
        return tuple(map(float, text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_config_flags(parser: argparse.ArgumentParser):
    group = parser.add_argument_group(
        "analysis configuration",
        "defaults < --config JSON < these flags",
    )
    group.add_argument("--config", metavar="JSON", help="flat JSON config file")
    group.add_argument("--delta-t", type=int, help="return horizon Δt in days")
    group.add_argument("--dt1", type=int, help="smallest correlation window span")
    group.add_argument("--dt2", type=int, help="largest correlation window span")
    group.add_argument("--rho-grid", metavar="R1,R2,...", type=_number_list,
                       help="signed return levels for the curve; use the "
                            "--rho-grid=-0.05,... form when the list starts "
                            "with a negative number")
    group.add_argument("--chi-levels", metavar="L1,L2,...", type=_number_list,
                       help="|rho| magnitudes for per-pair analyses")
    group.add_argument("--ct-level", type=float,
                       help="|rho| magnitude for the time-resolved analysis")
    group.add_argument("--detrend-window", type=int,
                       help="centred moving-average width in days (odd); "
                            "0 disables detrending")
    group.add_argument("--bin-ratio", type=float,
                       help="edge ratio for logarithmic waiting-time bins")
    group.add_argument("--seed", type=int, help="subsampling seed")
    group.add_argument("--min-samples", type=int,
                       help="conditional-set size below which points are flagged")
    group.add_argument("--epsilon", type=float, help="χ denominator guard")


def _build_config(args: argparse.Namespace) -> io.RunConfig:
    return io.load_run_config(args.config,
                              {name: getattr(args, name) for name in _CONFIG_FIELDS})


def _cmd_simulate(args) -> int:
    config = SimConfig(**{f.name: getattr(args, f.name) for f in fields(SimConfig)})
    summary = io.run_simulate(config, args.out)
    print(f"wrote {len(summary['outputs']['files'])} CSV files and "
          f"manifest.json to {args.out}")
    return 0


def _cmd_ingest_check(args) -> int:
    report = {}
    for path in args.paths:
        if str(path).endswith(".json"):
            manifest = io.load_manifest(path)
            panel = io.load_panel(manifest)
            report[str(path)] = {
                "kind": "manifest",
                "n_stocks": panel.n_stocks,
                "common_days": panel.n_days,
                "first_date": str(panel.calendar[0]),
                "last_date": str(panel.calendar[-1]),
                "tickers": list(panel.tickers),
            }
        else:
            series = io.ingest_csv(path, args.price_column)
            report[str(path)] = {
                "kind": "csv",
                "ticker": series.ticker,
                "rows": len(series),
                "first_date": str(series.dates[0]),
                "last_date": str(series.dates[-1]),
                "price_min": float(np.min(series.closes)),
                "price_max": float(np.max(series.closes)),
            }
    _print_json(report)
    return 0


def _cmd_condcorr(args) -> int:
    config = _build_config(args)
    manifest = io.load_manifest(args.manifest)
    summary = io.run_condcorr(manifest, config, args.out)
    for name, tests in (("pairs", summary["wilcoxon_pairs"]), ("C_t  ", summary["wilcoxon_time"])):
        for level, res in tests.items():
            print(f"{name} |rho|={level}: z={res['z']:.4f} log10(p)={res['log10_p']:.2f} "
                  f"n={res['n']}")
    print(f"reports written to {args.out}")
    return 0


def _cmd_invstats(args) -> int:
    config = _build_config(args)
    if (args.manifest is None) == (args.csv is None):
        raise ValidationError("give exactly one of --manifest or --csv")
    config.invstats_levels()  # refuse a 0 level before reading any input
    source = io.load_manifest(args.manifest) if args.manifest else args.csv
    summary = io.run_invstats(source, config, args.out)
    for tag, entry in summary["levels"].items():
        mode_plus, mode_minus, asymmetry = (
            "none" if entry[key] is None else format(entry[key], spec)
            for key, spec in (("mode_plus", ".4g"), ("mode_minus", ".4g"),
                              ("asymmetry", "+.4g")))
        print(f"|rho|={tag}: mode(+)={mode_plus} mode(-)={mode_minus} "
              f"asymmetry={asymmetry}")
    print(f"reports written to {args.out}")
    return 0


def _read_values(path) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{p}: no such file")
    values = []
    with open(p, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise DataError(f"{p}:{lineno}: not a number: {text!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{p}:{lineno}: not finite: {text!r}")
            values.append(value)
    if not values:
        raise DataError(f"{p}: no values")
    return np.asarray(values)


def _cmd_wilcoxon(args) -> int:
    a = _read_values(args.sample_a)
    b = _read_values(args.sample_b)
    if args.equalize:
        a, b = equalize_sizes(a, b, args.seed)
    _print_json(asdict(wilcoxon_rank_sum(a, b)))
    return 0


def _cmd_chi(args) -> int:
    chi = relative_difference_chi(args.c_minus, args.c_plus, args.epsilon)
    if chi is None:
        reason = (f"|C(+)| <= epsilon ({args.epsilon:g})" if abs(args.c_plus) <= args.epsilon
                  else "(C(-) - C(+))/|C(+)| overflows")
        _print_json({"chi": None, "excluded": True, "reason": reason})
        return 4
    _print_json({"chi": chi, "excluded": False})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condcorr",
        description="Direction-conditioned correlation and waiting-time "
                    "asymmetry analysis for daily price panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic market panel")
    p.add_argument("--n-stocks", type=int, required=True)
    p.add_argument("--n-steps", type=int, required=True)
    p.add_argument("--fear-probability", type=float, required=True,
                   help="probability per step of a synchronized down move")
    p.add_argument("--step-size", type=float, default=0.01,
                   help="log-price increment per step")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ingest-check",
                       help="validate CSV files or a manifest (.json)")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.add_argument("--price-column", default="Adj Close")
    p.set_defaults(func=_cmd_ingest_check)

    p = sub.add_parser("condcorr", help="run the conditional correlation pipeline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_condcorr)

    p = sub.add_parser("invstats", help="run inverse statistics on one series")
    p.add_argument("--manifest", help="analyze the manifest's index series")
    p.add_argument("--csv", help="analyze a single CSV file")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_invstats)

    p = sub.add_parser("wilcoxon",
                       help="rank-sum z-test of two one-number-per-line files")
    p.add_argument("sample_a")
    p.add_argument("sample_b")
    p.add_argument("--equalize", action="store_true",
                   help="subsample the larger file to the smaller's size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_wilcoxon)

    p = sub.add_parser("chi", help="relative difference (C(-)-C(+))/|C(+)|")
    p.add_argument("c_minus", type=float)
    p.add_argument("c_plus", type=float)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.set_defaults(func=_cmd_chi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CondCorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
