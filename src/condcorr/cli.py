"""Command-line entry points.

Subcommands are independently runnable stages of the same pipeline:

* ``simulate``     — write a seeded synthetic market as an ingestible panel
* ``ingest-check`` — validate CSVs or a whole manifest without analyzing
* ``condcorr``     — conditional correlation curve, χ distributions, C_t,
                     and Wilcoxon tables for a panel
* ``invstats``     — waiting-time histograms and tail fits for one series

Analysis parameters come from an optional flat JSON config, which may hold
any ``RunConfig`` field and is checked whole; ``condcorr`` and ``invstats``
each take a flag, the field's name in kebab-case, for every field they read
(``io.COMMAND_FIELDS``).  Exit codes: 0 success, 2 validation error, 3 data
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from dataclasses import fields

import numpy as np

from . import io
from .errors import CondCorrError, ValidationError
from .fearsim import SimConfig

# each RunConfig field's flag help; the level lists also get a metavar
_FLAG_HELP = {
    "delta_t": "return horizon Δt in days",
    "dt1": "smallest correlation window span",
    "dt2": "largest correlation window span",
    "rho_grid": "signed return levels (invstats takes their magnitudes); use the form "
                "--rho-grid=-0.05,... when the list starts with a negative number",
    "chi_levels": "|rho| magnitudes for per-pair analyses",
    "ct_level": "|rho| magnitude for the time-resolved analysis",
    "detrend_window": "centred moving-average width in days (odd); 0 disables detrending",
    "seed": "subsampling seed",
}
_FLAG_METAVARS = {"rho_grid": "R1,R2,...", "chi_levels": "L1,L2,..."}
_FLAG_TYPES = {"int": int, "float": float}


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text at spaces only, so ``--rho-grid=-0.05,...`` stays whole."""

    def _split_lines(self, text, width):
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def _number_list(text: str) -> tuple[float, ...]:
    """A ``--rho-grid`` or ``--chi-levels`` value: comma-separated numbers."""
    try:
        return tuple(map(float, text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_config_flags(parser: argparse.ArgumentParser, names):
    """``--config``, then a flag typed by its field for each field in ``names``."""
    group = parser.add_argument_group("analysis configuration",
                                      "defaults < --config JSON < these flags")
    group.add_argument("--config", metavar="JSON", help="flat JSON config file")
    for f in fields(io.RunConfig):
        if f.name in names:
            group.add_argument("--" + f.name.replace("_", "-"),
                               type=_FLAG_TYPES.get(f.type, _number_list),
                               metavar=_FLAG_METAVARS.get(f.name), help=_FLAG_HELP[f.name])


def _build_config(args: argparse.Namespace) -> io.RunConfig:
    return io.load_run_config(
        args.config, {name: getattr(args, name) for name in io.COMMAND_FIELDS[args.command]})


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
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_condcorr(args) -> int:
    config = _build_config(args)
    manifest = io.load_manifest(args.manifest)
    summary = io.run_condcorr(manifest, config, args.out)
    for name, key in (("pairs", "wilcoxon_pairs"), ("C_t  ", "wilcoxon_time")):
        for level, res in summary[key].items():
            print(f"{name} |rho|={level}: z={res['z']:.4f} log10(p)={res['log10_p']:.2f} "
                  f"n={res['n']}")
        for level in summary[f"{key}_skipped"]:
            print(f"{name} |rho|={level}: skipped")
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
    p.set_defaults(func=_cmd_simulate, parser=p)

    p = sub.add_parser("ingest-check",
                       help="validate CSV files or a manifest (.json)")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.add_argument("--price-column", default=io.DEFAULT_PRICE_COLUMN)
    p.set_defaults(func=_cmd_ingest_check, parser=p)

    p = sub.add_parser("condcorr", help="run the conditional correlation pipeline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, io.COMMAND_FIELDS["condcorr"])
    p.set_defaults(func=_cmd_condcorr, parser=p)

    p = sub.add_parser("invstats", help="run inverse statistics on one series")
    p.add_argument("--manifest", help="analyze the manifest's index series")
    p.add_argument("--csv", help="analyze a single CSV file")
    p.add_argument("--out", required=True)
    _add_config_flags(p, io.COMMAND_FIELDS["invstats"])
    p.set_defaults(func=_cmd_invstats, parser=p)

    for p in sub.choices.values():
        p.formatter_class = _HelpFormatter
    return parser


def main(argv=None) -> int:
    # argparse hands a subcommand's unknown flags back to the top parser;
    # report them with the usage of the subcommand that was given them
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except CondCorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
