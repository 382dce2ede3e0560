"""Ingestion, manifests, run configuration, report writers, and the CLI."""

import argparse
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import condcorr
from condcorr import conditional
from condcorr import io as cc_io
from condcorr import (
    DataError,
    PriceSeries,
    RunConfig,
    SimConfig,
    ValidationError,
    analyze_panel,
    directional_tests,
    ingest_csv,
    load_manifest,
    load_panel,
    load_run_config,
    run_condcorr,
    run_invstats,
    run_simulate,
    simulate_market,
    to_aligned_panel,
)
from condcorr.cli import build_parser, main
from condcorr.errors import FIELD_TYPES
from condcorr.io import DatasetManifest, fmt, write_price_csv

from conftest import calendar

CSV_HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"
BOTH = ["condcorr", "invstats"]


def csv_file(tmp_path, name, rows, header=CSV_HEADER):
    path = tmp_path / name
    path.write_text(header + "".join(rows))
    return path


def quote(date, price):
    return f"{date},{price},{price},{price},{price},{price},0\n"


def small_config(**kw):
    base = dict(dt1=3, dt2=6, rho_grid=(-0.02, -0.01, 0.01, 0.02),
                chi_levels=(0.01,), ct_level=0.01)
    base.update(kw)
    return RunConfig(**base)


def simulated_dataset(tmp_path, n_stocks=5, n_steps=400, p=0.1, seed=6):
    out = tmp_path / "dataset"
    run_simulate(SimConfig(n_stocks=n_stocks, n_steps=n_steps,
                           fear_probability=p, step_size=0.01, seed=seed), out)
    return out


def assert_same_files(a, b):
    """Directories ``a`` and ``b`` hold the same file names, byte for byte."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_every_exported_name_resolves():
    """Each name in the package's and every submodule's ``__all__`` is an
    attribute of that module, so a deleted name cannot stay exported."""
    modules = [condcorr] + [importlib.import_module(f"condcorr.{info.name}")
                            for info in pkgutil.iter_modules(condcorr.__path__)]
    for module in modules:
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert stale == [], module.__name__


def test_star_import_binds_no_module():
    """``from condcorr import *`` binds the public names only, so it cannot
    shadow a module of the importer's, such as the standard ``io``."""
    namespace = {}
    exec("from condcorr import *", namespace)
    modules = [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert modules == []
    assert "analyze_panel" in namespace


def test_no_field_goes_unchecked():
    """Every field of a record built from outside input has an annotation
    ``check_fields`` checks, or is one of the few its record checks by hand."""
    hand_checked = {"stock_files", "date_range", "base_dir"}
    assert hand_checked <= {f.name for f in dataclasses.fields(DatasetManifest)}
    for record in (SimConfig, RunConfig, DatasetManifest):
        for f in dataclasses.fields(record):
            assert f.type in FIELD_TYPES or f.name in hand_checked, (record.__name__, f.name)


class TestFmt:
    def test_twelve_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333333"
        assert fmt(1.5) == "1.5"
        assert fmt(-0.05) == "-0.05"
        assert fmt(None) == "nan"
        assert fmt(123456789012345.0) == "1.23456789012e+14"


class TestIngest:
    def test_three_row_file(self, tmp_path):
        path = csv_file(tmp_path, "ACME.csv", [
            quote("2000-01-03", "100.0"),
            quote("2000-01-04", "101.5"),
            quote("2000-01-05", "99.25"),
        ])
        s = ingest_csv(path)
        assert s.ticker == "ACME"
        assert len(s) == 3
        np.testing.assert_array_equal(
            s.dates, np.array(["2000-01-03", "2000-01-04", "2000-01-05"],
                              dtype="datetime64[D]"))
        np.testing.assert_allclose(s.closes, [100.0, 101.5, 99.25])

    def test_rows_sorted_by_date(self, tmp_path):
        ordered = csv_file(tmp_path, "A.csv", [
            quote("2000-01-03", "100.0"),
            quote("2000-01-04", "101.5"),
            quote("2000-01-05", "99.25"),
        ])
        shuffled = csv_file(tmp_path, "B.csv", [
            quote("2000-01-05", "99.25"),
            quote("2000-01-03", "100.0"),
            quote("2000-01-04", "101.5"),
        ])
        a, b = ingest_csv(ordered), ingest_csv(shuffled)
        np.testing.assert_array_equal(a.dates, b.dates)
        np.testing.assert_array_equal(a.closes, b.closes)

    def test_ticker_override_and_price_column(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("Date,Close,Adj Close\n2000-01-03,10.0,9.5\n2000-01-04,11.0,10.5\n")
        adj = ingest_csv(path, ticker="NAMED")
        assert adj.ticker == "NAMED"
        np.testing.assert_allclose(adj.closes, [9.5, 10.5])
        raw = ingest_csv(path, price_column="Close")
        np.testing.assert_allclose(raw.closes, [10.0, 11.0])

    def test_zero_price_names_line(self, tmp_path):
        path = csv_file(tmp_path, "Z.csv", [
            quote("2000-01-03", "100.0"),
            quote("2000-01-04", "0.00"),
        ])
        with pytest.raises(DataError, match=r"Z\.csv:3.*non-positive"):
            ingest_csv(path)

    def test_bad_date_names_line(self, tmp_path):
        path = csv_file(tmp_path, "Z.csv", [quote("03/01/2000", "100.0")])
        with pytest.raises(DataError, match=r"Z\.csv:2.*bad date"):
            ingest_csv(path)

    def test_missing_price_names_line(self, tmp_path):
        path = csv_file(tmp_path, "Z.csv", [
            quote("2000-01-03", "100.0"),
            "2000-01-04,1,1,1,1,,0\n",
        ])
        with pytest.raises(DataError, match=r"Z\.csv:3.*missing"):
            ingest_csv(path)

    def test_unparseable_price_names_line(self, tmp_path):
        path = csv_file(tmp_path, "Z.csv", [quote("2000-01-03", "ten")])
        with pytest.raises(DataError, match=r"Z\.csv:2.*'ten'"):
            ingest_csv(path)

    def test_duplicate_date_names_both_lines(self, tmp_path):
        path = csv_file(tmp_path, "Z.csv", [
            quote("2000-01-03", "100.0"),
            quote("2000-01-04", "101.0"),
            quote("2000-01-03", "102.0"),
        ])
        with pytest.raises(DataError, match=r"duplicate date.*lines 2 and 4"):
            ingest_csv(path)

    @pytest.mark.parametrize("text, expected", [
        pytest.param("Date,Adj Close\n20000103,1.5\n", [1.5], id="basic-iso-date",
                     marks=pytest.mark.skipif(sys.version_info < (3, 11),
                                              reason="fromisoformat is narrower")),
        pytest.param("Date,Adj Close\n2000-01,1.5\n", r":2: bad date '2000-01'$",
                     id="year-month-refused"),
        pytest.param('Date,Adj Close\n"2000-01-03","1.5"\n', [1.5], id="quoted"),
        pytest.param("Date,Adj Close\n 2000-01-03 , 1.5 \n", [1.5], id="space-padded"),
        pytest.param("Date,Adj Close\n2000-01-03,1_5\n", [15.0], id="underscore"),
        pytest.param("Date,Adj Close\n2000-01-03,\u0661\n", [1.0],
                     id="arabic-indic-digit"),
        pytest.param("Date,Adj Close\n2000-01-03,inf\n",
                     r":2: non-positive price 'inf'$", id="inf-refused"),
        pytest.param("Date,Open,Adj Close\n2000-01-03,1\n",
                     r":2: missing 'Adj Close' value$", id="short-row"),
        pytest.param("Date,Adj Close,Adj Close\n2000-01-03,1.5,2.5\n", [2.5],
                     id="repeated-header-last-wins"),
        pytest.param("Date,Adj Close\n2000-01-03,0\nJan 4,1.5\n",
                     r":2: non-positive price '0'$", id="first-bad-row-wins"),
        pytest.param("Date,Adj Close\nJan 3,0\n", r":2: bad date 'Jan 3'$",
                     id="date-checked-before-price"),
    ])
    def test_field_semantics(self, tmp_path, text, expected):
        path = tmp_path / "F.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(DataError, match=r"F\.csv" + expected):
                ingest_csv(path)
        else:
            s = ingest_csv(path)
            np.testing.assert_array_equal(
                s.dates, np.array(["2000-01-03"], dtype="datetime64[D]"))
            np.testing.assert_array_equal(s.closes, expected)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_lines_keep_physical_line_numbers(self, tmp_path, eol):
        # header on line 1, a blank line 3, the zero price on line 4
        zero = tmp_path / "Z.csv"
        zero.write_bytes(eol.join([CSV_HEADER.strip(), quote("2000-01-03", "1").strip(),
                                   "", quote("2000-01-04", "0").strip(), ""]).encode())
        with pytest.raises(DataError, match=r"Z\.csv:4: non-positive price '0'$"):
            ingest_csv(zero)
        twice = tmp_path / "D.csv"
        twice.write_bytes(eol.join([CSV_HEADER.strip(), "", quote("2000-01-03", "1").strip(),
                                    "", "", quote("2000-01-03", "2").strip(), ""]).encode())
        with pytest.raises(DataError, match=r"duplicate date 2000-01-03 \(lines 3 and 6\)"):
            ingest_csv(twice)

    def test_structural_errors(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            ingest_csv(tmp_path / "absent.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError, match="empty file"):
            ingest_csv(empty)
        headers_only = csv_file(tmp_path, "H.csv", [])
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(headers_only)
        wrong = tmp_path / "W.csv"
        wrong.write_text("Date,Price\n2000-01-03,1.0\n")
        with pytest.raises(DataError, match="lacks column"):
            ingest_csv(wrong)

    @pytest.mark.parametrize("body, message", [
        pytest.param(b"2" * 200_000 + b",1.5\n",
                     r":3: field larger than field limit \(131072\)$", id="oversized-field"),
        pytest.param(b"2000-01-04,1\xe9\n", r": not UTF-8 text \(invalid continuation byte\)$",
                     id="not-utf-8"),
        # Python 3.10's csv.reader refuses any NUL byte; later versions read
        # the field, and fromisoformat refuses it
        pytest.param(b"2000-01-04\0,1.5\n",
                     r":3: (line contains NUL|bad date '2000-01-04\\x00')$", id="nul-byte"),
    ])
    def test_unreadable_text_exits_3(self, tmp_path, capsys, body, message):
        path = tmp_path / "F.csv"
        path.write_bytes(b"Date,Adj Close\n2000-01-03,1\n" + body)
        with pytest.raises(DataError, match=r"F\.csv" + message):
            ingest_csv(path)
        assert main(["ingest-check", str(path)]) == 3
        assert re.fullmatch(r"error: \S+F\.csv" + message, capsys.readouterr().err.strip())

    def test_read_error_wins_over_an_earlier_bad_row(self, tmp_path):
        # every record is read before any is converted: line 2's bad date
        # loses to the oversized field on line 4
        path = tmp_path / "F.csv"
        path.write_bytes(b"Date,Adj Close\nJan 3,1\n2000-01-04,1\n" + b"2" * 200_000 + b",1\n")
        with pytest.raises(DataError, match=r"F\.csv:4: field larger than field limit \(131072\)$"):
            ingest_csv(path)


def ingest_outcome(ingest, path):
    """What one ingest gives: its dates and closes bytes, or its error."""
    try:
        result = ingest(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, PriceSeries):
        result = result.dates, result.closes
    return tuple(a.tobytes() for a in result)


_VALID_DATES = [f"2000-01-{d:02d}" for d in range(3, 13)]
# from "0000-01-01" on, the forms where numpy's date parse and fromisoformat
# could part ways: a year 0000, a trailing NUL (numpy drops it), an 11th or
# 12th byte (an S11 field cuts the 12th), a signed or short year (numpy reads
# "+200-01-03" as 0200-01-03), non-ASCII digits (U+0133's low byte is "3"),
# a day both refuse
_TRICKY_DATES = ["20000103", "2000-W01-1", "2000-01", " 2000-01-13 ", '"2000-01-14"',
                 ' "2000-01-15"', '"2000-01-16" ', '"2000-01-17\n"', '20"00-01-18"',
                 "2000-02-30", "Jan 3", "", "0000-01-01", "2000-01-03\x00",
                 "2000-01-03x", "2000-01-031", "2000-1-03", "+2000-01-03",
                 "+200-01-03", "-200-01-03", " 200-01-03",
                 "\u0662\u0660\u0660\u0660-\u0660\u0661-\u0660\u0663", "2000-01-0\u0133",
                 "1900-02-29"]
_VALID_PRICES = ["1", "1.5", "100", "0.333333333333", "1.23456789012e+12"]
_TRICKY_PRICES = ["1_5", "\u0661", "+1", "1e400", "nan", "0x10", '"1"2', '"1\n"', "",
                  "0", "-1", " 2 ", "\xa03", '"1,5"', "1 2", "inf", "null"]
_HEADERS = [["Date", "Adj Close"], ["Date", "Open", "Adj Close"],
            ["Adj Close", "Date"], ["Date", "Adj Close", "Adj Close"],
            ["Date", "Close"]]


def _by_index(values):
    """One of ``values``, drawn by index: ``st.sampled_from`` may leave some
    values out of a whole run."""
    return st.integers(0, len(values) - 1).map(values.__getitem__)


@st.composite
def csv_texts(draw):
    """Daily-quote CSV text mixing well-formed rows with the forms where
    ``csv.reader`` and ``np.loadtxt`` could part ways."""
    if draw(st.integers(0, 3)):
        # for three of its four values: a file well-formed but for one tricky
        # Date between two valid rows, which alone then decides which path
        # reads it.  The line ending is the only other choice, so each run
        # meets every tricky date several times
        tricky = draw(_by_index(_TRICKY_DATES))
        lines = ["Date,Adj Close", "2000-01-04,1.5", f"{tricky},2.5", "2000-01-05,3.5"]
    else:
        header = draw(st.sampled_from(_HEADERS))
        lines = [",".join(header)]
        dates = st.one_of(_by_index(_VALID_DATES), _by_index(_TRICKY_DATES))
        prices = st.one_of(_by_index(_VALID_PRICES), _by_index(_TRICKY_PRICES))
        for kind in draw(st.lists(st.sampled_from(["row"] * 6 + ["short", "blank",
                                                                "space", "header"]),
                                  max_size=8)):
            if kind in ("row", "short"):
                fields = [draw(dates if name == "Date" else prices) for name in header]
                if kind == "short":
                    fields = fields[:draw(st.integers(0, len(fields) - 1))]
                lines.append(",".join(fields))
            else:
                lines.append({"blank": "", "space": "  \t", "header": lines[0]}[kind])
        lines[0] = draw(st.sampled_from(["", "\ufeff"])) + lines[0]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


class TestIngestPaths:
    """``ingest_csv`` parses the body with ``np.loadtxt`` and leaves every
    other file to the ``csv.reader`` path, which must give the same result."""

    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_csv_reader_path(self, tmp_path, text):
        path = tmp_path / "F.csv"
        path.write_bytes(text.encode())
        assert (ingest_outcome(ingest_csv, path)
                == ingest_outcome(cc_io._ingest_csv_reader, path))

    @pytest.mark.parametrize("date", _TRICKY_DATES)
    def test_each_tricky_date_matches(self, tmp_path, date):
        """One tricky date among valid rows, so that it alone decides."""
        path = tmp_path / "F.csv"
        path.write_bytes(("Date,Adj Close\n2000-01-04,1.5\n"
                          f"{date},2.5\n2000-01-05,3.5\n").encode())
        assert (ingest_outcome(ingest_csv, path)
                == ingest_outcome(cc_io._ingest_csv_reader, path))

    @pytest.mark.parametrize("price", _TRICKY_PRICES)
    def test_each_tricky_price_matches(self, tmp_path, price):
        """One tricky price among valid rows, so that it alone decides."""
        path = tmp_path / "F.csv"
        path.write_bytes(("Date,Adj Close\n2000-01-04,1.5\n"
                          f"2000-01-05,{price}\n2000-01-06,3.5\n").encode())
        assert (ingest_outcome(ingest_csv, path)
                == ingest_outcome(cc_io._ingest_csv_reader, path))

    def test_written_csv_takes_fast_path(self, tmp_path, monkeypatch):
        edges = np.array(["0001-01-01", "1600-02-29"], dtype="datetime64[D]")
        dates = np.concatenate([edges, calendar(300),
                                np.array(["9999-12-31"], dtype="datetime64[D]")])
        assert np.datetime64("2000-02-29") in dates
        s = PriceSeries("T", dates, np.exp(np.sin(np.arange(len(dates), dtype=float))))
        path = tmp_path / "T.csv"
        write_price_csv(path, s)
        expected_dates, expected_closes = cc_io._ingest_csv_reader(path)
        np.testing.assert_array_equal(expected_dates, dates)
        monkeypatch.setattr(cc_io, "_ingest_csv_reader", refuse_csv_reader)
        back = ingest_csv(path)
        np.testing.assert_array_equal(back.dates, expected_dates)
        assert back.closes.tobytes() == expected_closes.tobytes()

    def test_simulated_panel_takes_fast_path(self, tmp_path, monkeypatch):
        data = simulated_dataset(tmp_path, n_stocks=30, n_steps=60)
        expected = load_panel(load_manifest(data / "manifest.json"))
        monkeypatch.setattr(cc_io, "_ingest_csv_reader", refuse_csv_reader)
        panel = load_panel(load_manifest(data / "manifest.json"))
        assert panel.n_stocks == 30
        np.testing.assert_array_equal(panel.calendar, expected.calendar)
        for got, want in zip(panel.stocks + (panel.index_series,),
                             expected.stocks + (expected.index_series,)):
            assert got.closes.tobytes() == want.closes.tobytes()


def refuse_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader path taken")


class TestManifest:
    def manifest_file(self, tmp_path, payload):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        return path

    def base_payload(self):
        return {
            "index_file": "INDEX.csv",
            "stock_files": [["A", "A.csv"], ["B", "B.csv"]],
        }

    def test_load_and_resolve(self, tmp_path):
        m = load_manifest(self.manifest_file(tmp_path, self.base_payload()))
        assert m.index_file == "INDEX.csv"
        assert m.stock_files == (("A", "A.csv"), ("B", "B.csv"))
        assert m.price_column == "Adj Close"
        assert m.resolve("A.csv") == tmp_path / "A.csv"

    def test_unknown_keys_rejected(self, tmp_path):
        payload = self.base_payload() | {"frequency": "daily"}
        with pytest.raises(ValidationError, match="frequency"):
            load_manifest(self.manifest_file(tmp_path, payload))
        # the manifest's own directory is the base, never a key of it
        payload = self.base_payload() | {"base_dir": "/elsewhere"}
        with pytest.raises(ValidationError, match=r"unknown manifest keys \['base_dir'\]"):
            load_manifest(self.manifest_file(tmp_path, payload))

    def test_required_keys(self, tmp_path):
        with pytest.raises(ValidationError, match="index_file"):
            load_manifest(self.manifest_file(tmp_path, {"stock_files": []}))
        with pytest.raises(ValidationError, match="manifest needs index_file and stock_files$"):
            load_manifest(self.manifest_file(tmp_path, {}))

    def test_too_few_stocks(self, tmp_path):
        payload = self.base_payload() | {"stock_files": [["A", "A.csv"]]}
        with pytest.raises(ValidationError, match="at least 2"):
            load_manifest(self.manifest_file(tmp_path, payload))

    def test_duplicate_tickers(self, tmp_path):
        payload = self.base_payload() | {"stock_files": [["A", "1.csv"], ["A", "2.csv"]]}
        with pytest.raises(ValidationError, match="duplicate"):
            load_manifest(self.manifest_file(tmp_path, payload))

    @pytest.mark.parametrize("key, value, match", [
        pytest.param("stock_files", [["A"], ["B"]],
                     r"stock_files: expected a list of \[ticker, path\]", id="one-item-pairs"),
        pytest.param("stock_files", {"A": "A.csv", "B": "B.csv"}, "stock_files: expected",
                     id="pairs-as-object"),
        pytest.param("stock_files", [["A", 1], ["B", "B.csv"]], "stock_files: expected",
                     id="number-path"),
        pytest.param("stock_files", "AB", "stock_files: expected", id="pairs-as-string"),
        pytest.param("date_range", ["2000-01-05"], "date_range: expected", id="one-date"),
        pytest.param("date_range", ["2000-13-01", "2001-01-01"], "date_range: expected",
                     id="month-13"),
        pytest.param("date_range", "2000", "date_range: expected", id="range-as-string"),
        pytest.param("date_range", ["2000-01", "2000-03"], "date_range: expected",
                     id="year-month"),
        pytest.param("date_range", [], "date_range: expected", id="no-dates"),
        pytest.param("date_range", [20000101, "2000-03-01"], "date_range: expected",
                     id="number-date"),
        pytest.param("date_range", ["2000-03-01", "2000-01-01"],
                     "date_range: '2000-03-01' is after", id="reversed"),
        pytest.param("price_column", 5, "price_column: expected a string, got 5",
                     id="number-price-column"),
        pytest.param("index_file", ["INDEX.csv"], "index_file: expected a string",
                     id="list-index-file"),
    ])
    def test_malformed_key_is_named(self, tmp_path, key, value, match):
        payload = self.base_payload() | {key: value}
        with pytest.raises(ValidationError, match=match):
            load_manifest(self.manifest_file(tmp_path, payload))

    def test_malformed_key_exits_2(self, tmp_path, capsys):
        payload = self.base_payload() | {"stock_files": [["A"], ["B"]]}
        assert main(["ingest-check", str(self.manifest_file(tmp_path, payload))]) == 2
        assert "stock_files: expected" in capsys.readouterr().err

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="fromisoformat is narrower")
    def test_date_range_kept_as_iso_dates(self, tmp_path):
        payload = self.base_payload() | {"date_range": ["20000104", "2000-01-06"]}
        m = load_manifest(self.manifest_file(tmp_path, payload))
        assert m.date_range == ("2000-01-04", "2000-01-06")

    def test_not_an_object(self, tmp_path):
        path = self.manifest_file(tmp_path, [["A", "A.csv"]])
        with pytest.raises(ValidationError, match="expected a JSON object"):
            load_manifest(path)
        with pytest.raises(ValidationError, match="expected a JSON object"):
            load_run_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(DataError, match="not valid JSON"):
            load_manifest(path)
        with pytest.raises(DataError, match="no such manifest"):
            load_manifest(tmp_path / "absent.json")

    def test_load_panel_aligns_and_clips(self, tmp_path):
        dates = ["2000-01-03", "2000-01-04", "2000-01-05", "2000-01-06"]
        for name, prices in (("A", [10, 11, 12, 13]), ("B", [20, 19, 21, 22]),
                             ("INDEX", [15, 15, 16, 17])):
            csv_file(tmp_path, f"{name}.csv",
                     [quote(d, str(p)) for d, p in zip(dates, prices)])
        payload = self.base_payload() | {"date_range": ["2000-01-04", "2000-01-06"]}
        m = load_manifest(self.manifest_file(tmp_path, payload))
        panel = load_panel(m)
        assert panel.n_days == 3
        assert panel.calendar[0] == np.datetime64("2000-01-04")
        np.testing.assert_allclose(panel.stocks[0].closes, [11, 12, 13])
        assert panel.index_series.ticker == "INDEX"

        empty_range = self.base_payload() | {"date_range": ["1990-01-01", "1990-12-31"]}
        m2 = load_manifest(self.manifest_file(tmp_path, empty_range))
        with pytest.raises(DataError, match="no rows within"):
            load_panel(m2)


class TestRunConfig:
    def test_defaults(self):
        c = RunConfig()
        assert c.window_range == (10, 35)
        assert c.delta_t == 1
        assert c.detrend_window == 251
        assert c.rho_grid[0] == -0.15 and c.rho_grid[-1] == 0.15

    def test_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            RunConfig(dt1=35, dt2=10)
        with pytest.raises(ValidationError):
            RunConfig(dt1=10, dt2=10)
        with pytest.raises(ValidationError):
            RunConfig(delta_t=0)
        with pytest.raises(ValidationError):
            RunConfig(rho_grid=())
        for window in (-1, 1, 2, 250):
            with pytest.raises(ValidationError, match="detrend_window"):
                RunConfig(detrend_window=window)
        assert RunConfig(detrend_window=3).detrend_window == 3
        # chi_levels and ct_level are magnitudes: a sign or a zero would
        # silently swap or merge the ± runs; two χ levels with one 12-digit
        # tag would write the same report files and Wilcoxon row twice
        for bad in ((-0.05,), (0.03, 0.0), (0.03, 0.05, 0.050), (0.05, 0.05000000000001)):
            with pytest.raises(ValidationError, match="chi_levels"):
                RunConfig(chi_levels=bad)
        assert RunConfig(chi_levels=(0.05, 0.0500000000001)).chi_levels == (0.05, 0.0500000000001)
        for bad in (0.0, -0.02):
            with pytest.raises(ValidationError, match="ct_level"):
                RunConfig(ct_level=bad)
        # RunConfig alone checks the levels, and names the bad key
        with pytest.raises(ValidationError, match="^rho_grid: '-0.05' is not a number$"):
            load_run_config(None, {"rho_grid": ["-0.05", "x"]})
        with pytest.raises(ValidationError, match="ct_level"):
            load_run_config(None, {"ct_level": "nan"})
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"chi_levels": 0.05}))
        with pytest.raises(ValidationError, match="chi_levels"):
            load_run_config(cfg_file)

    @pytest.mark.parametrize("field, value", [
        ("dt1", "3"), ("ct_level", True), ("seed", 1.5), ("ct_level", "0.05"),
    ])
    def test_direct_construction_checks_types(self, field, value):
        """Built from Python, a mistyped scalar is a ValidationError naming
        the field, not a TypeError from a later comparison."""
        with pytest.raises(ValidationError, match=rf"^{field}: expected"):
            RunConfig(**{field: value})

    def test_direct_construction_rejects_negative_seed(self):
        """The seed reaches PCG64 only after the whole analysis has run; a
        negative one is refused up front."""
        with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("field, levels, message", [
        ("rho_grid", (math.nan, 0.1), "nan is not finite"),
        ("rho_grid", (math.inf,), "inf is not finite"),
        ("chi_levels", (math.nan,), "nan is not finite"),
        ("rho_grid", (0.05, "0.1"), "'0.1' is not a number"),
        ("rho_grid", (True, 0.05), "True is not a number"),
        ("chi_levels", 0.05, "expected a list of numbers, got 0.05"),
        # an integer past the largest float is no finite level either
        pytest.param("chi_levels", (10**400,), f"{10**400} is not finite", id="huge-int"),
    ])
    def test_direct_construction_checks_levels(self, field, levels, message):
        """Built from Python, a level that is not a finite number is refused
        as it is from JSON, where NaN would otherwise pass every sign check."""
        with pytest.raises(ValidationError, match=f"^{field}: {message}$"):
            RunConfig(**{field: levels})

    def test_json_bool_level_rejected(self, tmp_path):
        """JSON true is a bool, never the level 1.0."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"rho_grid": [true, -0.05, 0.05]}')
        with pytest.raises(ValidationError, match="^rho_grid: True is not a number$"):
            load_run_config(cfg_file)

    def test_precedence_defaults_file_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"dt1": 3, "dt2": 6, "seed": 5, "ct_level": 2}))
        c = load_run_config(cfg_file, {"dt2": 8, "seed": None})
        assert c.dt1 == 3       # from file
        assert c.ct_level == 2  # an integer is a number
        assert c.dt2 == 8       # flag beats file
        assert c.seed == 5      # None override is "not given"
        assert c.delta_t == 1   # untouched default

    def test_sequences_coerced_to_float_tuples(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"rho_grid": [-1, 1], "chi_levels": [1]}))
        c = load_run_config(cfg_file)
        assert c.rho_grid == (-1.0, 1.0)
        assert c.chi_levels == (1.0,)
        # RunConfig itself keeps each level list as a tuple of floats
        c = RunConfig(rho_grid=[1, -1], chi_levels=[np.float64(0.5)])
        assert c.rho_grid == (1.0, -1.0) and c.chi_levels == (0.5,)
        assert all(type(level) is float for level in c.rho_grid + c.chi_levels)

    def test_unknown_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"dt_one": 3}))
        with pytest.raises(ValidationError, match="dt_one"):
            load_run_config(cfg_file)

    def test_missing_or_broken_file(self, tmp_path):
        with pytest.raises(DataError):
            load_run_config(tmp_path / "absent.json")
        broken = tmp_path / "broken.json"
        broken.write_text("[1,")
        with pytest.raises(DataError):
            load_run_config(broken)


class TestSimulateRoundTrip:
    def test_output_inventory(self, tmp_path):
        out = simulated_dataset(tmp_path, n_stocks=3, n_steps=50)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["INDEX.csv", "S00.csv", "S01.csv", "S02.csv",
                         "manifest.json", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "simulate"
        assert summary["config"]["seed"] == 6

    def test_round_trip_preserves_log_prices(self, tmp_path):
        cfg = SimConfig(n_stocks=3, n_steps=80, fear_probability=0.1,
                        step_size=0.01, seed=12)
        out = tmp_path / "rt"
        run_simulate(cfg, out)
        panel = load_panel(load_manifest(out / "manifest.json"))
        sim = to_aligned_panel(simulate_market(cfg))
        assert panel.tickers == sim.tickers
        np.testing.assert_allclose(np.log(np.vstack([s.closes for s in panel.stocks])),
                                   np.log(np.vstack([s.closes for s in sim.stocks])),
                                   atol=1e-10)
        np.testing.assert_allclose(np.log(panel.index_series.closes),
                                   np.log(sim.index_series.closes), atol=1e-10)

    def test_same_seed_byte_identical(self, tmp_path):
        assert_same_files(simulated_dataset(tmp_path / "a"),
                          simulated_dataset(tmp_path / "b"))

    def test_rejects_degenerate_fear_probability(self, tmp_path):
        with pytest.raises(ValidationError):
            SimConfig(n_stocks=2, n_steps=10, fear_probability=0.6,
                      step_size=0.01, seed=0)

    def test_written_csv_is_ingestible(self, tmp_path):
        s = PriceSeries("T", calendar(3), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "T.csv"
        write_price_csv(path, s)
        back = ingest_csv(path)
        np.testing.assert_array_equal(back.dates, s.dates)
        np.testing.assert_allclose(back.closes, s.closes, rtol=1e-11)

    @given(closes=st.lists(st.one_of(
        st.floats(min_value=5e-324, max_value=1.7e308),
        st.sampled_from([1e-05, 1e-5 * (1 + 2**-52), 1e+16, 123456789012.5, 1e300,
                         5e-324, 0.1, 1.0, 100.0])), min_size=0, max_size=40))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_written_values_are_fmt(self, tmp_path, closes):
        """Every value field of a written file reads fmt(close), also for
        tiny, huge and exponent-form values."""
        path = tmp_path / "T.csv"
        write_price_csv(path, PriceSeries("T", calendar(len(closes)), closes))
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[1:] for row in rows] == [[fmt(c)] * 5 + ["0"] for c in closes]

    @pytest.mark.parametrize("kind", ["lattice", "all-distinct", "one-row", "empty"])
    def test_price_csv_matches_per_row_rendering(self, tmp_path, kind):
        """Rendering each distinct close once writes the bytes of rendering
        every row on its own."""
        if kind == "lattice":
            series = to_aligned_panel(simulate_market(SimConfig(
                n_stocks=2, n_steps=500, fear_probability=0.1, step_size=0.01,
                seed=3))).stocks[0]
            assert len(np.unique(series.closes)) < len(series)
        else:
            n = {"all-distinct": 300, "one-row": 1, "empty": 0}[kind]
            series = PriceSeries("T", calendar(n), np.exp(np.sin(np.arange(n) + 0.5)))
            assert len(np.unique(series.closes)) == len(series)
        path = tmp_path / "T.csv"
        write_price_csv(path, series)
        dates = np.datetime_as_string(series.dates).tolist()
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "".join(
            f"{date},{fmt(c)},{fmt(c)},{fmt(c)},{fmt(c)},{fmt(c)},0\n"
            for date, c in zip(dates, series.closes))

    def test_price_csv_dates_must_match_series_length(self, tmp_path):
        s = PriceSeries("T", calendar(3), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "T.csv"
        with pytest.raises(ValidationError, match="T: 1 dates vs 3 closes"):
            write_price_csv(path, s, dates=["2000-01-03"])
        assert not path.exists()

    def test_price_csv_golden_bytes(self, tmp_path):
        s = PriceSeries("T", np.array(["2000-01-03", "2000-01-04", "2000-01-05"],
                                      dtype="datetime64[D]"),
                        np.array([1.0 / 3.0, 1234567890123.4, 100.0]))
        path = tmp_path / "T.csv"
        write_price_csv(path, s)
        assert path.read_bytes() == (
            b"Date,Open,High,Low,Close,Adj Close,Volume\n"
            b"2000-01-03,0.333333333333,0.333333333333,0.333333333333,"
            b"0.333333333333,0.333333333333,0\n"
            b"2000-01-04,1.23456789012e+12,1.23456789012e+12,1.23456789012e+12,"
            b"1.23456789012e+12,1.23456789012e+12,0\n"
            b"2000-01-05,100,100,100,100,100,0\n"
        )


class TestRunCondcorr:
    def test_reports_and_summary(self, tmp_path):
        data = simulated_dataset(tmp_path)
        out = tmp_path / "reports"
        manifest = load_manifest(data / "manifest.json")
        summary = run_condcorr(manifest, small_config(), out)

        for name in ("curve.tsv", "chi_0.01.tsv", "pairs_0.01.tsv",
                     "wilcoxon_pairs.tsv", "ct_plus_0.01.tsv",
                     "ct_minus_0.01.tsv", "wilcoxon_time.tsv", "summary.json"):
            assert (out / name).is_file(), name

        curve_lines = (out / "curve.tsv").read_text().splitlines()
        assert curve_lines[0] == "rho\tC\tn_samples\tn_excluded"
        assert len(curve_lines) == 1 + len(summary["curve"])
        for line in curve_lines[1:]:
            rho, c, n, excl = line.split("\t")
            assert rho in summary["curve"]
            assert float(c) == pytest.approx(summary["curve"][rho]["C"], rel=1e-11)

        pairs_lines = (out / "pairs_0.01.tsv").read_text().splitlines()
        assert pairs_lines[0] == "x\ty\tC_minus\tC_plus\tn_minus\tn_plus"
        assert len(pairs_lines) == 1 + 10  # 5 stocks -> 10 unordered pairs

        assert summary["command"] == "condcorr"
        assert summary["panel"] == {
            "n_stocks": 5, "n_days": 401,
            "first_date": "2000-01-03", "last_date": "2001-02-06",
        }
        assert set(summary["inputs"]) == {"INDEX", "S00", "S01", "S02", "S03", "S04"}
        assert all(len(h) == 64 for h in summary["inputs"].values())
        assert "0.01" in summary["wilcoxon_pairs"]
        assert summary["wilcoxon_pairs"]["0.01"]["n"] <= 10
        assert "0.01" in summary["wilcoxon_time"]

    def test_deterministic_outputs(self, tmp_path):
        data = simulated_dataset(tmp_path)
        manifest = load_manifest(data / "manifest.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_condcorr(manifest, small_config(), out1)
        run_condcorr(manifest, small_config(), out2)
        assert_same_files(out1, out2)

    def test_prebuilt_panel_source(self, tmp_path):
        sim = to_aligned_panel(simulate_market(
            SimConfig(n_stocks=4, n_steps=200, fear_probability=0.1,
                      step_size=0.01, seed=8)))
        summary = run_condcorr(None, small_config(), tmp_path / "p", panel=sim)
        assert summary["inputs"] == {}
        assert summary["panel"]["n_stocks"] == 4

    def test_requires_some_source(self, tmp_path):
        with pytest.raises(ValidationError):
            run_condcorr(None, small_config(), tmp_path / "x")

    def test_tiny_panel_skips_pair_test(self, tmp_path):
        # 2 stocks -> a single pair: not enough for a rank-sum comparison
        sim = to_aligned_panel(simulate_market(
            SimConfig(n_stocks=2, n_steps=150, fear_probability=0.1,
                      step_size=0.01, seed=8)))
        summary = run_condcorr(None, small_config(), tmp_path / "t", panel=sim)
        assert summary["wilcoxon_pairs"] == {}
        assert summary["wilcoxon_pairs_skipped"] == ["0.01"]
        analysis = analyze_panel(sim, (0.01,), window_range=(3, 6), chi_levels=(0.01,))
        assert directional_tests(analysis)[0] == {0.01: None}

    @pytest.mark.parametrize("seed", [0, 7])
    def test_summary_blocks_are_the_directional_tests(self, tmp_path, seed):
        """The summary's rank-test blocks hold ``directional_tests`` of the
        analysis the run makes, field for field; the C_t sides differ in
        size, so the seed picks the trimmed subset."""
        sim = to_aligned_panel(simulate_market(
            SimConfig(n_stocks=5, n_steps=400, fear_probability=0.1,
                      step_size=0.01, seed=6)))
        config = small_config(chi_levels=(0.01, 0.05), seed=seed)
        summary = run_condcorr(None, config, tmp_path / "r", panel=sim)
        analysis = analyze_panel(sim, config.rho_grid, config.window_range, config.delta_t,
                                 config.chi_levels, (config.ct_level, -config.ct_level))
        pair_tests, ct_tests = directional_tests(analysis, seed)
        assert list(pair_tests) == [0.01, 0.05] and list(ct_tests) == [0.01]
        assert pair_tests[0.05] is None and ct_tests[0.01].n_a == ct_tests[0.01].n_b

        def block(tests):
            return {fmt(level): {"z": r.z, "log10_p": r.log10_p, "n": r.n_a}
                    for level, r in tests.items() if r is not None}
        assert summary["wilcoxon_pairs"] == block(pair_tests) != {}
        assert summary["wilcoxon_pairs_skipped"] == ["0.05"]
        assert summary["wilcoxon_time"] == block(ct_tests) != {}

    def test_one_signed_ct_level_has_no_time_test(self):
        sim = to_aligned_panel(simulate_market(
            SimConfig(n_stocks=5, n_steps=400, fear_probability=0.1,
                      step_size=0.01, seed=6)))
        for level in (0.01, -0.01):
            analysis = analyze_panel(sim, (0.01,), window_range=(3, 6), ct_levels=(level,))
            assert directional_tests(analysis) == ({}, {})


class TestRunInvstats:
    def test_manifest_source(self, tmp_path):
        data = simulated_dataset(tmp_path, n_stocks=3, n_steps=3000)
        out = tmp_path / "inv"
        config = small_config(detrend_window=251)
        summary = run_invstats(load_manifest(data / "manifest.json"), config, out)
        levels = sorted({abs(r) for r in config.rho_grid})
        for lv in levels:
            assert (out / f"hist_plus_{fmt(lv)}.tsv").is_file()
            assert (out / f"hist_minus_{fmt(lv)}.tsv").is_file()
            entry = summary["levels"][fmt(lv)]
            assert entry["asymmetry"] == pytest.approx(
                entry["mode_plus"] - entry["mode_minus"], abs=1e-12)
            assert entry["n_plus"] > 0 and entry["n_minus"] > 0
        assert summary["series"]["ticker"] == "INDEX"
        assert summary["series"]["detrended"] is True
        hist_lines = (out / f"hist_plus_{fmt(levels[0])}.tsv").read_text().splitlines()
        assert hist_lines[0] == "tau_center\tdensity"

    def test_reruns_byte_identical_over_csv(self, tmp_path):
        """Both analyses read the same CSV manifest twice and write the
        same bytes."""
        data = simulated_dataset(tmp_path, n_stocks=4, n_steps=1500)
        manifest = load_manifest(data / "manifest.json")
        config = small_config(detrend_window=251)
        for run in (run_condcorr, run_invstats):
            first, second = tmp_path / f"{run.__name__}1", tmp_path / f"{run.__name__}2"
            run(manifest, config, first)
            run(manifest, config, second)
            assert_same_files(first, second)

    def test_csv_source_without_detrending(self, tmp_path):
        data = simulated_dataset(tmp_path, n_stocks=2, n_steps=2000)
        out = tmp_path / "inv"
        summary = run_invstats(data / "S00.csv", small_config(detrend_window=0),
                               out)
        assert summary["series"] == {"ticker": "S00", "n_days": 2001,
                                     "detrended": False}
        assert "S00" in summary["inputs"]

    def test_price_series_source(self, tmp_path):
        sim = simulate_market(SimConfig(n_stocks=1, n_steps=2000,
                                        fear_probability=0.0, step_size=0.01,
                                        seed=4))
        series = PriceSeries("W", calendar(2001), np.exp(sim.log_prices[0]))
        summary = run_invstats(series, small_config(detrend_window=0),
                               tmp_path / "inv")
        assert summary["series"]["ticker"] == "W"

    def test_unfittable_tail_records_error(self, tmp_path):
        """A sawtooth's waiting times stop short of 3x the mode: each side
        records why its tail cannot be fitted instead of failing the run."""
        steps = np.tile([0.01] * 5 + [-0.01] * 5, 40)
        closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
        write_price_csv(tmp_path / "SAW.csv", PriceSeries("SAW", calendar(401), closes))
        out = tmp_path / "inv"
        assert main(["invstats", "--csv", str(tmp_path / "SAW.csv"), "--out", str(out),
                     "--rho-grid=-0.03,0.03", "--detrend-window", "0"]) == 0
        fits = json.loads((out / "summary.json").read_text())["levels"]["0.03"]["tail_fit"]
        assert set(fits) == {"plus", "minus"}
        for side in fits.values():
            assert "3x the mode" in side["error"]
        assert (out / "hist_plus_0.03.tsv").is_file()

    def test_unreachable_level_records_error(self, tmp_path):
        """This 34-day index never rises by 0.03: that side records why it
        has no histogram, and every other level and side is still written."""
        data = tmp_path / "market"
        assert main(["simulate", "--n-stocks", "2", "--n-steps", "33",
                     "--fear-probability", "0.05", "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "inv"
        assert main(["invstats", "--manifest", str(data / "manifest.json"),
                     "--out", str(out), "--rho-grid=-0.03,-0.02,-0.01,0.01,0.02,0.03",
                     "--detrend-window", "0"]) == 0
        levels = json.loads((out / "summary.json").read_text())["levels"]
        unreached = levels["0.03"]
        assert unreached["n_plus"] == 0 and unreached["censored_plus"] == 33
        assert unreached["mode_plus"] is None and unreached["asymmetry"] is None
        assert "all 33 starts censored" in unreached["tail_fit"]["plus"]["error"]
        assert unreached["mode_minus"] is not None
        for tag, entry in levels.items():
            for side in ("plus", "minus"):
                assert entry[f"n_{side}"] + entry[f"censored_{side}"] == 33
                written = (out / f"hist_{side}_{tag}.tsv").is_file()
                assert written == (entry[f"n_{side}"] > 0), (tag, side)

    def test_detrending_leaves_no_log_closes_on_the_series(self, tmp_path):
        """The log prices, detrended or not, are taken locally: the caller's
        series holds only its own fields through the first-passage descent."""
        series = PriceSeries("W", calendar(600), np.exp(np.sin(np.arange(600) / 9.0)))
        for window in (251, 0):
            run_invstats(series, small_config(detrend_window=window), tmp_path / f"inv{window}")
            assert set(vars(series)) == {"ticker", "dates", "closes"}, window

    def test_zero_level_rejected(self, tmp_path):
        series = PriceSeries("W", calendar(100),
                             np.exp(np.linspace(0, 0.5, 100)))
        config = small_config(rho_grid=(-0.01, 0.0, 0.01), detrend_window=0)
        with pytest.raises(ValidationError, match="must not contain 0"):
            run_invstats(series, config, tmp_path / "inv")


class TestCli:
    def test_simulate_condcorr_invstats_walkthrough(self, tmp_path, capsys):
        data = tmp_path / "market"
        assert main([
            "simulate", "--n-stocks", "5", "--n-steps", "400",
            "--fear-probability", "0.1", "--seed", "6", "--out", str(data),
        ]) == 0
        assert "manifest.json" in capsys.readouterr().out

        reports = tmp_path / "reports"
        assert main([
            "condcorr", "--manifest", str(data / "manifest.json"),
            "--out", str(reports), "--dt1", "3", "--dt2", "6",
            "--rho-grid=-0.02,-0.01,0.01,0.02", "--chi-levels", "0.01",
            "--ct-level", "0.01",
        ]) == 0
        out = capsys.readouterr().out
        assert "pairs |rho|=0.01" in out
        assert (reports / "curve.tsv").is_file()

        inv = tmp_path / "inv"
        assert main([
            "invstats", "--manifest", str(data / "manifest.json"),
            "--out", str(inv), "--rho-grid=-0.02,0.02",
            "--detrend-window", "0",
        ]) == 0
        assert "|rho|=0.02" in capsys.readouterr().out
        assert (inv / "hist_plus_0.02.tsv").is_file()

    def test_runtime_needs_no_scipy(self, tmp_path):
        """The README chain runs with scipy blocked from import, lazy imports
        included, and leaves no scipy module loaded.  The rank-sum path runs
        too, inside ``condcorr``'s two Wilcoxon tables."""
        script = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from condcorr.cli import main
data, reports, inv = sys.argv[1:]
codes = [
    main(["simulate", "--n-stocks", "5", "--n-steps", "2000", "--fear-probability", "0.1",
          "--seed", "6", "--out", data]),
    main(["condcorr", "--manifest", data + "/manifest.json", "--out", reports,
          "--dt1", "3", "--dt2", "6", "--rho-grid=-0.02,-0.01,0.01,0.02",
          "--chi-levels", "0.01", "--ct-level", "0.01"]),
    main(["invstats", "--manifest", data + "/manifest.json", "--out", inv,
          "--rho-grid=-0.02,0.02", "--detrend-window", "0"]),
]
loaded = sorted(name for name, module in sys.modules.items()
                if name.partition(".")[0] == "scipy" and module is not None)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
        paths = [tmp_path / "market", tmp_path / "reports", tmp_path / "inv"]
        src = str(Path(condcorr.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, *map(str, paths)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == {"codes": [0] * 3, "loaded": []}
        # the rank tests and both tail fits ran, not only their error paths
        summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
        assert summary["wilcoxon_pairs"] and summary["wilcoxon_time"]
        fits = json.loads((tmp_path / "inv" / "summary.json").read_text())
        assert all("exponent" in side for side in fits["levels"]["0.02"]["tail_fit"].values())

    def test_cli_matches_library_run(self, tmp_path):
        data = simulated_dataset(tmp_path)
        via_lib = tmp_path / "lib"
        run_condcorr(load_manifest(data / "manifest.json"), small_config(),
                     via_lib)
        via_cli = tmp_path / "cli"
        assert main([
            "condcorr", "--manifest", str(data / "manifest.json"),
            "--out", str(via_cli), "--dt1", "3", "--dt2", "6",
            "--rho-grid=-0.02,-0.01,0.01,0.02", "--chi-levels", "0.01",
            "--ct-level", "0.01",
        ]) == 0
        assert ((via_cli / "curve.tsv").read_bytes()
                == (via_lib / "curve.tsv").read_bytes())

    def test_config_file_and_flag_precedence(self, tmp_path):
        data = simulated_dataset(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dt1": 3, "dt2": 6, "rho_grid": [-0.02, -0.01, 0.01, 0.02],
            "chi_levels": [0.01], "ct_level": 0.01,
        }))
        out = tmp_path / "out"
        assert main([
            "condcorr", "--manifest", str(data / "manifest.json"),
            "--out", str(out), "--config", str(cfg), "--dt2", "7",
        ]) == 0
        written = json.loads((out / "summary.json").read_text())["config"]
        assert written["dt1"] == 3 and written["dt2"] == 7

    def test_long_window_memory_is_bounded(self, tmp_path):
        """A window range past the panel runs the spans that fit and counts
        the rest as excluded.  On a 3-stock, 300-day market the kernel's
        scratch grew with dt2²: 175 MiB at dt2 = 299, one day short of the
        panel, and 18.6 TiB at dt2 = 100,000 (exit 1).  It is now bounded by
        ``conditional._CHUNK_FLOATS``, and both runs give one curve."""
        data = tmp_path / "market"
        assert main(["simulate", "--n-stocks", "3", "--n-steps", "299",
                     "--fear-probability", "0.05", "--seed", "1", "--out", str(data)]) == 0
        curves = {}
        for dt2 in (299, 100_000):
            cfg = tmp_path / f"dt2-{dt2}.json"
            cfg.write_text(json.dumps({"dt2": dt2}))
            out = tmp_path / f"cc-{dt2}"
            tracemalloc.start()
            try:
                code = main(["condcorr", "--manifest", str(data / "manifest.json"),
                             "--out", str(out), "--config", str(cfg)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 1.5 * 8 * conditional._CHUNK_FLOATS
            curves[dt2] = json.loads((out / "summary.json").read_text())["curve"]
        fit, past = curves[299], curves[100_000]
        assert fit.keys() == past.keys() and fit
        for level, point in fit.items():
            assert past[level]["n_excluded_windows"] == point["n_excluded_windows"] + 100_000 - 299
            assert past[level]["C"] == point["C"]

    def test_degenerate_rank_test_is_skipped(self, tmp_path, capsys):
        """Three tickers on one file make every pair's C(+) and C(−) equal
        at some levels, and no window reaches C_t's ±0.5; a rank test with
        no variance, or too few values, is skipped, said on stdout and in
        the summary, and the run still writes every report and its summary."""
        data = tmp_path / "market"
        assert main(["simulate", "--n-stocks", "3", "--n-steps", "3000",
                     "--fear-probability", "0.05", "--seed", "1", "--out", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["stock_files"] = [[ticker, "S00.csv"] for ticker in "ABC"]
        (data / "same.json").write_text(json.dumps(manifest))
        out = tmp_path / "cc"
        capsys.readouterr()
        assert main(["condcorr", "--manifest", str(data / "same.json"), "--out", str(out),
                     "--ct-level", "0.5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["wilcoxon_pairs_skipped"] == ["0.05", "0.1"]
        assert list(summary["wilcoxon_pairs"]) == ["0.03"]
        assert summary["wilcoxon_time"] == {}
        assert summary["wilcoxon_time_skipped"] == ["0.5"]
        rows = (out / "wilcoxon_pairs.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == ["0.03"]
        assert (out / "wilcoxon_time.tsv").read_text().splitlines()[1:] == []
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("pairs |rho|=0.03: z=")
        assert printed[1:] == ["pairs |rho|=0.05: skipped", "pairs |rho|=0.1: skipped",
                               "C_t   |rho|=0.5: skipped", f"reports written to {out}"]

    def test_validation_error_exit_code(self, tmp_path, capsys):
        data = simulated_dataset(tmp_path)
        code = main([
            "condcorr", "--manifest", str(data / "manifest.json"),
            "--out", str(tmp_path / "x"), "--dt1", "20", "--dt2", "10",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        code = main([
            "condcorr", "--manifest", str(data / "manifest.json"),
            "--out", str(tmp_path / "y"), "--chi-levels=-0.05",
        ])
        assert code == 2
        assert "chi_levels" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, config, message", [
        pytest.param(command, *case[2:], id=f"{case[0]}-{command}")
        for case in [
            ("ratio-json", BOTH, [], {"bin_ratio": math.nan},
             "unknown config keys ['bin_ratio']"),
            ("epsilon-json", BOTH, [], {"epsilon": -1.0}, "unknown config keys ['epsilon']"),
            ("min-samples-json", BOTH, [], {"min_samples": 2},
             "unknown config keys ['min_samples']"),
            ("binning-json", BOTH, [], {"binning": "log"}, "unknown config keys ['binning']"),
            ("detrend-mode-json", BOTH, [], {"detrend_mode": "centered"},
             "unknown config keys ['detrend_mode']"),
            ("even-detrend-window", ["invstats"], ["--detrend-window", "250"], None,
             "detrend_window"),
            ("detrend-window-1", ["invstats"], ["--detrend-window", "1"], None, "detrend_window"),
            ("detrend-window-2-json", BOTH, [], {"detrend_window": 2}, "detrend_window"),
            ("zero-level", ["invstats"], ["--rho-grid=0,0.05"], None, "must not contain 0"),
            ("repeated-chi-level", ["condcorr"], ["--chi-levels", "0.05,0.05,0.050"], None,
             "chi_levels must not repeat a level, got 0.05, 0.05, 0.05"),
            ("repeated-chi-level-json", BOTH, [], {"chi_levels": [0.05, 0.05000000000001]},
             "chi_levels must not repeat a level"),
            ("huge-ct-level-json", BOTH, [], {"ct_level": 10**400}, "ct_level must be finite"),
            ("huge-level-json", BOTH, [], {"rho_grid": [10**400]}, "rho_grid: 1000"),
        ]
        for command in case[1]
    ])
    def test_bad_config_exits_2_before_ingest(self, tmp_path, capsys, command,
                                              flags, config, message):
        """A bad parameter, or a key that is not a ``RunConfig`` field, exits
        2 with a message naming it, not a traceback, and before the manifest
        is read: an absent manifest would exit 3.  A config file is checked
        whole, so both commands refuse a bad value of any field in it; a flag
        exists only on the commands that read its field.  A 0 level is bad
        for ``invstats`` alone."""
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))  # NaN is written as NaN
            flags = [*flags, "--config", str(cfg)]
        code = main([command, "--manifest", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("config", [
        {"dt1": "3"}, {"ct_level": "1.5"}, {"seed": 1.5}, {"dt2": True},
        {"rho_grid": ["0.05", "-0.05"]},
    ], ids=["int-as-string", "float-as-string", "int-as-float", "int-as-bool",
            "level-as-string"])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, config):
        """A scalar of the wrong JSON type is named and exits 2 before the
        manifest is read."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["invstats", "--manifest", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(config)) in err

    @pytest.mark.parametrize("flag", ["--rho-grid=-0.05,x", "--chi-levels=0.05,"])
    def test_bad_level_flag_exits_2(self, tmp_path, capsys, flag):
        """argparse refuses a level list that does not parse, naming the flag."""
        with pytest.raises(SystemExit) as exit_info:
            main(["condcorr", "--manifest", str(tmp_path / "absent.json"),
                  "--out", str(tmp_path / "out"), flag])
        assert exit_info.value.code == 2
        assert f"argument {flag.split('=')[0]}: could not convert" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("condcorr", "--binning", "log"), ("invstats", "--binning", "log"),
        ("condcorr", "--detrend-mode", "centered"),
        ("invstats", "--detrend-mode", "centered"),
        ("simulate", "--initial-log-price", "0"),
        ("condcorr", "--bin-ratio", "nan"), ("condcorr", "--detrend-window", "250"),
        ("condcorr", "--detrend-window", "1"), ("invstats", "--epsilon", "-1"),
        ("invstats", "--seed", "-1"), ("invstats", "--dt1", "3"),
        ("invstats", "--bin-ratio", "nan"), ("condcorr", "--epsilon", "-1"),
        ("condcorr", "--min-samples", "2"), ("invstats", "--min-samples", "2"),
    ])
    def test_unknown_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        """Detrending is always centred, bins always logarithmic with a fixed
        ratio, the χ guard and the flag bar are constants, and simulated
        prices always start at 1, so no flag sets them; and a command has no
        flag for a ``RunConfig`` field it does not read.  Each exits 2
        before any input is read or ``--out`` is made, under the usage of the
        command that got the flag, which lists the flags it does take."""
        required = {"simulate": ["--n-stocks", "2", "--n-steps", "10",
                                 "--fear-probability", "0", "--seed", "0"],
                    "condcorr": ["--manifest", str(tmp_path / "absent.json")],
                    "invstats": ["--manifest", str(tmp_path / "absent.json")]}
        with pytest.raises(SystemExit) as exit_info:
            main([command, *required[command], "--out", str(tmp_path / "out"), flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: condcorr {command} ")
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, names", [
        ("condcorr", ["delta_t", "dt1", "dt2", "rho_grid", "chi_levels", "ct_level", "seed"]),
        ("invstats", ["rho_grid", "detrend_window"]),
    ], ids=["condcorr", "invstats"])
    def test_config_flags_are_the_run_config_fields(self, command, names):
        """A command's analysis flags are ``--config`` and one per
        ``RunConfig`` field it reads, in field order: a flag for a field it
        does not read would be parsed and then ignored.  The two commands
        together read every field."""
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        group = next(g for g in commands[command]._action_groups
                     if g.title == "analysis configuration")
        flags = [s for a in group._group_actions for s in a.option_strings]
        assert flags == ["--config"] + ["--" + name.replace("_", "-") for name in names]
        assert cc_io.COMMAND_FIELDS[command] == tuple(names)
        assert ({name for read in cc_io.COMMAND_FIELDS.values() for name in read}
                == {f.name for f in dataclasses.fields(RunConfig)})

    def test_fields_a_command_does_not_read_move_none_of_its_outputs(self, tmp_path):
        """Moving every ``RunConfig`` field a command does not read off its
        default leaves the whole output directory byte-identical, summary.json
        included, whose config block holds exactly the fields it reads."""
        data = simulated_dataset(tmp_path, n_stocks=4, n_steps=1500)
        manifest = load_manifest(data / "manifest.json")
        unread = {
            run_invstats: dict(delta_t=2, dt1=4, dt2=8, chi_levels=(0.02,), ct_level=0.02,
                               seed=9),
            run_condcorr: dict(detrend_window=0),
        }
        for run, command in ((run_invstats, "invstats"), (run_condcorr, "condcorr")):
            assert not set(unread[run]) & set(cc_io.COMMAND_FIELDS[command])
            default, moved = tmp_path / f"{command}-default", tmp_path / f"{command}-moved"
            run(manifest, RunConfig(), default)
            run(manifest, RunConfig(**unread[run]), moved)
            assert_same_files(default, moved)
            config = json.loads((default / "summary.json").read_text())["config"]
            assert sorted(config) == sorted(cc_io.COMMAND_FIELDS[command])

    def test_every_help_exits_0(self, capsys):
        """argparse %-formats each help string only when --help prints it.
        The one shared ``--rho-grid`` help holds for ``invstats`` too, which
        draws no curve."""
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for argv in [[]] + [[command] for command in commands]:
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, "--help"])
            assert exit_info.value.code == 0, argv
            out = capsys.readouterr().out
            if argv == ["invstats"]:
                assert "--rho-grid" in out and "for the curve" not in out

    def test_help_keeps_the_negative_grid_form_whole(self, capsys, monkeypatch):
        """The help's ``--rho-grid=-0.05,...`` is wrapped as one word at
        every terminal width, never split at one of its hyphens."""
        for columns in range(40, 140):
            monkeypatch.setenv("COLUMNS", str(columns))
            for command in ("condcorr", "invstats"):
                with pytest.raises(SystemExit):
                    main([command, "--help"])
                words = capsys.readouterr().out.split()
                assert "--rho-grid=-0.05,..." in words, (command, columns)

    @pytest.mark.parametrize("command", ["simulate", "condcorr", "invstats"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        """An --out naming an existing file exits 2 naming it, not 1 with a
        FileExistsError traceback, and leaves the file as it was."""
        manifest = str(simulated_dataset(tmp_path, n_stocks=2, n_steps=30) / "manifest.json")
        args = {"simulate": ["--n-stocks", "2", "--n-steps", "10",
                             "--fear-probability", "0", "--seed", "0"],
                "condcorr": ["--manifest", manifest],
                "invstats": ["--manifest", manifest, "--detrend-window", "0"]}[command]
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main([command, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {out}: cannot create output directory (File exists)")
        assert out.read_text() == "keep\n"

    def test_data_error_exit_code(self, tmp_path, capsys):
        code = main([
            "condcorr", "--manifest", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert "no such manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, message", [
        ("simulate", ["--seed", "-1"], "seed must be >= 0"),
        ("simulate", ["--step-size", "inf"], "step_size must be finite"),
        ("simulate", ["--step-size", "nan"], "step_size must be finite"),
        ("condcorr", ["--seed", "-1"], "seed must be >= 0"),
    ], ids=["simulate-seed", "simulate-step-inf", "simulate-step-nan", "condcorr-seed"])
    def test_bad_seed_or_step_exits_2(self, tmp_path, capsys, command, flags, message):
        """A negative seed or a non-finite step size exits 2 naming it, not 1
        with numpy's traceback (nor 3 on a market of infinite prices), and
        before any input is read: ``condcorr`` gets an absent manifest,
        which would exit 3."""
        args = {
            "simulate": ["simulate", "--n-stocks", "2", "--n-steps", "10",
                         "--fear-probability", "0.1", "--seed", "0"],
            "condcorr": ["condcorr", "--manifest", str(tmp_path / "absent.json")],
        }[command]
        assert main([*args, "--out", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("market, message", [
        ((2, 10, 0, 800, 1), "step_size 800 takes simulated prices out of the float range"),
        ((2, 1, 0.4, 800, 2), "step_size 800 takes simulated prices out of the float range"),
        ((2, 10, 0, 1e308, 1), "step_size 1e+308 takes simulated prices out of the float range"),
        ((1, 10, 0, 0.01, 1), "panel needs at least 2 stocks"),
    ], ids=["prices-overflow", "prices-underflow", "log-prices-overflow", "one-stock"])
    def test_simulate_refuses_before_creating_out(self, tmp_path, capsys, market, message):
        """A step size whose prices leave the float range exits 2 naming it,
        not 3 after numpy's overflow warning, and neither it nor a one-stock
        market leaves an empty --out behind.  Seed 1 steps to exp(±800), seed
        2's one step is a fear step, taking both prices to exp(−800) = 0, and
        steps of 1e308 take the log prices themselves to ±inf and NaN."""
        out = tmp_path / "out"
        flags = ("--n-stocks", "--n-steps", "--fear-probability", "--step-size", "--seed")
        argv = [a for flag, value in zip(flags, market) for a in (flag, str(value))]
        assert main(["simulate", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_ingest_check_csv_and_manifest(self, tmp_path, capsys):
        data = simulated_dataset(tmp_path, n_stocks=2, n_steps=30)
        assert main(["ingest-check", str(data / "S00.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        entry = report[str(data / "S00.csv")]
        assert entry["kind"] == "csv" and entry["rows"] == 31

        assert main(["ingest-check", str(data / "manifest.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        entry = report[str(data / "manifest.json")]
        assert entry["kind"] == "manifest"
        assert entry["tickers"] == ["S00", "S01"]
        assert entry["common_days"] == 31

    def test_ingest_check_bad_file(self, tmp_path, capsys):
        bad = csv_file(tmp_path, "BAD.csv", [quote("2000-01-03", "-5")])
        assert main(["ingest-check", str(bad)]) == 3
        assert "non-positive" in capsys.readouterr().err

    def test_invstats_requires_exactly_one_source(self, tmp_path, capsys):
        data = simulated_dataset(tmp_path, n_stocks=2, n_steps=30)
        assert main(["invstats", "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()
        assert main([
            "invstats", "--manifest", str(data / "manifest.json"),
            "--csv", str(data / "S00.csv"), "--out", str(tmp_path / "o"),
        ]) == 2
        assert "exactly one" in capsys.readouterr().err
