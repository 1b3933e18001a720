"""Tests for the command line interface.

Integration tests drive ``main`` in-process with argument lists.
Subprocess smoke tests check the entry points: ``python -m mcdmanova``,
and the console script declared in ``pyproject.toml``, whose target is
run everywhere and whose installed ``mcdmanova`` script is run only when
one is on PATH.  Heavy robust runs use tiny designs and low-precision
on-the-fly calibration so the whole module stays fast.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcdmanova
from mcdmanova.calibration import (
    CalibrationEntry,
    CalibrationKey,
    calibrate_design,
    read_cache,
    write_cache,
)
from mcdmanova import cli
from mcdmanova.cli import build_parser, main, parse_table
from mcdmanova.errors import (
    CorruptCache,
    DimensionError,
    DomainError,
    EmptyTable,
    MissingCalibration,
    MissingColumn,
    NonNumeric,
    NonPositivePart,
)
from mcdmanova.manova import (
    Hypothesis,
    Model,
    calibrated_pvalue,
    hypotheses_for,
    run_manova,
    validate_layout,
)
from mcdmanova.mcd import McdConfig

# First six observations of the waste-composition example, as a CSV.
WASTE_HEAD = """\
district,year,biogenic,recyclables,residual
XY,2011,0.2073,0.2493,0.5434
XY,2011,0.7065,0.1194,0.1741
XY,2011,0.1058,0.6923,0.2019
XY,2011,0.2537,0.2985,0.4478
A,2011,0.4793,0.1047,0.4160
A,2011,0.0966,0.1690,0.7345
"""


def write_balanced_csv(path, r=2, c=2, n=6, seed=7, compositional=True):
    """A balanced two-factor table with three response columns."""
    rng = np.random.default_rng(seed)
    lines = ["district,year,biogenic,recyclables,residual"]
    districts = ["XY", "A", "B", "C"][:r]
    years = ["2011", "2012", "2013"][:c]
    for d in districts:
        for y in years:
            for _ in range(n):
                if compositional:
                    x = rng.dirichlet((4.0, 3.0, 5.0))
                else:
                    x = rng.standard_normal(3)
                lines.append(f"{d},{y}," + ",".join(f"{v:.6f}" for v in x))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParseTable:
    def test_waste_head_rows(self, tmp_path):
        path = tmp_path / "waste.csv"
        path.write_text(WASTE_HEAD, encoding="utf-8")
        rows = parse_table(
            path, ["district", "year"],
            ["biogenic", "recyclables", "residual"],
        )
        assert len(rows) == 6
        assert rows[0] == ("XY", "2011", 0.2073, 0.2493, 0.5434)
        assert rows[4] == ("A", "2011", 0.4793, 0.1047, 0.4160)
        assert {row[0] for row in rows} == {"XY", "A"}
        assert {row[1] for row in rows} == {"2011"}

    @pytest.mark.parametrize("delim", [",", ";", "\t"])
    def test_delimiter_autodetect(self, tmp_path, delim):
        path = tmp_path / "t.txt"
        body = WASTE_HEAD.replace(",", delim)
        path.write_text(body, encoding="utf-8")
        rows = parse_table(path, ["district", "year"], ["biogenic"])
        assert rows[0] == ("XY", "2011", 0.2073)

    def test_column_subset_and_order(self, tmp_path):
        path = tmp_path / "waste.csv"
        path.write_text(WASTE_HEAD, encoding="utf-8")
        rows = parse_table(
            path, ["year", "district"], ["residual", "biogenic"]
        )
        assert rows[0] == ("2011", "XY", 0.5434, 0.2073)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "a,b,y\n\nu,v,1.5\n   \nw,x,2.5\n", encoding="utf-8"
        )
        rows = parse_table(path, ["a", "b"], ["y"])
        assert rows == [("u", "v", 1.5), ("w", "x", 2.5)]

    def test_requested_column_twice_in_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y,y\nu,v,1,2\nu,w,3,4\n", encoding="utf-8")
        with pytest.raises(DomainError, match="column 'y' appears more than once"):
            parse_table(path, ["a", "b"], ["y"])
        # a repeated column nobody asks for is no error
        assert parse_table(path, ["b", "a"], []) == [("v", "u"), ("w", "u")]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(WASTE_HEAD, encoding="utf-8")
        marked.write_text(WASTE_HEAD, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        columns = (["district", "year"], ["biogenic", "recyclables", "residual"])
        assert parse_table(marked, *columns) == parse_table(plain, *columns)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n", encoding="utf-8")
        with pytest.raises(EmptyTable):
            parse_table(path, ["a", "b"], ["y"])

    def test_no_lines_at_all(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyTable):
            parse_table(path, ["a", "b"], ["y"])

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(WASTE_HEAD, encoding="utf-8")
        with pytest.raises(MissingColumn, match="glass"):
            parse_table(path, ["district", "year"], ["glass"])

    def test_non_numeric_reports_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "a,b,y\nu,v,1.5\nw,x,oops\n", encoding="utf-8"
        )
        with pytest.raises(NonNumeric, match="row 2"):
            parse_table(path, ["a", "b"], ["y"])

    def test_ragged_row_reports_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\nu,v,1.5\nw,x\n", encoding="utf-8")
        with pytest.raises(DimensionError, match="row 2"):
            parse_table(path, ["a", "b"], ["y"])

    def test_factor_levels_first_appearance(self, tmp_path):
        path = tmp_path / "t.csv"
        write_balanced_csv(path, n=2)
        layout = validate_layout(
            parse_table(path, ["district", "year"],
                        ["biogenic", "recyclables", "residual"])
        )
        # XY appears before A, 2011 before 2012
        assert layout.r == 2 and layout.c == 2 and layout.n == 2


def run_cli(argv, capsys):
    """Invoke main() and capture (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--factors", "district", "year",
        "--responses", "biogenic", "recyclables", "residual"]


class TestTestSubcommand:
    def test_additive_table_layout(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        code, out, err = run_cli(
            ["test", "--input", str(data), *BASE, "--model", "additive",
             "--method", "cla", "--method", "rnk"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["cla", "rnk"]
        assert lines[1].startswith("district ")
        assert lines[2].startswith("year ")
        assert len(lines) == 3
        # every p-value is printed with exactly three decimals
        for line in lines[1:]:
            for cell in line.split()[1:]:
                assert len(cell.split(".")[1]) == 3

    def test_interactions_adds_colon_row(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        code, out, _ = run_cli(
            ["test", "--input", str(data), *BASE,
             "--method", "cla"],
            capsys,
        )
        assert code == 0
        labels = [line.split()[0] for line in out.splitlines()[1:]]
        assert labels == ["district", "year", "district:year"]

    def test_values_match_library(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        out_file = tmp_path / "report.tsv"
        code, out, _ = run_cli(
            ["test", "--input", str(data), *BASE, "--model", "additive",
             "--method", "cla", "--method", "rnk",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        layout = validate_layout(
            parse_table(data, ["district", "year"],
                        ["biogenic", "recyclables", "residual"])
        )
        expected = {
            (rep.method, rep.hypothesis): rep
            for m in ("cla", "rnk")
            for rep in run_manova(layout, Model.ADDITIVE_ONLY, m)
        }
        # human table: 3-decimal rendering of the library p-values
        rows = [line.split() for line in out.splitlines()[1:]]
        assert rows[0][1] == format(
            expected[("cla", Hypothesis.ROW_EFFECTS)].p_value, ".3f"
        )
        assert rows[1][2] == format(
            expected[("rnk", Hypothesis.COL_EFFECTS)].p_value, ".3f"
        )
        # machine table: exact 17-significant-digit round trip
        machine = out_file.read_text().splitlines()
        assert machine[0] == "hypothesis\tmethod\tlambda\tp_value"
        for line in machine[1:]:
            label, method, lam, pv = line.split("\t")
            hyp = (Hypothesis.ROW_EFFECTS if label == "district"
                   else Hypothesis.COL_EFFECTS)
            rep = expected[(method, hyp)]
            assert float(lam) == rep.lambda_
            assert float(pv) == rep.p_value

    def test_hypothesis_filter(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        code, out, _ = run_cli(
            ["test", "--input", str(data), *BASE, "--method", "cla",
             "--hypothesis", "interaction"],
            capsys,
        )
        assert code == 0
        labels = [line.split()[0] for line in out.splitlines()[1:]]
        assert labels == ["district:year"]

    def test_interaction_under_additive_is_usage_error(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        with pytest.raises(SystemExit) as info:
            main(["test", "--input", str(data), *BASE,
                  "--model", "additive", "--hypothesis", "interaction"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mcdmanova test [-h] --input INPUT")
        assert err.endswith("\nmcdmanova test: error: the interaction hypothesis "
                            "is undefined under the additive model\n")

    @pytest.mark.parametrize("sub", ["test", "ilr"])
    def test_factor_and_response_counts_are_usage_errors(self, sub, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        for argv in (["--factors", "district", "--responses", "biogenic"],
                     ["--factors", "district", "year", "--responses"]):
            with pytest.raises(SystemExit) as info:
                main([sub, "--input", str(data), *argv])
            assert info.value.code == 2
            assert "error: argument" in capsys.readouterr().err

    def test_repeated_flags_are_deduplicated(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        code, out, _ = run_cli(
            ["test", "--input", str(data), *BASE,
             "--method", "rnk", "--method", "cla", "--method", "rnk",
             "--hypothesis", "col", "--hypothesis", "row",
             "--hypothesis", "col"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["rnk", "cla"]
        assert [line.split()[0] for line in lines[1:]] == ["year", "district"]

    def test_reused_parser_keeps_calls_apart(self, tmp_path, capsys):
        # main() parses with one parser per process; a repeatable option
        # of one call must not leak into the next
        data = write_balanced_csv(tmp_path / "d.csv")
        heads = []
        for methods in (["cla", "rnk"], ["rnk"], ["cla"]):
            flags = [arg for m in methods for arg in ("--method", m)]
            code, out, _ = run_cli(
                ["test", "--input", str(data), *BASE, *flags], capsys
            )
            assert code == 0
            heads.append(out.splitlines()[0].split())
        assert heads == [["cla", "rnk"], ["rnk"], ["cla"]]
        assert cli._parser() is cli._parser()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        args = ["test", "--input", str(data), *BASE, "--method", "cla",
                "--method", "rnk"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_mcd_on_the_fly_writes_cache(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        cache = tmp_path / "cal.txt"
        args = ["test", "--input", str(data), *BASE, "--ilr",
                "--method", "mcd", "--cache", str(cache),
                "--calibrate-on-the-fly", "60", "--seed", "3"]
        code, first, err = run_cli(args, capsys)
        assert code == 0
        assert "low precision" in err
        entries = read_cache(cache)
        assert len(entries) == 5
        key = CalibrationKey(
            2, 2, 2, 6, Model.WITH_INTERACTIONS, Hypothesis.ROW_EFFECTS,
            60, 3,
        )
        assert key in entries
        # second run needs no on-the-fly pass and reproduces the table
        code, second, err = run_cli(
            ["test", "--input", str(data), *BASE, "--ilr",
             "--method", "mcd", "--cache", str(cache), "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert second == first

    def test_note_names_the_entries_the_p_values_used(self, tmp_path, capsys):
        # the cache holds a 50-trial row entry only: the row p-value uses
        # it, and the col lookup calibrates all five pairs at 100 trials,
        # a row entry with more trials among them
        data = write_balanced_csv(tmp_path / "d.csv")
        cache, out = tmp_path / "cal.txt", tmp_path / "p.tsv"
        cached = CalibrationEntry(
            CalibrationKey(2, 2, 2, 6, Model.WITH_INTERACTIONS,
                           Hypothesis.ROW_EFFECTS, 50, 3),
            0.0625, 4.0, 0.25, 0.03125,
        )
        write_cache(cache, {cached.key: cached})
        code, _, err = run_cli(
            ["test", "--input", str(data), *BASE, "--ilr", "--method", "mcd",
             "--cache", str(cache), "--calibrate-on-the-fly", "100",
             "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "note: calibration used only 50 trials;" in err
        assert len(read_cache(cache)) == 6
        _, _, lam, p_value = out.read_text().splitlines()[1].split("\t")
        assert float(p_value) == calibrated_pvalue(float(lam), cached)

    @staticmethod
    def write_small_cache(path, trials):
        """Entries of the 2x2 n=6 p=2 design at ``trials(model, hypothesis)``
        trials each, skipping pairs where it is None; their fields (delta
        1/16, q 4, ave_L 1/4, var_L 1/32) meet the entry invariants."""
        entries = [
            CalibrationEntry(CalibrationKey(2, 2, 2, 6, model, hyp, m_prime, 3),
                             0.0625, 4.0, 0.25, 0.03125)
            for model in Model for hyp in hypotheses_for(model)
            if (m_prime := trials(model, hyp)) is not None
        ]
        write_cache(path, {entry.key: entry for entry in entries})
        return {(e.key.model, e.key.hypothesis): e for e in entries}

    def test_note_covers_only_the_printed_hypotheses(self, tmp_path, capsys):
        # every entry has 100 trials but the interaction one, which a
        # row-only run neither uses nor mentions
        data = write_balanced_csv(tmp_path / "d.csv")
        cache, out = tmp_path / "cal.txt", tmp_path / "p.tsv"
        entries = self.write_small_cache(
            cache, lambda model, hyp: 50 if hyp is Hypothesis.INTERACTIONS else 100)
        argv = ["test", "--input", str(data), *BASE, "--ilr", "--method", "mcd",
                "--cache", str(cache), "--seed", "1", "--out", str(out)]
        code, table, err = run_cli([*argv, "--hypothesis", "row"], capsys)
        assert code == 0 and err == ""
        assert [line.split()[0] for line in table.splitlines()[1:]] == ["district"]
        _, _, lam, p_value = out.read_text().splitlines()[1].split("\t")
        entry = entries[Model.WITH_INTERACTIONS, Hypothesis.ROW_EFFECTS]
        assert float(p_value) == calibrated_pvalue(float(lam), entry)
        code, _, err = run_cli([*argv, "--hypothesis", "interaction"], capsys)
        assert code == 0
        assert "note: calibration used only 50 trials;" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda data: b"\xef\xbb\xbf" + data, "cache line 1: not ASCII"),
        (lambda data: data.replace(b" q=", " note=caf\u00e9 q=".encode(), 1),
         "cache line 2: not ASCII"),
        (lambda data: re.sub(rb"delta=.*", b"delta=inf q=1 ave_L=inf var_L=inf", data, 1),
         "cache line 2: delta, q, ave_L and var_L must all be finite"),
    ], ids=["byte-order-mark", "utf8-record", "infinite-record"])
    def test_unreadable_cache_exits_corrupt(self, tmp_path, capsys, edit, message):
        data = write_balanced_csv(tmp_path / "d.csv")
        cache = tmp_path / "cal.txt"
        self.write_small_cache(cache, lambda model, hyp: 100)
        cache.write_bytes(edit(cache.read_bytes()))
        code, table, err = run_cli(
            ["test", "--input", str(data), *BASE, "--ilr", "--method", "mcd",
             "--cache", str(cache), "--seed", "1"], capsys)
        assert code == CorruptCache.exit_code == 15 and table == ""
        assert err == f"mcdmanova: error: {message}\n"

    def test_only_the_printed_hypotheses_need_entries(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        cache = tmp_path / "cal.txt"
        self.write_small_cache(
            cache, lambda model, hyp: None if hyp is Hypothesis.INTERACTIONS else 100)
        argv = ["test", "--input", str(data), *BASE, "--ilr", "--method", "mcd",
                "--cache", str(cache), "--seed", "1"]
        code, table, err = run_cli([*argv, "--hypothesis", "row", "--hypothesis", "col"],
                                   capsys)
        assert code == 0 and err == ""
        assert [line.split()[0] for line in table.splitlines()[1:]] == ["district", "year"]
        code, table, err = run_cli(argv, capsys)
        assert code == MissingCalibration.exit_code and table == ""
        assert "hypothesis=interaction" in err
        assert read_cache(cache).keys() == {
            CalibrationKey(2, 2, 2, 6, model, hyp, 100, 3)
            for model in Model for hyp in hypotheses_for(model)
            if hyp is not Hypothesis.INTERACTIONS
        }

    def test_negative_on_the_fly_trials_is_domain_error(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        cache = tmp_path / "cal.txt"
        code, out, err = run_cli(
            ["test", "--input", str(data), *BASE, "--ilr", "--method", "mcd",
             "--cache", str(cache), "--calibrate-on-the-fly", "-1"],
            capsys,
        )
        assert code == DomainError.exit_code
        assert out == ""
        assert err == "mcdmanova: error: m_prime must be at least 2, got -1\n"
        assert not cache.exists()

    def test_cache_env_fallback(self, tmp_path, capsys, monkeypatch):
        data = write_balanced_csv(tmp_path / "d.csv")
        cache = tmp_path / "env_cal.txt"
        monkeypatch.setenv("CAL_CACHE", str(cache))
        code, _, _ = run_cli(
            ["test", "--input", str(data), *BASE, "--ilr",
             "--method", "mcd", "--calibrate-on-the-fly", "60"],
            capsys,
        )
        assert code == 0
        assert cache.exists() and len(read_cache(cache)) == 5

    def test_p1_univariate_works(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        code, out, _ = run_cli(
            ["test", "--input", str(data), "--factors", "district", "year",
             "--responses", "biogenic", "--method", "cla"],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 4


class TestIlrSubcommand:
    def test_transform_output_shape(self, tmp_path, capsys):
        data = tmp_path / "waste.csv"
        data.write_text(WASTE_HEAD, encoding="utf-8")
        code, out, _ = run_cli(
            ["ilr", "--input", str(data), *BASE], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "district,year,ilr1,ilr2"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[:2] == ["XY", "2011"]
        z = np.array([float(first[2]), float(first[3])])
        expected = np.array([
            np.sqrt(0.5) * np.log(0.2073 / 0.2493),
            np.sqrt(2.0 / 3.0) * np.log(
                np.sqrt(0.2073 * 0.2493) / 0.5434
            ),
        ])
        np.testing.assert_allclose(z, expected, rtol=1e-12)

    def test_single_response_rejected(self, tmp_path, capsys):
        data = tmp_path / "waste.csv"
        data.write_text(WASTE_HEAD, encoding="utf-8")
        code, _, err = run_cli(
            ["ilr", "--input", str(data), "--factors", "district", "year",
             "--responses", "biogenic"],
            capsys,
        )
        assert code == DimensionError.exit_code
        assert "at least two" in err

    @pytest.mark.parametrize("delim", [",", ";", "\t"])
    def test_round_trip_matches_inline_transform(self, delim, tmp_path, capsys):
        """ilr output piped into test equals test --ilr, byte for byte.

        The output keeps the input's separator, so a factor label of a
        ``;`` or tab table may hold a comma."""
        data = write_balanced_csv(tmp_path / "d.csv")
        if delim != ",":
            lines = data.read_text(encoding="utf-8").replace(",", delim).splitlines()
            lines = [line.replace(f"XY{delim}", f"X,Y{delim}", 1) for line in lines]
            data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        transformed = tmp_path / "d_ilr.csv"
        code, _, _ = run_cli(
            ["ilr", "--input", str(data), *BASE, "--out", str(transformed)],
            capsys,
        )
        assert code == 0
        written = transformed.read_text(encoding="utf-8").splitlines()
        assert written[0] == delim.join(["district", "year", "ilr1", "ilr2"])
        assert all(len(line.split(delim)) == 4 for line in written)
        assert written[1].startswith("XY," if delim == "," else f"X,Y{delim}2011{delim}")
        common = ["--model", "additive", "--method", "cla", "--method", "rnk"]
        out_a = tmp_path / "a.tsv"
        code, human_a, _ = run_cli(
            ["test", "--input", str(transformed),
             "--factors", "district", "year",
             "--responses", "ilr1", "ilr2", *common, "--out", str(out_a)],
            capsys,
        )
        assert code == 0
        out_b = tmp_path / "b.tsv"
        code, human_b, _ = run_cli(
            ["test", "--input", str(data), *BASE, "--ilr", *common,
             "--out", str(out_b)],
            capsys,
        )
        assert code == 0
        assert human_a == human_b
        assert out_a.read_bytes() == out_b.read_bytes()


class TestCalibrateSubcommand:
    def test_writes_exact_entries(self, tmp_path, capsys):
        cache = tmp_path / "cal.txt"
        code, out, _ = run_cli(
            ["calibrate", "--design", "2", "2", "5", "1",
             "--m-prime", "40", "--seed", "2", "--cache", str(cache)],
            capsys,
        )
        assert code == 0
        assert "5 entries" in out
        stored = read_cache(cache)
        expected = calibrate_design(1, 2, 2, 5, 40, 2)
        assert len(stored) == 5
        for entry in expected:
            assert stored[entry.key] == entry

    def test_negative_m_prime_is_domain_error(self, tmp_path, capsys):
        cache = tmp_path / "c.txt"
        code, out, err = run_cli(
            ["calibrate", "--design", "3", "2", "8", "2",
             "--m-prime", "-1", "--cache", str(cache)],
            capsys,
        )
        assert code == DomainError.exit_code == 3
        assert out == ""
        assert err == "mcdmanova: error: m_prime must be at least 2, got -1\n"
        assert not cache.exists()

    def test_no_cache_path_is_error(self, capsys, monkeypatch):
        monkeypatch.delenv("CAL_CACHE", raising=False)
        code, _, err = run_cli(
            ["calibrate", "--design", "2", "2", "5", "1",
             "--m-prime", "2"],
            capsys,
        )
        assert code == DomainError.exit_code
        assert "--cache" in err


class TestCalibrationIdentity:
    def test_entry_fitted_at_another_alpha_is_not_served(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv", r=3, c=2, n=8,
                                  compositional=False)
        fitted = tmp_path / "fitted.txt"
        code, _, _ = run_cli(
            ["calibrate", "--design", "3", "2", "8", "3", "--m-prime", "20",
             "--seed", "1", "--cache", str(fitted)],
            capsys,
        )
        assert code == 0
        p_values = {}
        for name, cache in (("fitted", fitted), ("empty", tmp_path / "empty.txt")):
            out = tmp_path / f"{name}.tsv"
            code, _, _ = run_cli(
                ["test", "--input", str(data), *BASE, "--method", "mcd",
                 "--mcd-alpha", "0.75", "--cache", str(cache),
                 "--calibrate-on-the-fly", "20", "--seed", "1",
                 "--out", str(out)],
                capsys,
            )
            assert code == 0
            p_values[name] = [line.split("\t")[3]
                              for line in out.read_text().splitlines()[1:]]
        assert len(p_values["empty"]) == 3
        assert p_values["fitted"] == p_values["empty"]

    def test_entry_at_another_alpha_named_in_the_error(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv", r=3, c=2, n=8,
                                  compositional=False)
        cache = tmp_path / "fitted.txt"
        run_cli(["calibrate", "--design", "3", "2", "8", "3", "--m-prime", "4",
                 "--seed", "1", "--cache", str(cache)], capsys)
        code, table, err = run_cli(
            ["test", "--input", str(data), *BASE, "--method", "mcd",
             "--hypothesis", "row", "--mcd-alpha", "0.75", "--cache", str(cache)],
            capsys,
        )
        assert code == MissingCalibration.exit_code and table == ""
        assert (
            "hypothesis=row at alpha=0.75 n_starts=500 n_keep=10 pipeline=1; "
            "stored only at alpha=0.5 n_starts=500 n_keep=10 pipeline=1;"
        ) in err


class TestSimulateSubcommand:
    def write_spec(self, path, extra=""):
        path.write_text(
            "# toy experiment\n"
            "kind = size\nr = 2\nc = 2\np = 2\nn = 6\n"
            "methods = cla, rnk\nsettings = 0\nm = 40\nseed = 5\n"
            + extra,
            encoding="utf-8",
        )
        return path

    def test_runs_and_reports(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path / "exp.txt")
        out_file = tmp_path / "sim.tsv"
        code, out, _ = run_cli(
            ["simulate", "--input", str(spec), "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert out.startswith("kind: size  design: r=2 c=2 p=2 n=6")
        assert "interactions model, row hypothesis" in out
        lines = out_file.read_text().splitlines()
        assert lines[0].split("\t")[:2] == ["kind", "r"]
        # 2 methods x 5 (model, hypothesis) pairs
        assert len(lines) == 11
        for line in lines[1:]:
            fields = line.split("\t")
            assert int(fields[10]) == 40
            assert float(fields[12]) == int(fields[11]) / 40

    def test_rerun_byte_identical_and_seed_override(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path / "exp.txt")
        args = ["simulate", "--input", str(spec)]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second
        _, other, _ = run_cli(args + ["--seed", "99"], capsys)
        assert other != first

    def test_alpha_override_changes_rates(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path / "exp.txt")
        _, strict, _ = run_cli(
            ["simulate", "--input", str(spec), "--alpha", "0.9"], capsys
        )
        assert "alpha=0.9" in strict

    def test_bad_epsilon_fails_before_calibrating(self, tmp_path, capsys):
        spec, cache = tmp_path / "exp.txt", tmp_path / "cal.txt"
        spec.write_text(
            "kind = robustness\nr = 2\nc = 2\np = 2\nn = 6\nmethods = cla, mcd\n"
            "settings = 1\nm = 4\nepsilon = 0.6\n", encoding="utf-8")
        code, out, err = run_cli(
            ["simulate", "--input", str(spec), "--cache", str(cache),
             "--calibrate-on-the-fly", "20"], capsys)
        assert code == DomainError.exit_code == 3 and out == ""
        assert err == "mcdmanova: error: epsilon must lie in [0, 0.5), got 0.6\n"
        assert not cache.exists()

    def test_bad_spec_file_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "exp.txt"
        bad.write_text("kind = size\n", encoding="utf-8")
        code, _, err = run_cli(["simulate", "--input", str(bad)], capsys)
        assert code == DomainError.exit_code
        assert "missing keys" in err


class TestExitCodes:
    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(
            ["test", "--input", "/nonexistent/x.csv", *BASE,
             "--method", "cla"],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_missing_column(self, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        code, _, _ = run_cli(
            ["test", "--input", str(data), "--factors", "district", "year",
             "--responses", "nope", "--method", "cla"],
            capsys,
        )
        assert code == MissingColumn.exit_code

    def test_non_numeric(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,y\nu,v,1\nu,w,x\n", encoding="utf-8")
        code, _, err = run_cli(
            ["test", "--input", str(data), "--factors", "a", "b",
             "--responses", "y", "--method", "cla"],
            capsys,
        )
        assert code == NonNumeric.exit_code
        assert "row 2" in err

    @pytest.mark.parametrize("argv", [["ilr"], ["test", "--ilr", "--method", "cla"]])
    def test_non_positive_part_names_the_data_row(self, argv, tmp_path, capsys):
        # data row 3 (a blank line above it does not count) has a zero part
        data = write_balanced_csv(tmp_path / "d.csv")
        lines = data.read_text(encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        fields[3] = "0"
        lines[3] = ",".join(fields)
        lines.insert(2, "")
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(
            [argv[0], "--input", str(data), *BASE, *argv[1:]], capsys
        )
        assert code == NonPositivePart.exit_code == 17
        assert err == (
            "mcdmanova: error: row 3: part 2 is 0.0; "
            "all parts must be positive and finite\n"
        )

    def test_too_few_levels(self, tmp_path, capsys):
        # the six-row example only covers one year
        data = tmp_path / "d.csv"
        data.write_text(WASTE_HEAD, encoding="utf-8")
        code, _, _ = run_cli(
            ["test", "--input", str(data), *BASE, "--method", "cla"],
            capsys,
        )
        assert code == 7

    def test_unbalanced(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text(
            WASTE_HEAD.replace("A,2011,0.0966", "A,2012,0.0966"),
            encoding="utf-8",
        )
        code, _, _ = run_cli(
            ["test", "--input", str(data), *BASE, "--method", "cla"],
            capsys,
        )
        assert code == 5

    @pytest.mark.parametrize("sub", ["test", "ilr"])
    @pytest.mark.parametrize("factors, responses, twice", [
        (["district", "year"], ["biogenic", "biogenic"], "biogenic"),
        (["district", "district"], ["biogenic", "residual"], "district"),
        (["district", "year"], ["residual", "year"], "year"),
    ])
    def test_column_named_twice(self, sub, factors, responses, twice, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        code, out, err = run_cli(
            [sub, "--input", str(data), "--factors", *factors, "--responses", *responses],
            capsys,
        )
        assert code == DomainError.exit_code == 3
        assert (out, err) == ("", f"mcdmanova: error: column {twice!r} is named twice\n")

    @pytest.mark.parametrize("sub", ["test", "ilr"])
    @pytest.mark.parametrize("header, twice", [
        ("district,year,biogenic,recyclables,biogenic", "biogenic"),
        ("district,year,biogenic,recyclables,year", "year"),
    ])
    def test_column_twice_in_header(self, sub, header, twice, tmp_path, capsys):
        data = write_balanced_csv(tmp_path / "d.csv")
        lines = data.read_text(encoding="utf-8").splitlines()
        data.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            [sub, "--input", str(data), "--factors", "district", "year",
             "--responses", "biogenic", "recyclables"],
            capsys,
        )
        assert code == DomainError.exit_code == 3
        assert (out, err) == (
            "", f"mcdmanova: error: column {twice!r} appears more than once in the header\n")

    def test_missing_calibration(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CAL_CACHE", raising=False)
        data = write_balanced_csv(tmp_path / "d.csv")
        code, _, err = run_cli(
            ["test", "--input", str(data), *BASE, "--ilr",
             "--method", "mcd"],
            capsys,
        )
        assert code == 14
        assert "--calibrate-on-the-fly" in err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("test", "calibrate", "simulate", "ilr")
# Subprocesses import the package these tests import, installed or not.
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(Path(mcdmanova.__file__).parents[1]), os.environ.get("PYTHONPATH")))
))


def assert_help(cmd):
    """``cmd`` exits 0 and its usage line lists every subcommand."""
    proc = subprocess.run(cmd, capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    choices = re.search(r"\{([^}]*)\}", proc.stdout)
    assert choices is not None, proc.stdout
    assert set(choices.group(1).split(",")) >= set(SUBCOMMANDS)


class TestInstalledEntryPoints:
    def test_console_script_help(self):
        # The declared target, run the way pip's generated wrapper runs
        # it, so the check needs no install.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["mcdmanova"]
        module, _, attr = target.partition(":")
        wrapper = (
            f"import sys; from {module} import {attr}; sys.exit({attr}())"
        )
        assert_help([sys.executable, "-c", wrapper, "--help"])
        # The installed script itself, where an install put one on PATH.
        script = shutil.which("mcdmanova")
        if script is not None:
            assert_help([script, "--help"])

    def test_module_invocation(self, tmp_path):
        data = write_balanced_csv(tmp_path / "d.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "mcdmanova", "test",
             "--input", str(data), *BASE, "--method", "cla"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("district ")

    def test_runtime_path_never_loads_scipy(self, tmp_path):
        # SciPy is a test-only oracle: importing the package, a rank
        # test on --ilr data and --help must leave it unloaded.
        data = write_balanced_csv(tmp_path / "d.csv")
        script = (
            "import contextlib, io, json, sys\n"
            "import mcdmanova\n"
            "from mcdmanova import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "    try:\n"
            "        cli.main(['--help'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(json.dumps([code, sorted(loaded)]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "test", "--input", str(data), *BASE,
             "--ilr", "--method", "rnk"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]

    def test_import_loads_no_process_pool_modules(self):
        # replicate imports them only when it opens a pool
        script = (
            "import json, sys\n"
            "import mcdmanova, mcdmanova.cli\n"
            "print(json.dumps([m in sys.modules"
            " for m in ('multiprocessing', 'concurrent.futures')]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, False]

    def test_scipy_is_not_a_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            project = tomllib.load(fh)["project"]
        names = [re.split(r"[<>=!~ \[;]", dep)[0] for dep in project["dependencies"]]
        assert names == ["numpy"]
        assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "mcdmanova"

    def test_mcd_alpha_defaults_to_the_config_default(self):
        parser = build_parser()
        for argv in (["test", "--input", "t.csv", "--factors", "a", "b", "--responses", "y"],
                     ["calibrate", "--design", "2", "2", "5", "2"],
                     ["simulate", "--input", "e.txt"]):
            args = parser.parse_args(argv)
            assert McdConfig(alpha=args.mcd_alpha) == McdConfig()
