"""The verdicts ``tools/bench_pairs.py`` writes into a paired record."""

import argparse
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    module_spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


tool = load_tool()
END_TO_END = tool.spec.END_TO_END

# One metric of each direction.
METRICS = ["reps_per_s", "setup_s"]
# Ten parent runs 0.55 apart between quartiles, and ten 55 apart, where
# the wide ones exceed a 25% bound of their median (36.25).
TIGHT = [100 + 0.1 * i for i in range(10)]
WIDE = [100 + 10 * i for i in range(10)]


def even_pairs(count):
    """``count`` pairs that read 1.0 on every metric, on both sides."""
    return [
        {side: {"metrics": dict.fromkeys(END_TO_END, 1.0)} for side in ("parent", "change")}
        for _ in range(count)
    ]


def verdict(name, parent, gains):
    """The summary of metric ``name`` when the change moves each parent
    run by its gain in the metric's better direction."""
    sign = 1 if END_TO_END[name][1] == "higher" else -1
    pairs = even_pairs(len(parent))
    for pair, value, gain in zip(pairs, parent, gains):
        pair["parent"]["metrics"][name] = value
        pair["change"]["metrics"][name] = value + sign * gain
    return tool.summary(pairs)[name]


def test_every_metric_carries_both_verdicts():
    summary = tool.summary(even_pairs(2))
    assert summary.keys() == END_TO_END.keys()
    for name, row in summary.items():
        assert row["bound"] == END_TO_END[name][2]
        assert row["gain_rule_met"] is False
        assert row["regression"] == "none"
        assert row["change_better_pairs"] == 0  # ties count for neither side


@pytest.mark.parametrize("name", METRICS)
class TestGainRule:
    def test_nine_wins_of_ten_beyond_the_spread(self, name):
        row = verdict(name, TIGHT, [5] * 9 + [-1])
        assert row["change_better_pairs"] == 9
        assert row["parent_iqr"] == pytest.approx(0.55)
        assert row["gain_rule_met"] is True
        assert row["regression"] == "none"

    def test_eight_wins_of_ten(self, name):
        assert verdict(name, TIGHT, [5] * 8 + [-1] * 2)["gain_rule_met"] is False

    def test_ties_count_for_neither_side(self, name):
        row = verdict(name, TIGHT, [5] * 8 + [0] * 2)
        assert row["change_better_pairs"] == 8
        assert row["gain_rule_met"] is False

    def test_ten_wins_inside_the_spread(self, name):
        row = verdict(name, TIGHT, [0.3] * 10)
        assert row["change_better_pairs"] == 10
        assert row["gain_rule_met"] is False

    def test_nine_pairs_never_suffice(self, name):
        row = verdict(name, TIGHT[:9], [50] * 9)
        assert row["change_better_pairs"] == 9
        assert row["gain_rule_met"] is False


@pytest.mark.parametrize("name", METRICS)
class TestRegression:
    def test_worse_beyond_the_bound(self, name):
        assert verdict(name, TIGHT, [-30] * 10)["regression"] == "worse"
        assert verdict(name, WIDE, [-40] * 10)["regression"] == "worse"

    def test_worse_inside_the_bound(self, name):
        assert verdict(name, TIGHT, [-20] * 10)["regression"] == "none"

    def test_wide_parent_spread_is_unresolved(self, name):
        assert verdict(name, WIDE, [0] * 10)["regression"] == "unresolved"
        assert verdict(name, WIDE, [95] * 9 + [0])["regression"] == "unresolved"

    def test_unless_every_change_run_beats_every_parent_run(self, name):
        row = verdict(name, WIDE, [95] * 10)
        assert row["regression"] == "none"
        assert row["gain_rule_met"] is True


def test_record_holds_pairs_and_summary_only(monkeypatch, tmp_path):
    calls = []

    def fake_run(root, workload, seed, trace=0):
        calls.append((root.name, seed))
        return {
            "seconds": 30,
            "environment": {"cores": 2},
            "metrics": {name: {"value": 1.0} for name in END_TO_END},
            "correct": True,
            "details": {"calls": 3, "units": 3, "failed": 0},
        }

    monkeypatch.setattr(tool, "run_once", fake_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    args = tool.parse_args([str(tmp_path / "parent"), str(tmp_path / "change"),
                            str(tmp_path / "out.json"), "--workload", "cli-test-ilr", "3"])
    record = tool.compare(args)
    first = tool.FIRST_SEED
    assert calls == [("parent", first), ("change", first), ("change", first + 1),
                     ("parent", first + 1), ("parent", first + 2), ("change", first + 2)]
    workload = record["workloads"]["cli-test-ilr"]
    assert workload.keys() == {"pairs", "summary"}
    assert [pair["first"] for pair in workload["pairs"]] == ["parent", "change", "parent"]


def test_fewer_than_two_pairs_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.parse_args(["a", "b", "out.json", "--workload", "cli-test-ilr", "1"])
    assert exit_info.value.code == 2
    assert "at least 2 pairs" in capsys.readouterr().err
    assert isinstance(
        tool.parse_args(["a", "b", "out.json", "--workload", "cli-test-ilr", "2"]),
        argparse.Namespace,
    )


def test_unknown_workload_refused(capsys):
    # refused before any run, like a bad --traced name
    with pytest.raises(SystemExit) as exit_info:
        tool.parse_args(["a", "b", "out.json", "--workload", "cli-test-ilr", "2",
                         "--workload", "calibrate-3x2-p3", "2"])
    assert exit_info.value.code == 2
    assert "unknown workload 'calibrate-3x2-p3'" in capsys.readouterr().err
