"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import logging
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import quality
import run
import spec
import workloads
from mcdmanova import calibration, cli, manova, simulation
from tracer import TARGETS, Target, Tracer, _get, _resolve, self_times, tail_percentile

ROOT = Path(__file__).resolve().parents[2]


# -- the "highest percentile with ten samples beyond" rule ---------------------


@pytest.mark.parametrize("count, expected", [(5, 50), (20, 52), (100, 90), (1000, 99)])
def test_tail_percentile_known_counts(count, expected):
    assert tail_percentile(np.arange(1.0, count + 1)) == expected


@pytest.mark.parametrize("count", [37, 64, 150, 333])
def test_tail_percentile_is_highest_with_ten_beyond(count):
    samples = np.random.default_rng(count).exponential(size=count)
    pct = tail_percentile(samples)
    assert np.count_nonzero(samples > np.percentile(samples, pct)) >= 10
    for higher in range(pct + 1, 100):
        assert np.count_nonzero(samples > np.percentile(samples, higher)) < 10


# -- self-time arithmetic ------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = self_times(end - start, parent)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(10.0)


@pytest.fixture
def toy_module(monkeypatch):
    mod = types.ModuleType("toy_layer")

    def leaf(x):
        return x + 1

    def inner(x):
        return mod.leaf(x) * 2

    def outer(x):
        total = 0
        for k in range(3):
            total += mod.inner(x + k)
        return mod.outer_again(total)

    def outer_again(x):
        return x

    mod.leaf, mod.inner, mod.outer, mod.outer_again = leaf, inner, outer, outer_again
    monkeypatch.setitem(sys.modules, "toy_layer", mod)
    return mod


def toy_targets():
    return (
        Target("toy_layer", "outer", "toy.outer"),
        Target("toy_layer", "outer_again", "toy.outer"),
        Target("toy_layer", "inner", "toy.inner"),
        Target("toy_layer", "leaf", "toy.leaf"),
    )


def test_tracer_self_times_add_up_to_root(toy_module):
    tracer = Tracer(toy_targets())
    tracer.install()
    tracer.begin_call()
    try:
        assert toy_module.outer(1) == (1 + 1) * 2 + (2 + 1) * 2 + (3 + 1) * 2
    finally:
        tracer.uninstall()
    cols = tracer.arrays()
    # outer_again re-enters the open toy.outer span and is folded into it
    assert tracer.names.count("toy.outer") == 1
    assert tracer.names.count("toy.inner") == 3
    assert tracer.names.count("toy.leaf") == 3
    root = tracer.names.index("toy.outer")
    assert cols["self"].sum() == pytest.approx(cols["duration"][root], rel=1e-9)
    assert (cols["self"] >= 0).all()
    assert set(tracer.call) == {0}


# -- wrappers come off before untraced runs ------------------------------------


def test_wrappers_are_removed_after_uninstall():
    originals = [_get(*_resolve(t)) for t in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        for target in TARGETS:
            assert hasattr(_get(*_resolve(target)), "__wrapped__"), target
        assert cli._COMMANDS["test"] is not cli.cmd_test
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for target, original in zip(TARGETS, originals):
        assert _get(*_resolve(target)) is original, target
    assert cli._COMMANDS["test"] is cli.cmd_test
    assert calibration.CalibrationSource.__dict__["entry_for"].__name__ == "entry_for"
    # an untraced call afterwards records nothing
    before = len(tracer.names)
    calibration.calibrate_design(2, 2, 2, 6, 2, 1)
    assert len(tracer.names) == before


def test_traced_calls_cover_the_workload_layers():
    tracer = Tracer()
    tracer.install()
    tracer.begin_call()
    try:
        simulation.run_experiment(
            "robustness", simulation.Design(2, 2, 8, 2), (5.0,), ("cla", "rnk"), 2,
            master_seed=3,
        )
    finally:
        tracer.uninstall()
    names = set(tracer.names)
    assert {"simulation.run_experiment", "simulation.gen", "manova.weighted_ssp",
            "manova.rank_transform", "manova.wilks_lambda", "manova.pvalue",
            "distributions.cholesky", "distributions.chi2_cdf"} <= names
    assert not any(n.startswith("mcd.") for n in names)
    # the first replication's spans carry rep 1, the second's rep 2
    gens = [r for n, r in zip(tracer.names, tracer.rep) if n == "simulation.gen"]
    assert gens == [1, 2]


def test_degenerate_exceptions_are_counted_once(toy_module):
    from mcdmanova.errors import SingularSubset

    def leaf(x):
        raise SingularSubset("toy")

    toy_module.leaf = leaf
    tracer = Tracer(toy_targets())
    tracer.install()
    try:
        with pytest.raises(SingularSubset):
            toy_module.outer(0)
    finally:
        tracer.uninstall()
    assert tracer.sums["errors.degenerate.SingularSubset"] == 1
    assert tracer.sums["toy.leaf.degenerate"] == 1
    assert tracer.sums["toy.outer.degenerate"] == 1


# -- inputs follow the workload seed -------------------------------------------


def test_workload_seed_changes_the_inputs():
    assert workloads.derive(1, 0) != workloads.derive(2, 0)
    assert workloads.derive(1, 0) != workloads.derive(1, 1)
    assert workloads.derive(7, 3) == workloads.derive(7, 3)
    assert workloads.composition_table(1, 0) != workloads.composition_table(2, 0)
    assert workloads.composition_table(1, 0) == workloads.composition_table(1, 0)
    for cls in workloads.WORKLOADS.values():
        a = cls(1, Path("unused"), {}).seeds(3)
        b = cls(2, Path("unused"), {}).seeds(3)
        assert a != b


def test_composition_table_is_a_balanced_3x2_design(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(workloads.composition_table(5, 1), encoding="ascii")
    rows = cli.parse_table(path, ("district", "year"), ("a", "b", "c"))
    layout = manova.validate_layout(rows)
    assert (layout.r, layout.c, layout.n, layout.p) == (3, 2, 30, 3)
    assert (layout.observations > 0).all()


def test_quality_datasets_are_fixed_and_match_the_reference():
    reference = quality.load_reference()
    for model, entry in reference["models"].items():
        assert len(entry["datasets"]) == quality.DATASETS_PER_MODEL
        for k in (0, quality.DATASETS_PER_MODEL - 1):
            cells = quality.dataset(model, k)
            assert quality.checksum(cells) == pytest.approx(entry["datasets"][k]["checksum"], rel=1e-12)
        for record in entry["datasets"]:
            assert all(r <= d for r, d in zip(record["reference"], record["default"]))
        assert entry["mean_gap_at_generation"] > 0
    assert reference["reference_budget"]["n_starts"] > reference["default_config"]["n_starts"]


# -- checks and counters -------------------------------------------------------


def test_pooled_moments_match_concatenated_samples():
    rng = np.random.default_rng(0)
    parts = [rng.normal(size=m) for m in (3, 5, 4)]
    groups = [(len(x), float(np.mean(x)), float(np.var(x, ddof=1))) for x in parts]
    total, mean, var = workloads.pooled_moments(groups)
    every = np.concatenate(parts)
    assert total == 12
    assert mean == pytest.approx(np.mean(every))
    assert var == pytest.approx(np.var(every, ddof=1))


def test_rate_band_accepts_alpha_and_rejects_far_rates():
    assert workloads.rate_problem("x", 50, 1000) is None
    assert workloads.rate_problem("x", 200, 1000) is not None


def test_out_problems_flag_bad_p_values():
    good = "hypothesis\tmethod\tlambda\tp_value\n" + "h\tcla\t0.5\t0.2\n" * 9
    assert workloads.out_problems(good) == []
    bad = good.replace("0.2\n", "1.5\n", 1)
    assert any("outside [0, 1]" in p for p in workloads.out_problems(bad))


@pytest.mark.parametrize("func", [calibration.null_statistic_samples, simulation.run_experiment])
def test_redraw_log_reads_the_library_warning(func):
    source = inspect.getsource(func)
    fmt = re.search(r'"([^"]*redrew %d degenerate "\s*"replication\(s\) out of %d attempts)"', source)
    assert fmt is not None, "the library's redraw warning changed"
    handler = run.RedrawLog()
    logger = logging.getLogger("mcdmanova.test_redraws")
    logger.addHandler(handler)
    try:
        logger.warning("setting 1: redrew %d degenerate replication(s) out of %d attempts", 3, 40)
        logger.warning("unrelated")
    finally:
        logger.removeHandler(handler)
    assert handler.redrawn == 3
    assert handler.other == ["unrelated"]


# -- BENCHMARK.json ------------------------------------------------------------


def test_manifest_matches_spec_and_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.manifest()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in committed["workloads"]]
    assert 2 <= len(names) <= 8
    for w in committed["workloads"]:
        assert name.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = committed["end_to_end"] + committed["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"]), m
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert len(committed["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
