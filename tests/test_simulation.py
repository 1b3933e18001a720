"""Tests for the Monte Carlo experiments and EDF emitters."""

import concurrent.futures
import math
import multiprocessing
import pickle
import sys
import threading
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from mcdmanova import manova
from mcdmanova import simulation as sim
from mcdmanova.calibration import CalibrationSource, calibrate_design
from mcdmanova.distributions import RngStream, chi2_quantile
from mcdmanova.errors import (
    DegenerateWeights,
    DimensionError,
    DomainError,
    MismatchedReports,
    MissingCalibration,
    NonNumeric,
    NotPositiveDefinite,
    SingularSubset,
)
from mcdmanova.manova import Hypothesis, Model, SspDecomposition, TwoWayLayout
from mcdmanova.mcd import McdConfig
from mcdmanova.simulation import (
    GRID_MAX,
    GRID_POINTS,
    ContaminationSpec,
    Design,
    ExperimentReport,
    MeanLayout,
    gen_alternative,
    gen_contaminated,
    gen_null,
    gen_power_additive,
    gen_power_with_interactions,
    format_report_table,
    pvalue_plot_data,
    read_experiment_file,
    run_experiment,
    size_power_curve,
)

BOLD = Design(3, 2, 30, 2)
FAST = McdConfig(n_starts=40, n_keep=4)


def uniform_report(m=1000, seed=0, method="cla", values=None):
    if values is None:
        values = np.random.default_rng(seed).random(m)
    return ExperimentReport(
        design=BOLD, method=method, model=Model.WITH_INTERACTIONS,
        hypothesis=Hypothesis.INTERACTIONS, kind="size", setting=0.0,
        alpha=0.05, m=len(values), block=values,
    )


class TestDesignAndSpecs:
    def test_design_validation(self):
        with pytest.raises(DomainError):
            Design(1, 2, 10, 2)
        with pytest.raises(DomainError):
            Design(2, 2, 1, 2)
        with pytest.raises(DomainError):
            Design(2, 2, 10, 0)

    def test_contamination_spec_bounds(self):
        ContaminationSpec(0.0, 0.0)
        ContaminationSpec(0.49, 10.0)
        with pytest.raises(DomainError):
            ContaminationSpec(0.5, 1.0)
        with pytest.raises(DomainError):
            ContaminationSpec(-0.1, 1.0)
        for nu in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="nu must be non-negative and finite"):
                ContaminationSpec(0.1, nu)

    def test_mean_layout_shape_checked(self):
        with pytest.raises(DimensionError):
            sim.MeanLayout(BOLD, np.zeros((2, 2, 2)))

    def test_report_leaves_caller_array_writeable(self):
        values = np.linspace(0.01, 0.99, 50)
        report = uniform_report(values=values)
        assert values.flags.writeable and not report.p_values.flags.writeable
        values[0] = 0.5
        assert report.p_values[0] == 0.01

    def test_rejection_rate_is_derived_exactly(self):
        # strictly below alpha: 3 of 7, neither 0.05 nor the float above it
        values = [0.01, 0.05, np.nextafter(0.05, 0.0), 0.5, 0.0, 1.0, np.nextafter(0.05, 1.0)]
        assert uniform_report(values=values).rejection_rate == 3 / 7

    def test_report_rows_checked(self):
        block = np.zeros((2, 5))
        for bad in ({"m": 4}, {"row": 2}, {"row": -1}):
            args = {"m": 5, "block": block, **bad}
            with pytest.raises(DimensionError):
                ExperimentReport(BOLD, "cla", Model.WITH_INTERACTIONS,
                                 Hypothesis.INTERACTIONS, "size", 0.0, 0.05, **args)


class TestGenerators:
    def test_null_deterministic(self):
        a = gen_null(BOLD, RngStream(5))
        b = gen_null(BOLD, RngStream(5))
        assert np.array_equal(a.observations, b.observations)

    def test_null_moments(self):
        design = Design(2, 2, 150, 6)  # N = 600
        lay = gen_null(design, RngStream(15))
        n_total = lay.size
        assert np.abs(lay.observations.mean(axis=0)).max() < 5.0 / math.sqrt(n_total)
        cov = np.cov(lay.observations.T)
        assert np.abs(cov - np.eye(6)).max() < 0.1

    def test_interaction_pattern(self):
        ml = gen_power_with_interactions(BOLD, 1.0)
        assert np.count_nonzero(ml.mu) == 4
        assert ml.mu[0, 0, 0] == 0.25
        assert ml.mu[2, 0, 0] == -0.25
        assert ml.mu[0, 1, 0] == -0.25
        assert ml.mu[2, 1, 0] == 0.25
        # both main-effect hypotheses stay true
        assert np.abs(ml.mu.mean(axis=1)).max() == 0.0  # row means
        assert np.abs(ml.mu.mean(axis=0)).max() == 0.0  # column means

    def test_interaction_zero_effect(self):
        assert np.abs(gen_power_with_interactions(BOLD, 0.0).mu).max() == 0.0

    def test_additive_pattern(self):
        design = Design(5, 2, 10, 3)
        ml = gen_power_additive(design, 1.0)
        assert np.all(ml.mu[0, :, 0] == 0.5)
        assert np.all(ml.mu[1, :, 0] == -0.5)
        assert np.abs(ml.mu[2:]).max() == 0.0
        # all columns share the same mean profile
        for j in range(1, design.c):
            assert np.array_equal(ml.mu[:, j], ml.mu[:, 0])

    def test_alternative_reduces_to_null_at_zero(self):
        null = gen_null(BOLD, RngStream(7))
        alt = gen_alternative(
            BOLD, gen_power_with_interactions(BOLD, 0.0), RngStream(7)
        )
        assert np.array_equal(null.observations, alt.observations)

    def test_alternative_shifts_cells(self):
        ml = gen_power_additive(BOLD, 40.0)
        alt = gen_alternative(BOLD, ml, RngStream(8))
        cells = alt.cell_array()
        assert abs(cells[0, 0, :, 0].mean() - 20.0) < 1.0
        assert abs(cells[1, 0, :, 0].mean() + 20.0) < 1.0

    def test_alternative_design_mismatch(self):
        ml = gen_power_additive(BOLD, 1.0)
        with pytest.raises(DimensionError):
            gen_alternative(Design(2, 2, 10, 2), ml, RngStream(0))

    def test_contaminated_reduces_to_null_at_zero_eps(self):
        null = gen_null(BOLD, RngStream(9))
        cont = gen_contaminated(BOLD, ContaminationSpec(0.0, 10.0), RngStream(9))
        assert np.array_equal(null.observations, cont.observations)

    def test_contamination_confined_to_target_cell(self):
        design = Design(2, 2, 40, 2)
        cont = gen_contaminated(
            design, ContaminationSpec(0.49, 10.0), RngStream(10)
        )
        cells = cont.cell_array()
        assert cells[:1].max() < 8.0 and abs(cells[0, 1].max()) < 8.0
        assert cells[1, 1].max() > 15.0

    def test_contamination_leaves_other_cells_null(self):
        # On a 3 x 2 design only cell (2, 1) changes; every other cell
        # holds the bits gen_null draws from the same stream.
        design = Design(3, 2, 40, 2)
        null = gen_null(design, RngStream(12)).cell_array()
        cont = gen_contaminated(
            design, ContaminationSpec(0.49, 10.0), RngStream(12)
        ).cell_array()
        others = np.ones((3, 2), dtype=bool)
        others[2, 1] = False
        assert cont[others].tobytes() == null[others].tobytes()
        assert cont[2, 1].max() > 15.0

    def test_outlier_shift_value(self):
        # p = 2: chi2 quantile at 0.999 is -2 ln(0.001), so the shift for
        # nu = 5 is 5 * sqrt(13.8155/2) = 13.1413
        shift = 5.0 * math.sqrt(chi2_quantile(0.999, 2) / 2.0)
        assert shift == pytest.approx(13.1413, abs=1e-3)
        design = Design(2, 2, 2000, 2)
        cont = gen_contaminated(
            design, ContaminationSpec(0.49, 5.0), RngStream(11)
        )
        target = cont.cell_array()[1, 1]
        outliers = target[target[:, 0] > 6.0]
        assert len(outliers) > 700
        assert abs(outliers[:, 0].mean() - shift) < 0.2
        assert abs(outliers[:, 0].std() - 0.25) < 0.05


    @pytest.mark.parametrize("draw", [
        lambda design, rng: gen_null(design, rng),
        lambda design, rng: gen_alternative(design, gen_power_additive(design, 2.0), rng),
        lambda design, rng: gen_contaminated(design, ContaminationSpec(0.3, 5.0), rng),
    ], ids=["null", "alternative", "contaminated"])
    def test_each_draw_holds_its_own_read_only_array(self, draw):
        design, stream = Design(3, 2, 7, 2), RngStream(71, (0, 0))
        first, second = draw(design, stream), draw(design, stream.generator())
        assert first.observations.tobytes() == second.observations.tobytes()
        assert not np.shares_memory(first.observations, second.observations)
        for layout in (first, second):
            assert not layout.observations.flags.writeable
            assert owner(layout.observations).nbytes == layout.observations.nbytes
            assert layout.observations.shape == (42, 2) and layout.p == 2

    def test_null_draw_is_one_standard_normal_fill(self):
        design = Design(2, 3, 4, 3)
        layout = gen_null(design, RngStream(72, (1,)))
        cells = RngStream(72, (1,)).generator().standard_normal((2, 3, 4, 3))
        assert layout.observations.tobytes() == cells.tobytes()
        assert layout.cell_array().tobytes() == cells.tobytes()

    def test_non_finite_means_and_shifts_rejected(self):
        design = Design(2, 2, 5, 2)
        mu = np.zeros((2, 2, 2))
        mu[1, 0, 1] = math.inf
        with pytest.raises(NonNumeric):
            MeanLayout(design, mu)
        # nu * Q_p overflows to inf: an outlier would not be a finite value
        with pytest.raises(NonNumeric):
            gen_contaminated(design, ContaminationSpec(0.49, 1e308), RngStream(73))


class TestRunExperiment:
    def test_report_grid_and_tally(self):
        reports = run_experiment(
            "size", Design(2, 2, 5, 1), (), ("cla", "rnk"), m=80,
            master_seed=21,
        )
        # 5 hypothesis pairs x 2 methods
        assert len(reports) == 10
        for rep in reports:
            count = int(np.count_nonzero(rep.p_values < rep.alpha))
            assert rep.rejection_rate * rep.m == count
            assert rep.m == 80

    def test_deterministic(self):
        a = run_experiment("size", Design(2, 2, 5, 1), (), ("cla",), m=40,
                           master_seed=3)
        b = run_experiment("size", Design(2, 2, 5, 1), (), ("cla",), m=40,
                           master_seed=3)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.p_values, rb.p_values)

    def test_methods_share_datasets(self):
        # the data stream does not depend on the method list, so a joint
        # run and a single-method run see identical replications
        design = Design(2, 2, 6, 2)
        joint = run_experiment("size", design, (), ("cla", "rnk"), m=50,
                               master_seed=4)
        alone = run_experiment("size", design, (), ("cla",), m=50,
                               master_seed=4)
        joint_cla = [r for r in joint if r.method == "cla"]
        for rj, ra in zip(joint_cla, alone):
            assert np.array_equal(rj.p_values, ra.p_values)

    @pytest.mark.parametrize("settings, epsilon, message", [
        ((1.0,), 0.6, "epsilon must lie in"),
        ((1.0, -2.0), 0.1, "nu must be non-negative"),
    ], ids=["epsilon", "nu"])
    def test_bad_setting_fails_before_any_lookup(self, settings, epsilon, message):
        # a lookup may calibrate and write a cache, so it waits for the settings
        class NoLookups:
            def entry_for(self, *args):
                raise AssertionError("looked up a calibration entry")

        with pytest.raises(DomainError, match=message):
            run_experiment("robustness", Design(2, 2, 6, 2), settings, ("cla", "mcd"), 4,
                           calibration_source=NoLookups(), epsilon=epsilon)

    def test_power_increases_with_effect(self):
        design = Design(2, 2, 10, 1)
        reports = run_experiment(
            "power_additive", design, (0.0, 3.0), ("cla",), m=150,
            master_seed=5,
        )
        row = [r for r in reports if r.hypothesis is Hypothesis.ROW_EFFECTS]
        assert row[0].setting == 0.0 and row[1].setting == 3.0
        assert row[1].rejection_rate > row[0].rejection_rate + 0.5

    def test_classical_power_monotone_in_effect(self):
        grid = (0.0, 0.2, 0.5, 0.7, 1.0, 1.5, 2.0)
        reports = run_experiment(
            "power_inter", BOLD, grid, ("cla",), m=400, master_seed=6,
        )
        rates = [r.rejection_rate for r in reports
                 if r.hypothesis is Hypothesis.INTERACTIONS]
        assert len(rates) == 7
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.03

    def test_true_null_hypotheses_stay_at_level(self):
        # the interaction alternative leaves both main effects null
        reports = run_experiment(
            "power_inter", BOLD, (2.0,), ("cla",), m=400, master_seed=7,
        )
        for rep in reports:
            if rep.hypothesis is not Hypothesis.INTERACTIONS:
                assert abs(rep.rejection_rate - 0.05) < 0.035

    def test_robustness_reports_two_pinned_pairs(self):
        design = Design(2, 2, 10, 1)
        reports = run_experiment(
            "robustness", design, (2.0,), ("cla",), m=30, master_seed=8,
        )
        assert [(r.model, r.hypothesis) for r in reports] == [
            (Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS),
            (Model.ADDITIVE_ONLY, Hypothesis.ROW_EFFECTS),
        ]

    def test_mcd_needs_calibration(self):
        with pytest.raises(MissingCalibration):
            run_experiment("size", Design(2, 2, 10, 2), (), ("mcd",), m=5)

    def test_mcd_size_near_nominal(self):
        design = Design(2, 2, 12, 2)
        src = CalibrationSource(on_the_fly=200, seed=31)
        reports = run_experiment(
            "size", design, (), ("mcd",), m=200, mcd_config=FAST,
            calibration_source=src, master_seed=32,
        )
        for rep in reports:
            assert abs(rep.rejection_rate - 0.05) < 0.05

    def test_validation_errors(self):
        design = Design(2, 2, 5, 1)
        with pytest.raises(DomainError):
            run_experiment("bogus", design, (), ("cla",), m=5)
        with pytest.raises(DomainError):
            run_experiment("size", design, (), ("mle",), m=5)
        with pytest.raises(DomainError):
            run_experiment("size", design, (), ("cla", "cla"), m=5)
        with pytest.raises(DomainError):
            run_experiment("size", design, (), (), m=5)
        with pytest.raises(DomainError):
            run_experiment("size", design, (), ("cla",), m=0)
        with pytest.raises(DomainError):
            run_experiment("size", design, (), ("cla",), m=5, alpha=1.5)
        with pytest.raises(DomainError):
            run_experiment("size", design, (0.5,), ("cla",), m=5)
        with pytest.raises(DomainError):
            run_experiment("power_inter", design, (), ("cla",), m=5)

    def test_settings_array_accepted(self):
        design = Design(2, 2, 6, 1)
        from_array = run_experiment("power_inter", design, np.array([0.5, 1.0]),
                                    ("cla",), m=10, master_seed=9)
        from_tuple = run_experiment("power_inter", design, (0.5, 1.0),
                                    ("cla",), m=10, master_seed=9)
        assert [r.setting for r in from_array] == [0.5] * 3 + [1.0] * 3
        for ra, rt in zip(from_array, from_tuple):
            assert type(ra.setting) is float
            assert ra.p_values.tobytes() == rt.p_values.tobytes()

    @pytest.mark.parametrize(
        "settings",
        [(0.5, 0.5), (0.0, -0.0), [1.0, 0.5, 1.0], (math.nan,), (0.5, math.inf),
         np.array([[0.5, 1.0]])],
    )
    def test_bad_settings_rejected_before_replication(self, monkeypatch, settings):
        def unreachable(*args, **kwargs):
            raise AssertionError("replicated before validating the settings")

        monkeypatch.setattr(sim, "replicate", unreachable)
        with pytest.raises(DomainError):
            run_experiment("power_inter", Design(2, 2, 6, 1), settings, ("cla",), m=5)

    def test_reports_share_one_read_only_block(self):
        reports = run_experiment("power_inter", Design(2, 2, 6, 1), (0.5, 1.0),
                                 ("cla", "rnk"), m=10, master_seed=10)
        block = reports[0].block
        assert block.shape == (12, 10) and not block.flags.writeable
        assert [r.row for r in reports] == list(range(12))
        assert all(r.block is block for r in reports)
        for r in reports:
            assert r.p_values.base is block and not r.p_values.flags.writeable
            assert r.p_values.tobytes() == block[r.row].tobytes()
        assert not hasattr(reports[0], "__dict__")

    @pytest.mark.parametrize("kind, builder, gen", [
        ("power_inter", "gen_power_with_interactions", "gen_alternative"),
        ("power_additive", "gen_power_additive", "gen_alternative"),
        ("robustness", "ContaminationSpec", "gen_contaminated"),
    ])
    def test_setting_built_once_and_one_draw_per_attempt(self, monkeypatch, kind, builder, gen):
        counts = {"built": 0, "drawn": 0}
        real_build, real_gen = getattr(sim, builder), getattr(sim, gen)

        def build(*args):
            counts["built"] += 1
            return real_build(*args)

        def draw(*args):
            counts["drawn"] += 1
            return real_gen(*args)

        expected = run_experiment(kind, Design(2, 2, 6, 2), (0.5, 1.0), ("cla", "rnk"), m=7)
        monkeypatch.setattr(sim, builder, build)
        monkeypatch.setattr(sim, gen, draw)
        reports = run_experiment(kind, Design(2, 2, 6, 2), (0.5, 1.0), ("cla", "rnk"), m=7)
        assert counts == {"built": 2, "drawn": 14}
        assert reports[0].block.tobytes() == expected[0].block.tobytes()

    @pytest.mark.parametrize("kind", sim.EXPERIMENT_KINDS)
    def test_p_values_equal_scalar_p_values_of_replicate_lambdas(self, kind, small_source):
        design, m, seed = Design(2, 2, 10, 2), 6, 74
        settings = (0.0,) if kind == "size" else (1.0, 4.0)
        methods = ("cla", "rnk", "mcd")
        reports = run_experiment(kind, design, settings, methods, m, mcd_config=FAST,
                                 calibration_source=small_source, master_seed=seed)
        pairs = sim.experiment_pairs(kind)
        rows = iter(reports)
        for si, setting in enumerate(settings):
            # one attempt at a time
            lambdas, _, _ = loop_replicate(
                sim._layout_maker(kind, design, setting, 0.1),
                RngStream(seed).substream(si), methods, pairs, m, FAST,
            )
            for method in methods:
                for model, hyp in pairs:
                    report = next(rows)
                    assert (report.setting, report.method, report.hypothesis) == (
                        setting, method, hyp)
                    if method == "mcd":
                        entry = small_source.entry_for(2, 2, 2, 10, model, hyp, FAST)
                        expected = [manova.calibrated_pvalue(lam, entry)
                                    for lam in lambdas[method, (model, hyp)].tolist()]
                    else:
                        nu1, nu2 = manova.bartlett_dfs(design, model, hyp)
                        expected = [manova.bartlett_pvalue(lam, 2, nu1, nu2)
                                    for lam in lambdas[method, (model, hyp)].tolist()]
                    assert all(type(v) is float for v in expected)
                    assert report.p_values.tobytes() == np.array(expected).tobytes()
        assert next(rows, None) is None

    @pytest.mark.parametrize("kind", sim.EXPERIMENT_KINDS)
    def test_block_layouts_hold_their_streams_draws(self, kind):
        # robustness at epsilon 0.4: its trailing random(n) picks outliers
        design, base = Design(3, 2, 5, 2), RngStream(75)
        make = sim._layout_maker(kind, design, SETTINGS[kind], 0.4)
        seen = []

        def spy(gen):
            layout = make(gen)
            seen.append((layout, gen.bit_generator.random_raw(2).tobytes()))
            return layout

        sim.replicate(spy, base, ("cla",), sim.experiment_pairs(kind), 5)
        assert len(seen) == 5
        for a, (layout, after) in enumerate(seen):
            # the public draw from the attempt's own stream, and where it leaves it
            gen = base.substream(a, 0).generator()
            assert layout.observations.tobytes() == make(gen).observations.tobytes()
            assert after == gen.bit_generator.random_raw(2).tobytes()

    @pytest.mark.parametrize("kind", sim.EXPERIMENT_KINDS)
    def test_block_layouts_share_no_memory_and_are_read_only(self, kind):
        design = Design(2, 2, 4, 2)
        make, seen = sim._layout_maker(kind, design, SETTINGS[kind], 0.4), []

        def spy(gen):
            seen.append(make(gen))
            return seen[-1]

        sim.replicate(spy, RngStream(77), ("cla",), sim.experiment_pairs(kind), 70)
        assert len(seen) == 70  # a block of 64, then one of 6
        for a, layout in enumerate(seen):
            assert not layout.observations.flags.writeable
            assert owner(layout.observations).nbytes == layout.observations.nbytes
            for other in seen[:a]:
                assert not np.shares_memory(layout.observations, other.observations)

    @pytest.mark.parametrize("kind", sim.EXPERIMENT_KINDS)
    def test_block_draws_equal_public_gen_draws(self, kind):
        design, base = Design(2, 3, 4, 3), RngStream(76, (2,))
        setting = SETTINGS[kind]
        draws = {
            "size": lambda rng: gen_null(design, rng),
            "robustness": lambda rng: gen_contaminated(
                design, ContaminationSpec(0.4, setting), rng),
            "power_inter": lambda rng: gen_alternative(
                design, gen_power_with_interactions(design, setting), rng),
            "power_additive": lambda rng: gen_alternative(
                design, gen_power_additive(design, setting), rng),
        }
        make, seen = sim._layout_maker(kind, design, setting, 0.4), []

        def spy(gen):
            seen.append(make(gen))
            return seen[-1]

        sim.replicate(spy, base, ("cla",), sim.experiment_pairs(kind), 70)
        assert len(seen) == 70  # a block of 64, then one of 6
        for a, layout in enumerate(seen):
            want = draws[kind](base.substream(a, 0))
            assert layout.observations.tobytes() == want.observations.tobytes()

    def test_concurrent_runs_return_what_they_return_alone(self):
        # each replicate call re-keys its own bit generator; a shared one
        # would mix the threads' data streams
        args = ("robustness", Design(2, 2, 10, 2), (3.0, 6.0), ("cla", "rnk"), 70)
        alone = {seed: run_experiment(*args, master_seed=seed)[0].block.tobytes()
                 for seed in (1, 2, 3)}
        start, got = threading.Barrier(len(alone)), {seed: [] for seed in alone}

        def work(seed):
            start.wait(timeout=60)
            for _ in range(4):
                got[seed].append(run_experiment(*args, master_seed=seed)[0].block.tobytes())

        threads = [threading.Thread(target=work, args=(seed,)) for seed in alone]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {seed: [want] * 4 for seed, want in alone.items()}

    def test_reports_compare_and_hash_by_identity(self):
        args = ("size", Design(2, 2, 3, 1), (), ("cla",), 4)
        a = run_experiment(*args, master_seed=1)
        b = run_experiment(*args, master_seed=1)
        assert a[0].p_values.tobytes() == b[0].p_values.tobytes()
        assert a[0] == a[0] and a[0] != b[0] and a[0] != a[1]
        assert hash(a[0]) == hash(a[0])
        assert len({*a, *b}) == len(a) + len(b)
        assert a.index(a[2]) == 2

    def test_degenerate_replication_redrawn(self, monkeypatch, caplog):
        # calibrate before patching, so the forced degeneracy lands in the
        # experiment's replications; the shared replication loop reaches
        # the robust pipeline through manova.method_ssp
        src = CalibrationSource(entries=calibrate_design(2, 2, 2, 10, 50, 1, FAST))
        real = manova.robust_weights
        calls = {"n": 0}

        def flaky(layout, config, rng):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SingularSubset("forced")
            return real(layout, config, rng)

        monkeypatch.setattr(manova, "robust_weights", flaky)
        design = Design(2, 2, 10, 2)
        with caplog.at_level("WARNING", logger="mcdmanova.simulation"):
            reports = run_experiment(
                "size", design, (), ("mcd",), m=5, mcd_config=FAST,
                calibration_source=src, master_seed=2,
            )
        assert "redrew 1 degenerate" in caplog.text
        assert [r.name for r in caplog.records] == ["mcdmanova.simulation"]
        assert calls["n"] == 6
        assert all(len(r.p_values) == 5 for r in reports)


@pytest.fixture(scope="module")
def small_source():
    """A calibration of the 2x2 n=10 p=2 design at 50 trials."""
    return CalibrationSource(entries=calibrate_design(2, 2, 2, 10, 50, 1, FAST))


def owner(array):
    """The array that owns ``array``'s memory."""
    while array.base is not None:
        array = array.base
    return array


def loop_replicate(make_layout, base, methods, pairs, m, mcd_config=McdConfig()):
    """Reference: ``replicate`` evaluating one attempt at a time, each
    from a generator of its own stream."""
    lambdas = {(method, pair): np.empty(m) for method in methods for pair in pairs}
    done = attempt = redraws = 0
    max_attempts = 10 * m + 1000
    last_error = None
    while done < m:
        if attempt >= max_attempts:
            assert last_error is not None
            raise last_error
        stream = base.substream(attempt)
        attempt += 1
        layout = make_layout(stream.substream(0).generator())
        weights_rng = stream.substream(1)
        try:
            for method in methods:
                decomp = manova.method_ssp(layout, method, mcd_config, weights_rng)
                for pair in pairs:
                    lambdas[method, pair][done] = manova.wilks_lambda(decomp, pair[1], pair[0])
        except sim._DEGENERATE as exc:
            redraws += 1
            last_error = exc
            continue
        done += 1
    return lambdas, redraws, attempt


SETTINGS = {"size": 0.0, "power_inter": 1.0, "power_additive": 1.0, "robustness": 5.0}
TINY = McdConfig(n_starts=10, n_keep=2)


def attempt_of(stream):
    # replicate hands attempt a the streams base.substream(a, 0) and (a, 1)
    return stream.path[-2]


def stream_key(gen):
    """The Philox key of a generator: it names the stream being drawn."""
    return tuple(gen.bit_generator.state["state"]["key"].tolist())


def data_attempts(base, count):
    """Maps the key of attempt a's data stream, ``base.substream(a, 0)``,
    to a, for the first ``count`` attempts."""
    return {stream_key(base.substream(a, 0).generator()): a for a in range(count)}


def degenerate_layouts(design, bad, base):
    """``gen_null`` data, made rank-deficient at the attempts in ``bad``
    of a run from ``base``: "dup" repeats the first coordinate (every
    method's W is singular), "exp" appends its exponential (only the
    ranks are collinear)."""
    attempts = data_attempts(base, max(bad) + 1)

    def make(gen):
        how = bad.get(attempts.get(stream_key(gen)))
        layout = gen_null(design, gen)
        if how is None:
            return layout
        x = layout.observations[:, :1]
        extra = x if how == "dup" else np.exp(x)
        return TwoWayLayout(layout.r, layout.c, layout.n, 2, np.hstack([x, extra]))

    return make


def assert_same_run(block, reference):
    (lam_b, red_b, att_b), (lam_r, red_r, att_r) = block, reference
    assert (red_b, att_b) == (red_r, att_r)
    assert lam_b.keys() == lam_r.keys()
    for key in lam_r:
        assert lam_b[key].tobytes() == lam_r[key].tobytes(), key


def run_both(*args, **kwargs):
    return sim.replicate(*args, **kwargs), loop_replicate(*args, **kwargs)


class TestBlockReplicate:
    """``replicate``'s blocks reproduce the one-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("kind", sim.EXPERIMENT_KINDS)
    @pytest.mark.parametrize(
        "design",
        [Design(2, 2, 20, 2), Design(3, 2, 10, 1), Design(4, 3, 6, 3), Design(2, 3, 8, 5)],
        ids=str,
    )
    @pytest.mark.parametrize(
        "methods, m", [(("cla", "rnk"), 70), (("cla", "mcd", "rnk"), 5)]
    )
    def test_matches_reference(self, kind, design, methods, m):
        make = sim._layout_maker(kind, design, SETTINGS[kind], 0.1)
        pairs = sim.experiment_pairs(kind)
        assert_same_run(*run_both(make, RngStream(60), methods, pairs, m, TINY))

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_forced_robust_weights_failures(self, monkeypatch, block):
        monkeypatch.setattr(sim, "_BLOCK", block)
        real = manova.robust_weights
        calls = []

        def flaky(layout, config, rng):
            calls.append(attempt_of(rng))
            if attempt_of(rng) in (1, 4, 5, 9):
                raise SingularSubset(f"forced at attempt {attempt_of(rng)}")
            return real(layout, config, rng)

        monkeypatch.setattr(manova, "robust_weights", flaky)
        design = Design(2, 2, 8, 2)
        make = degenerate_layouts(design, {2: "dup", 7: "exp"}, RngStream(61))
        args = (make, RngStream(61), ("cla", "mcd", "rnk"), sim.experiment_pairs("size"), 7, TINY)
        block_run = sim.replicate(*args)
        block_calls, calls[:] = calls[:], []
        reference = loop_replicate(*args)
        assert_same_run(block_run, reference)
        assert block_calls == calls
        # attempt 2 fails at cla, before the robust pipeline; 7 at rnk, after it
        assert 2 not in calls and 7 in calls
        assert block_run[1:] == (6, 13)

    @pytest.mark.parametrize("block", [1, 4, 64])
    def test_forced_wilks_failures(self, monkeypatch, block):
        monkeypatch.setattr(sim, "_BLOCK", block)
        design = Design(3, 2, 6, 2)
        bad = {0: "dup", 3: "exp", 4: "dup", 11: "exp", 12: "exp"}
        args = (degenerate_layouts(design, bad, RngStream(62)), RngStream(62), ("cla", "rnk"),
                sim.experiment_pairs("size"), 10)
        block_run, reference = run_both(*args)
        assert_same_run(block_run, reference)
        assert block_run[1:] == (5, 15)

    def test_exhaustion_raises_reference_error(self, monkeypatch):
        # even attempts fail at cla's Wilks step, odd ones in the robust
        # pipeline; the last attempt's first failure is raised
        def broken(layout, config, rng):
            raise SingularSubset(f"forced at attempt {attempt_of(rng)}")

        monkeypatch.setattr(manova, "robust_weights", broken)
        design = Design(2, 2, 6, 2)
        make = degenerate_layouts(design, dict.fromkeys(range(0, 1020, 2), "dup"), RngStream(63))

        errors = []
        for run in (sim.replicate, loop_replicate):
            with pytest.raises(SingularSubset) as info:
                run(make, RngStream(63), ("cla", "mcd"), sim.experiment_pairs("size"), 2, TINY)
            errors.append(str(info.value))
        assert errors == ["forced at attempt 1019"] * 2

    @pytest.mark.parametrize("methods", [("cla",), ("rnk", "cla"), ("cla", "mcd")])
    def test_exhaustion_in_ssp_step(self, methods):
        # N = 8 < p + 2 = 9: every attempt raises DegenerateWeights at its
        # first method's SSP step
        design = Design(2, 2, 2, 7)
        errors, drawn = [], []
        for run in (sim.replicate, loop_replicate):
            attempts = []

            def make(gen):
                attempts.append(stream_key(gen))
                return gen_null(design, gen)

            with pytest.raises(DegenerateWeights) as info:
                run(make, RngStream(65), methods, sim.experiment_pairs("size"), 3, TINY)
            errors.append(str(info.value))
            drawn.append(attempts)
        assert errors[0] == errors[1]
        assert drawn[0] == drawn[1] == list(data_attempts(RngStream(65), 1030))

    @pytest.mark.parametrize("method", ["cla", "rnk"])
    def test_layouts_of_a_block_share_one_design(self, method):
        # 2x4 and 4x2 at n = 2 hold the same N = 16 and p = 2 in another design
        designs, drawn = (Design(2, 4, 2, 2), Design(4, 2, 2, 2)), []

        def make(gen):
            drawn.append(stream_key(gen))
            return gen_null(designs[len(drawn) % 2], gen)

        with pytest.raises(DimensionError, match=r"must share their design \(r, c, n, p\)"):
            sim.replicate(make, RngStream(70), (method,), sim.experiment_pairs("size"), 4)

    def test_exhaustion_in_wilks_step(self):
        design = Design(2, 2, 6, 2)
        make = degenerate_layouts(design, dict.fromkeys(range(1020), "dup"), RngStream(64))
        errors = []
        for run in (sim.replicate, loop_replicate):
            with pytest.raises(NotPositiveDefinite) as info:
                run(make, RngStream(64), ("cla",), sim.experiment_pairs("size"), 2)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


@pytest.fixture
def pools(monkeypatch):
    """Pools from 2 replications on, of 2 workers on any machine; the
    list collects the worker count of every pool ``replicate`` opens."""
    monkeypatch.setattr(sim, "_MIN_PARALLEL_ATTEMPTS", 2)
    monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
    opened, real = [], sim._open_pool

    def spy(methods, m):
        pool, workers = real(methods, m)
        if pool is not None:
            opened.append(workers)
        return pool, workers

    monkeypatch.setattr(sim, "_open_pool", spy)
    return opened


def no_pool(*args, **kwargs):
    raise AssertionError("replicate started a process pool")


def mcd_run(design, m):
    """Arguments of a ``("mcd",)`` replicate run on null data."""
    make = sim._layout_maker("size", design, 0.0, 0.1)
    return make, RngStream(68), ("mcd",), sim.experiment_pairs("size"), m, TINY


def mcd_replicate(design, m):
    """``replicate`` on ``mcd_run``; module level, so a pool can run it."""
    return sim.replicate(*mcd_run(design, m))


class TestParallelReplicate:
    """The "mcd" SSPs on a process pool reproduce the serial loop."""

    def test_results_survive_pickling(self):
        layout = gen_null(Design(2, 2, 8, 2), RngStream(66))
        single = manova.method_ssp(layout, "mcd", TINY, RngStream(67))
        stacked = SspDecomposition(*(np.stack([mat, mat]) for mat in (
            single.W, single.E, single.R_row, single.R_col)))
        for decomp in (single, stacked):
            manova.wilks_lambda(decomp, Hypothesis.ROW_EFFECTS, Model.ADDITIVE_ONLY)
            assert decomp._log_det_memo
            copy = pickle.loads(pickle.dumps(decomp))
            assert type(copy) is SspDecomposition and copy._log_det_memo == {}
            for name in ("W", "E", "R_row", "R_col"):
                assert not getattr(copy, name).flags.writeable
                assert getattr(copy, name).tobytes() == getattr(decomp, name).tobytes()
        for error_type in sim._DEGENERATE:
            copy = pickle.loads(pickle.dumps(error_type("forced at attempt 3")))
            assert type(copy) is error_type and str(copy) == "forced at attempt 3"

    @pytest.mark.parametrize("block", [5, 64])
    def test_matches_reference(self, monkeypatch, pools, block):
        monkeypatch.setattr(sim, "_BLOCK", block)
        design = Design(2, 2, 8, 2)
        make = degenerate_layouts(design, {1: "dup", 6: "dup", 7: "dup"}, RngStream(69))
        args = (make, RngStream(69), ("mcd",), sim.experiment_pairs("size"), 12, TINY)
        run = sim.replicate(*args)
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert_same_run(run, loop_replicate(*args))
        assert run[1:] == (3, 15)

    def test_exhaustion_raises_reference_error(self, monkeypatch, pools):
        # the forced failures happen inside the workers
        def broken(layout, config, rng):
            raise SingularSubset(f"forced at attempt {attempt_of(rng)}")

        monkeypatch.setattr(manova, "robust_weights", broken)
        design = Design(2, 2, 6, 2)
        make = sim._layout_maker("size", design, 0.0, 0.1)
        errors = []
        for run in (sim.replicate, loop_replicate):
            with pytest.raises(SingularSubset) as info:
                run(make, RngStream(63), ("mcd",), sim.experiment_pairs("size"), 2, TINY)
            errors.append(str(info.value))
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert errors == ["forced at attempt 1019"] * 2

    @pytest.mark.parametrize("threshold, cores, thread", [
        (8, 2, False), (2, 1, False), (2, 2, True),
    ], ids=["below-threshold", "one-core", "other-thread"])
    def test_no_process_started(self, monkeypatch, threshold, cores, thread):
        monkeypatch.setattr(sim, "_MIN_PARALLEL_ATTEMPTS", threshold)
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        if thread:
            waiter.start()
        try:
            run = mcd_replicate(Design(2, 2, 8, 2), 7)
        finally:
            release.set()
            if thread:
                waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert_same_run(run, loop_replicate(*mcd_run(Design(2, 2, 8, 2), 7)))

    def test_serial_inside_a_pool_worker(self, monkeypatch, pools):
        design = Design(2, 2, 8, 2)
        with concurrent.futures.ProcessPoolExecutor(
            1, multiprocessing.get_context("fork")
        ) as outer:
            # the worker forks after these patches, so it sees them
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
            nested = outer.submit(mcd_replicate, design, 3).result(timeout=60)
        assert_same_run(nested, loop_replicate(*mcd_run(design, 3)))


class StubSource:
    """A calibration source whose every entry is delta = 1, q = 2."""

    def entry_for(self, *args):
        return SimpleNamespace(delta=1.0, q=2.0)


class TestSharedPipeline:
    """A robust null replication runs the test's own pipeline: its lambda
    is, bit for bit, the one ``run_manova`` reports on the same data with
    the same weight stream."""

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
    def test_calibration_lambda_is_the_test_lambda(self, request, pooled):
        opened = request.getfixturevalue("pools") if pooled else []
        design, seed, pairs = Design(3, 2, 10, 2), 71, sim.experiment_pairs("size")
        lambdas, redraws, attempts = sim.replicate(
            partial(gen_null, design), RngStream(seed), ("mcd",), pairs, 4, FAST
        )
        assert (redraws, attempts) == (0, 4)
        assert opened == ([2] if pooled else [])
        for k in range(4):
            layout = gen_null(design, RngStream(seed).substream(k, 0))
            for model, hypothesis in pairs:
                (report,) = manova.run_manova(
                    layout, model, "mcd", FAST, StubSource(),
                    RngStream(seed).substream(k, 1), [hypothesis],
                )
                got = lambdas["mcd", (model, hypothesis)][k]
                assert np.float64(report.lambda_).tobytes() == got.tobytes()


class TestEdfEmitters:
    def test_all_one_pvalues_give_zero_edf(self):
        rep = uniform_report(values=np.ones(100))
        data = pvalue_plot_data(rep)
        assert len(data) == 201
        assert data[0][0] == 0.0 and data[-1][0] == 0.2
        assert all(y == 0.0 for _, y in data)

    def test_uniform_pvalues_follow_diagonal(self):
        rep = uniform_report(m=1000, seed=14)
        band = 1.63 / math.sqrt(1000)
        for t, y in pvalue_plot_data(rep):
            assert abs(y - t) <= band

    def test_plot_grid_runs_to_grid_max(self):
        rep = uniform_report(m=200, seed=13)
        grid = [t for t, _ in pvalue_plot_data(rep)]
        assert grid == np.linspace(0.0, GRID_MAX, GRID_POINTS).tolist()

    def test_curve_uses_the_plot_grid(self):
        # Both axes of the size-power curve are the reports' EDFs on the
        # grid pvalue_plot_data plots.
        a = uniform_report(m=300, seed=21)
        b = uniform_report(values=np.random.default_rng(22).random(300) ** 3)
        curve = size_power_curve(a, b)
        assert [x for x, _ in curve] == [y for _, y in pvalue_plot_data(a)]
        assert [y for _, y in curve] == [y for _, y in pvalue_plot_data(b)]

    def test_same_report_gives_exact_diagonal(self):
        rep = uniform_report(m=500, seed=15)
        assert all(x == y for x, y in size_power_curve(rep, rep))

    def test_null_vs_null_within_band(self):
        a = uniform_report(m=1000, seed=16)
        b = uniform_report(m=1000, seed=17)
        band = 1.63 * math.sqrt(2.0 / 1000)
        for x, y in size_power_curve(a, b):
            assert abs(y - x) <= band

    def test_mismatched_reports_rejected(self):
        a = uniform_report(m=1000, seed=18)
        b = uniform_report(m=1000, seed=19, method="rnk")
        with pytest.raises(MismatchedReports, match="method"):
            size_power_curve(a, b)
        c = uniform_report(m=500, seed=20)
        with pytest.raises(MismatchedReports, match="m"):
            size_power_curve(a, c)


class TestExperimentFile:
    GOOD = """\
# robustness sweep
kind = robustness
r = 3
c = 2
p = 2
n = 30

methods = cla, rnk, mcd
settings = 2.0, 5.0, 10.0
m = 1000
alpha = 0.05
seed = 42
epsilon = 0.1
"""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(self.GOOD)
        spec = read_experiment_file(path)
        assert spec.kind == "robustness"
        assert spec.design == Design(3, 2, 30, 2)
        assert spec.methods == ("cla", "rnk", "mcd")
        assert spec.settings == (2.0, 5.0, 10.0)
        assert (spec.m, spec.alpha, spec.seed, spec.epsilon) == (
            1000, 0.05, 42, 0.1
        )

    def test_defaults(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(
            "kind = size\nr = 2\nc = 2\np = 1\nn = 5\n"
            "methods = cla\nsettings = 0.0\nm = 10\n"
        )
        spec = read_experiment_file(path)
        assert (spec.alpha, spec.seed, spec.epsilon) == (0.05, 0, 0.1)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = self.GOOD.split("\n", 1)[1]  # from the kind line on
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert read_experiment_file(marked) == read_experiment_file(plain)

    def test_spec_runs(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(
            "kind = size\nr = 2\nc = 2\np = 1\nn = 5\n"
            "methods = cla\nsettings = 0.0\nm = 10\n"
        )
        reports = read_experiment_file(path).run()
        assert len(reports) == 5

    def test_missing_key(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text("kind = size\nr = 2\n")
        with pytest.raises(DomainError, match="missing"):
            read_experiment_file(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(self.GOOD + "bogus = 1\n")
        with pytest.raises(DomainError, match="unknown key"):
            read_experiment_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(self.GOOD + "m = 5\n")
        with pytest.raises(DomainError, match="duplicate"):
            read_experiment_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(self.GOOD.replace("m = 1000", "m = lots"))
        with pytest.raises(DomainError):
            read_experiment_file(path)

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(self.GOOD.replace("robustness", "resilience"))
        with pytest.raises(DomainError, match="kind"):
            read_experiment_file(path)

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text("kind size\n")
        with pytest.raises(DomainError, match="line 1"):
            read_experiment_file(path)


class TestReportTable:
    def test_format_contains_rates(self):
        reports = run_experiment(
            "size", Design(2, 2, 5, 1), (), ("cla", "rnk"), m=40,
            master_seed=23,
        )
        text = format_report_table(reports)
        assert "cla" in text and "rnk" in text
        assert "r=2 c=2 p=1 n=5" in text
        rate = f"{reports[0].rejection_rate:.3f}"
        assert rate in text

    def test_empty_reports_rejected(self):
        with pytest.raises(DomainError):
            format_report_table([])
