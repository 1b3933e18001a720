"""Tests for the Monte Carlo experiments and EDF emitters."""

import math

import numpy as np
import pytest

from mcdmanova import manova
from mcdmanova import simulation as sim
from mcdmanova.calibration import CalibrationSource, calibrate_design
from mcdmanova.distributions import RngStream, chi2_quantile
from mcdmanova.errors import (
    DimensionError,
    DomainError,
    MismatchedReports,
    MissingCalibration,
    SingularSubset,
)
from mcdmanova.manova import Hypothesis, Model
from mcdmanova.mcd import McdConfig
from mcdmanova.simulation import (
    ContaminationSpec,
    Design,
    ExperimentReport,
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
    values = np.asarray(values, dtype=np.float64)
    m = len(values)
    rate = int(np.count_nonzero(values < 0.05)) / m
    return ExperimentReport(
        design=BOLD, method=method, model=Model.WITH_INTERACTIONS,
        hypothesis=Hypothesis.INTERACTIONS, kind="size", setting=0.0,
        alpha=0.05, m=m, p_values=values, rejection_rate=rate,
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
        with pytest.raises(DomainError):
            ContaminationSpec(0.1, -1.0)

    def test_mean_layout_shape_checked(self):
        with pytest.raises(DimensionError):
            sim.MeanLayout(BOLD, np.zeros((2, 2, 2)))

    def test_report_tally_must_be_exact(self):
        values = np.linspace(0.01, 0.99, 50)
        with pytest.raises(DomainError):
            ExperimentReport(
                design=BOLD, method="cla", model=Model.WITH_INTERACTIONS,
                hypothesis=Hypothesis.INTERACTIONS, kind="size", setting=0.0,
                alpha=0.05, m=50, p_values=values, rejection_rate=0.5,
            )


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

    def test_custom_target_cell(self):
        design = Design(3, 2, 40, 2)
        cont = gen_contaminated(
            design, ContaminationSpec(0.49, 10.0, target_cell=(0, 0)),
            RngStream(12),
        )
        cells = cont.cell_array()
        assert cells[0, 0].max() > 15.0
        assert cells[2, 1].max() < 8.0

    def test_target_cell_bounds_checked(self):
        with pytest.raises(DomainError):
            gen_contaminated(
                Design(2, 2, 10, 2),
                ContaminationSpec(0.1, 5.0, target_cell=(2, 0)),
                RngStream(0),
            )


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
        src = CalibrationSource(mcd_config=FAST, on_the_fly=200, seed=31)
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

    def test_grid_max_validated(self):
        with pytest.raises(DomainError):
            pvalue_plot_data(uniform_report(m=10, values=np.ones(10)), 0.0)

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
