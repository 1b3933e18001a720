"""Tests for null-distribution calibration and its cache."""

import math
import sys
import threading

import numpy as np
import pytest

from mcdmanova import manova
from mcdmanova.calibration import (
    CACHE_HEADER,
    CalibrationEntry,
    CalibrationKey,
    CalibrationSource,
    cache_path_from_env,
    calibrate,
    calibrate_design,
    merge_cache,
    null_statistic_samples,
    read_cache,
    write_cache,
)
from mcdmanova.errors import (
    CorruptCache,
    DomainError,
    MissingCalibration,
    SingularSubset,
)
from mcdmanova.manova import Hypothesis, Model
from mcdmanova.mcd import McdConfig

FAST = McdConfig(n_starts=40, n_keep=4)


def small_key(m_prime=40, seed=123, model=Model.WITH_INTERACTIONS,
              hypothesis=Hypothesis.INTERACTIONS):
    return CalibrationKey(2, 2, 2, 10, model, hypothesis, m_prime, seed)


def synthetic_entry(key=None, delta=0.1, q=4.0):
    key = key or small_key(m_prime=3000)
    return CalibrationEntry(key, delta, q, delta * q, 2.0 * delta**2 * q)


class TestCalibrationKey:
    def test_interaction_needs_full_model(self):
        with pytest.raises(DomainError):
            CalibrationKey(2, 2, 2, 10, Model.ADDITIVE_ONLY,
                           Hypothesis.INTERACTIONS, 40, 0)

    def test_row_hypothesis_valid_under_both_models(self):
        for model in Model:
            CalibrationKey(2, 2, 2, 10, model, Hypothesis.ROW_EFFECTS, 40, 0)

    def test_m_prime_lower_bound(self):
        with pytest.raises(DomainError):
            small_key(m_prime=1)

    def test_seed_range(self):
        small_key(seed=2**64 - 1)
        with pytest.raises(DomainError):
            small_key(seed=2**64)
        with pytest.raises(DomainError):
            small_key(seed=-1)

    def test_design_bounds(self):
        with pytest.raises(DomainError):
            CalibrationKey(0, 2, 2, 10, Model.WITH_INTERACTIONS,
                           Hypothesis.ROW_EFFECTS, 40, 0)
        with pytest.raises(DomainError):
            CalibrationKey(2, 1, 2, 10, Model.WITH_INTERACTIONS,
                           Hypothesis.ROW_EFFECTS, 40, 0)


class TestCalibrationEntry:
    def test_invariants_enforced(self):
        key = small_key()
        with pytest.raises(DomainError):
            CalibrationEntry(key, 0.1, 4.0, 0.5, 0.08)  # delta*q != ave_L
        with pytest.raises(DomainError):
            CalibrationEntry(key, 0.1, 4.0, 0.4, 0.09)  # 2d^2q != var_L
        with pytest.raises(DomainError):
            CalibrationEntry(key, -0.1, 4.0, -0.4, 0.08)

    def test_low_precision_flag(self):
        assert synthetic_entry(small_key(m_prime=2)).low_precision
        assert synthetic_entry(small_key(m_prime=3000)).low_precision is False


class TestCalibrate:
    def test_deterministic(self):
        key = small_key()
        assert calibrate(key, FAST) == calibrate(key, FAST)

    def test_moment_invariants(self):
        e = calibrate(small_key(), FAST)
        assert e.delta > 0 and e.q > 0
        assert abs(e.delta * e.q - e.ave_L) < 1e-9
        assert abs(2 * e.delta**2 * e.q - e.var_L) < 1e-9

    def test_minimum_two_trials_flagged(self):
        e = calibrate(small_key(m_prime=2), FAST)
        assert e.low_precision

    def test_design_pass_matches_single_key(self):
        entries = calibrate_design(2, 2, 2, 10, 40, 123, FAST)
        assert len(entries) == 5
        by_key = {e.key: e for e in entries}
        key = small_key()
        assert by_key[key] == calibrate(key, FAST)
        key_add = small_key(model=Model.ADDITIVE_ONLY,
                            hypothesis=Hypothesis.ROW_EFFECTS)
        assert by_key[key_add] == calibrate(key_add, FAST)

    def test_degenerate_replication_redrawn(self, monkeypatch, caplog):
        # the shared replication loop reaches the robust pipeline through
        # manova.method_ssp, which looks robust_weights up in manova
        real = manova.robust_weights
        calls = {"n": 0}

        def flaky(layout, config, rng):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SingularSubset("forced degenerate draw")
            return real(layout, config, rng)

        monkeypatch.setattr(manova, "robust_weights", flaky)
        with caplog.at_level("WARNING", logger="mcdmanova.calibration"):
            e = calibrate(small_key(m_prime=5), FAST)
        assert calls["n"] == 6
        assert "redrew 1 degenerate" in caplog.text
        assert e.delta > 0

    def test_all_replications_degenerate_propagates(self, monkeypatch):
        def broken(layout, config, rng):
            raise SingularSubset("always degenerate")

        monkeypatch.setattr(manova, "robust_weights", broken)
        with pytest.raises(SingularSubset):
            calibrate(small_key(m_prime=2), FAST)


class TestClassicalSanity:
    def test_q_matches_bartlett_degrees(self):
        # the classical statistic is asymptotically chi-square with
        # p*nu2 degrees of freedom, so the fitted q must sit close by
        samples = null_statistic_samples(2, 3, 2, 30, 3000, 11, method="cla")
        targets = {
            (Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS): 4.0,
            (Model.WITH_INTERACTIONS, Hypothesis.ROW_EFFECTS): 4.0,
            (Model.WITH_INTERACTIONS, Hypothesis.COL_EFFECTS): 2.0,
            (Model.ADDITIVE_ONLY, Hypothesis.ROW_EFFECTS): 4.0,
            (Model.ADDITIVE_ONLY, Hypothesis.COL_EFFECTS): 2.0,
        }
        for pair, target in targets.items():
            L = samples[pair]
            q = 2.0 * L.mean() ** 2 / np.var(L, ddof=1)
            assert abs(q / target - 1.0) < 0.10

    def test_seed_stability(self):
        qs = []
        for seed in (11, 77):
            s = null_statistic_samples(2, 3, 2, 30, 3000, seed, method="cla")
            L = s[(Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS)]
            qs.append(2.0 * L.mean() ** 2 / np.var(L, ddof=1))
        assert abs(qs[0] / qs[1] - 1.0) < 0.05

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            null_statistic_samples(2, 2, 2, 10, 2, 0, method="mle")


class TestCache:
    def test_round_trip_bit_for_bit(self, tmp_path):
        path = tmp_path / "cal.txt"
        e1 = calibrate(small_key(), FAST)
        e2 = synthetic_entry(small_key(m_prime=3000, seed=7))
        merge_cache(path, [e1])
        merge_cache(path, [e2])
        assert read_cache(path).get(e1.key) == e1
        assert read_cache(path).get(e2.key) == e2

    def test_missing_file_is_empty(self, tmp_path):
        assert read_cache(tmp_path / "absent.txt") == {}
        assert read_cache(tmp_path / "absent.txt").get(small_key()) is None

    def test_absent_on_differing_key(self, tmp_path):
        path = tmp_path / "cal.txt"
        merge_cache(path, [synthetic_entry(small_key(m_prime=3000))])
        other = CalibrationKey(2, 2, 2, 11, Model.WITH_INTERACTIONS,
                               Hypothesis.INTERACTIONS, 3000, 123)
        assert read_cache(path).get(other) is None

    def test_put_overwrites_identical_key(self, tmp_path):
        path = tmp_path / "cal.txt"
        key = small_key(m_prime=3000)
        merge_cache(path, [synthetic_entry(key, delta=0.1)])
        merge_cache(path, [synthetic_entry(key, delta=0.2)])
        entries = read_cache(path)
        assert len(entries) == 1
        assert entries[key].delta == 0.2

    def test_header_required(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("not a cache\n")
        with pytest.raises(CorruptCache, match="line 1"):
            read_cache(path)
        path.write_text("")
        with pytest.raises(CorruptCache, match="line 1"):
            read_cache(path)

    def test_truncated_line_names_line_number(self, tmp_path):
        path = tmp_path / "cal.txt"
        merge_cache(path, [synthetic_entry(small_key(m_prime=3000))])
        text = path.read_text()
        fields = text.splitlines()[1].split()
        path.write_text(text + " ".join(fields[:7]) + "\n")
        with pytest.raises(CorruptCache, match="line 3"):
            read_cache(path)

    def test_mangled_field_names_line_number(self, tmp_path):
        path = tmp_path / "cal.txt"
        merge_cache(path, [synthetic_entry(small_key(m_prime=3000))])
        text = path.read_text().replace("interactions", "bogus-model")
        path.write_text(text)
        with pytest.raises(CorruptCache, match="line 2"):
            read_cache(path)

    def test_records_sorted_for_diffing(self, tmp_path):
        path = tmp_path / "cal.txt"
        keys = [small_key(m_prime=3000, seed=s) for s in (9, 1, 5)]
        write_cache(path, {k: synthetic_entry(k) for k in keys})
        seeds = [int(line.split()[7]) for line in
                 path.read_text().splitlines()[1:]]
        assert seeds == sorted(seeds)

    def test_concurrent_writers_never_tear_the_file(self, tmp_path):
        # every writer replaces the file through a temporary of its own, so
        # readers see one complete file or another and writers never lose
        # their temporary to a neighbour
        path = tmp_path / "cal.txt"
        errors = []

        def worker(seed):
            entry = synthetic_entry(small_key(m_prime=3000, seed=seed))
            try:
                for _ in range(150):
                    write_cache(path, {entry.key: entry})
                    read_cache(path)
            except Exception as exc:  # collected for the assertion below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(read_cache(path)) == 1
        assert [f.name for f in tmp_path.iterdir()] == ["cal.txt"]

    def test_env_var_lookup(self, monkeypatch):
        monkeypatch.delenv("CAL_CACHE", raising=False)
        assert cache_path_from_env() is None
        monkeypatch.setenv("CAL_CACHE", "/tmp/somewhere.txt")
        assert str(cache_path_from_env()) == "/tmp/somewhere.txt"

    def test_format_survives_extreme_values(self, tmp_path):
        key = small_key(m_prime=3000)
        e = CalibrationEntry(key, 1.25e-7, 4.0, 5e-7, 1.25e-13)
        path = tmp_path / "cal.txt"
        merge_cache(path, [e])
        assert read_cache(path).get(key) == e


class TestCalibrationSource:
    def test_prefers_more_trials_then_smaller_seed(self):
        kd = dict(p=2, r=2, c=2, n=10, model=Model.WITH_INTERACTIONS,
                  hypothesis=Hypothesis.INTERACTIONS)
        entries = [
            synthetic_entry(CalibrationKey(**kd, m_prime=100, seed=1), delta=0.1),
            synthetic_entry(CalibrationKey(**kd, m_prime=3000, seed=9), delta=0.2),
            synthetic_entry(CalibrationKey(**kd, m_prime=3000, seed=2), delta=0.3),
        ]
        src = CalibrationSource(entries=entries)
        got = src.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                            Hypothesis.INTERACTIONS)
        assert (got.key.m_prime, got.key.seed) == (3000, 2)

    def test_missing_raises(self):
        src = CalibrationSource()
        with pytest.raises(MissingCalibration):
            src.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                          Hypothesis.INTERACTIONS)

    def test_on_the_fly_calibrates_and_persists(self, tmp_path):
        path = tmp_path / "cal.txt"
        src = CalibrationSource(cache_file=path, mcd_config=FAST,
                                on_the_fly=10, seed=123)
        got = src.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                            Hypothesis.INTERACTIONS)
        assert got.key.m_prime == 10
        # all five pairs were fitted and persisted in one pass
        assert len(read_cache(path)) == 5
        # a fresh source finds the persisted entry without recalibrating
        src2 = CalibrationSource(cache_file=path)
        assert src2.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                              Hypothesis.INTERACTIONS) == got

    def test_explicit_entries_extend_cache_file(self, tmp_path):
        path = tmp_path / "cal.txt"
        persisted = synthetic_entry(small_key(m_prime=3000, seed=4))
        merge_cache(path, [persisted])
        extra = synthetic_entry(small_key(m_prime=5000, seed=5))
        src = CalibrationSource(entries=[extra], cache_file=path)
        got = src.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                            Hypothesis.INTERACTIONS)
        assert got == extra
