"""Tests for null-distribution calibration and its cache."""

import math
import multiprocessing
import sys
import threading
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

from mcdmanova import calibration, manova, simulation
from mcdmanova.calibration import (
    CACHE_HEADER,
    PIPELINE_VERSION,
    CalibrationEntry,
    CalibrationKey,
    CalibrationSource,
    cache_path_from_env,
    calibrate_design,
    merge_cache,
    read_cache,
    write_cache,
)
from mcdmanova.distributions import RngStream
from mcdmanova.errors import (
    CorruptCache,
    DomainError,
    MissingCalibration,
    SingularSubset,
)
from mcdmanova.manova import Hypothesis, Model
from mcdmanova.mcd import McdConfig
from mcdmanova.simulation import Design, experiment_pairs, gen_null, replicate

FAST = McdConfig(n_starts=40, n_keep=4)


def small_key(m_prime=40, seed=123, model=Model.WITH_INTERACTIONS,
              hypothesis=Hypothesis.INTERACTIONS):
    return CalibrationKey(2, 2, 2, 10, model, hypothesis, m_prime, seed)


def calibrated_entry(key, mcd_config):
    """The entry of ``key``, refitted at ``mcd_config``, from a
    calibration of its whole design."""
    entries = calibrate_design(
        key.p, key.r, key.c, key.n, key.m_prime, key.seed, mcd_config
    )
    return {entry.key: entry for entry in entries}[replace(key, **asdict(mcd_config))]


def classical_null(r, c, n, p, m, seed):
    """Classical ``-ln(lambda)`` null samples of every size pair."""
    pairs = experiment_pairs("size")
    lambdas, _, _ = replicate(
        partial(gen_null, Design(r, c, n, p)), RngStream(seed), ("cla",), pairs, m
    )
    return {pair: -np.log(lambdas["cla", pair]) for pair in pairs}


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

    @pytest.mark.parametrize("p, r, c, n, message", [
        (0, 2, 2, 10, "p must be positive, got 0"),
        (2, 2, 1, 10, "need at least 2 levels per factor, got 2x1"),
        (2, 2, 2, 1, "need at least 2 observations per cell, got 1"),
        # the design is checked as a Design(r, c, n, p): levels, n, then p
        (0, 1, 2, 10, "need at least 2 levels per factor, got 1x2"),
        (0, 2, 2, 1, "need at least 2 observations per cell, got 1"),
    ])
    def test_design_messages_and_order(self, p, r, c, n, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            CalibrationKey(p, r, c, n, Model.WITH_INTERACTIONS,
                           Hypothesis.ROW_EFFECTS, 40, 0)


    def test_defaults_are_the_default_config_and_pipeline(self):
        key = small_key()
        assert McdConfig(key.alpha, key.n_starts, key.n_keep) == McdConfig()
        assert key.pipeline == PIPELINE_VERSION

    @pytest.mark.parametrize("settings, message", [
        (dict(alpha=0.3), "alpha must lie in"),
        (dict(n_starts=0), "n_starts must be at least 1"),
        (dict(n_starts=5, n_keep=6), "n_keep must lie in"),
        (dict(pipeline=0), "pipeline must be at least 1"),
    ])
    def test_settings_checked(self, settings, message):
        with pytest.raises(DomainError, match=message):
            replace(small_key(), **settings)


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
        assert calibrated_entry(key, FAST) == calibrated_entry(key, FAST)

    def test_same_entries_with_and_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(simulation, "_usable_cores", lambda: 2)
        opened, real = [], simulation._open_pool

        def spy(methods, m):
            pool, workers = real(methods, m)
            opened.append(workers if pool is not None else 0)
            return pool, workers

        monkeypatch.setattr(simulation, "_open_pool", spy)
        runs = []
        for threshold in (41, 40):
            monkeypatch.setattr(simulation, "_MIN_PARALLEL_ATTEMPTS", threshold)
            runs.append(repr(calibrate_design(2, 2, 2, 10, 40, 123, FAST)))
            assert multiprocessing.active_children() == []
        assert opened == [0, 2]
        assert runs[0] == runs[1]

    def test_moment_invariants(self):
        e = calibrated_entry(small_key(), FAST)
        assert e.delta > 0 and e.q > 0
        assert abs(e.delta * e.q - e.ave_L) < 1e-9
        assert abs(2 * e.delta**2 * e.q - e.var_L) < 1e-9

    def test_minimum_two_trials_flagged(self):
        e = calibrated_entry(small_key(m_prime=2), FAST)
        assert e.low_precision

    @pytest.mark.parametrize("m_prime, seed", [(-1, 0), (0, 0), (1, 0), (40, 2**64)])
    def test_keys_checked_before_simulating(self, monkeypatch, m_prime, seed):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated before the keys were checked")

        monkeypatch.setattr(calibration, "replicate", unreachable)
        with pytest.raises(DomainError):
            calibrate_design(2, 2, 2, 10, m_prime, seed, FAST)

    def test_keys_carry_the_config_and_pipeline(self):
        config = McdConfig(alpha=0.75, n_starts=30, n_keep=3)
        for entry in calibrate_design(2, 2, 2, 10, 4, 1, config):
            assert McdConfig(entry.key.alpha, entry.key.n_starts, entry.key.n_keep) == config
            assert entry.key.pipeline == PIPELINE_VERSION

    def test_design_pass_has_one_entry_per_pair(self):
        entries = calibrate_design(2, 2, 2, 10, 40, 123, FAST)
        assert len(entries) == 5
        assert [(e.key.model, e.key.hypothesis) for e in entries] == list(
            experiment_pairs("size")
        )

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
            e = calibrated_entry(small_key(m_prime=5), FAST)
        assert calls["n"] == 6
        assert "redrew 1 degenerate" in caplog.text
        assert e.delta > 0

    def test_all_replications_degenerate_propagates(self, monkeypatch):
        def broken(layout, config, rng):
            raise SingularSubset("always degenerate")

        monkeypatch.setattr(manova, "robust_weights", broken)
        with pytest.raises(SingularSubset):
            calibrated_entry(small_key(m_prime=2), FAST)


class TestClassicalSanity:
    def test_q_matches_bartlett_degrees(self):
        # the classical statistic is asymptotically chi-square with
        # p*nu2 degrees of freedom, so the fitted q must sit close by
        samples = classical_null(3, 2, 30, 2, 3000, 11)
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
            s = classical_null(3, 2, 30, 2, 3000, seed)
            L = s[(Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS)]
            qs.append(2.0 * L.mean() ** 2 / np.var(L, ddof=1))
        assert abs(qs[0] / qs[1] - 1.0) < 0.05


class TestCache:
    def test_round_trip_bit_for_bit(self, tmp_path):
        path = tmp_path / "cal.txt"
        e1 = calibrated_entry(small_key(), FAST)
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
        seeds = [int(dict(field.split("=") for field in line.split())["seed"])
                 for line in path.read_text().splitlines()[1:]]
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

    def test_concurrent_merges_keep_every_entry(self, tmp_path):
        # merges of distinct entries from several threads must all land;
        # without a lock around read-update-write the last writer drops
        # what the others added in between
        path = tmp_path / "cal.txt"
        errors = []

        def worker(t):
            try:
                for i in range(100):
                    key = small_key(m_prime=3000, seed=1000 * t + i)
                    merge_cache(path, [synthetic_entry(key)])
            except Exception as exc:  # collected for the assertion below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
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
        assert len(read_cache(path)) == 400
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cal.txt", "cal.txt.lock"]

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


    def test_v2_round_trip_at_another_config(self, tmp_path):
        path = tmp_path / "cal.txt"
        key = replace(small_key(m_prime=3000), alpha=0.75, n_starts=40, n_keep=4, pipeline=3)
        e = synthetic_entry(key, delta=0.1 / 3, q=4.5)
        merge_cache(path, [e])
        header, record = path.read_text().splitlines()
        assert header == CACHE_HEADER == "mcdmanova calibration cache v2"
        assert record == (
            "p=2 r=2 c=2 n=10 model=interactions hypothesis=interaction "
            "m_prime=3000 seed=123 alpha=0.75 n_starts=40 n_keep=4 pipeline=3 "
            f"delta={e.delta:.17g} q=4.5 ave_L={e.ave_L:.17g} var_L={e.var_L:.17g}"
        )
        assert read_cache(path) == {key: e}
        # any field order reads the same
        path.write_text(f"{header}\n{' '.join(reversed(record.split()))}\n")
        assert read_cache(path) == {key: e}

    def test_v1_file_read_at_the_default_config(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("mcdmanova calibration cache v1\n"
                        "2 2 2 10 interactions interaction 3000 123 0.0625 4 0.25 0.03125\n")
        (key, entry), = read_cache(path).items()
        assert key == replace(small_key(m_prime=3000), alpha=0.5, n_starts=500, n_keep=10,
                              pipeline=1)
        assert (entry.delta, entry.q, entry.ave_L, entry.var_L) == (0.0625, 4.0, 0.25, 0.03125)
        # a merge writes the whole file as v2
        merge_cache(path, [])
        assert path.read_text().splitlines()[0] == CACHE_HEADER
        assert read_cache(path) == {key: entry}

    @pytest.mark.parametrize("edit, message", [
        (lambda fields: fields + ["bogus=1"], "line 2: unknown field 'bogus'"),
        (lambda fields: fields + ["7"], "line 2: unknown field '7'"),
        (lambda fields: fields + [fields[0]], "line 2: field 'p' given twice"),
        (lambda fields: fields[1:], "line 2: missing field\\(s\\) p$"),
        (lambda fields: fields[:6], "line 2: missing field\\(s\\) m_prime, seed, alpha, "
                                    "n_starts, n_keep, pipeline, delta, q, ave_L, var_L$"),
        (lambda fields: [f.replace("n_keep=10", "n_keep=ten") for f in fields],
         "line 2: invalid literal"),
        (lambda fields: [f.replace("n_keep=10", "n_keep=600") for f in fields],
         "line 2: n_keep must lie in"),
        (lambda fields: [f.replace("pipeline=1", "pipeline=0") for f in fields],
         "line 2: pipeline must be at least 1"),
    ])
    def test_corrupt_v2_record_names_its_line(self, tmp_path, edit, message):
        path = tmp_path / "cal.txt"
        merge_cache(path, [synthetic_entry()])
        header, record = path.read_text().splitlines()
        path.write_text(f"{header}\n{' '.join(edit(record.split()))}\n")
        with pytest.raises(CorruptCache, match=message):
            read_cache(path)

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_blank_lines_skipped(self, tmp_path, version):
        path, clean = tmp_path / "cal.txt", tmp_path / "clean.txt"
        seeds = (1, 2)
        if version == "v1":
            path.write_text("mcdmanova calibration cache v1\n" + "".join(
                f"2 2 2 10 interactions interaction 3000 {seed} 0.0625 4 0.25 0.03125\n"
                for seed in seeds))
        else:
            keys = [small_key(m_prime=3000, seed=seed) for seed in seeds]
            write_cache(path, {key: synthetic_entry(key) for key in keys})
        header, first, second = path.read_text().splitlines()
        expected = read_cache(path)
        assert len(expected) == 2
        path.write_text(f"{header}\n{first}\n  \n{second}\n\n\t\n")
        assert read_cache(path) == expected
        # a merge rewrites the file without them
        merge_cache(path, [])
        write_cache(clean, expected)
        assert path.read_text() == clean.read_text()
        # diagnostics still count physical lines
        path.write_text(f"{header}\n\n{first}\nbogus\n")
        with pytest.raises(CorruptCache, match="^cache line 4: "):
            read_cache(path)

    def test_v1_record_needs_its_twelve_fields(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("mcdmanova calibration cache v1\n"
                        "2 2 2 10 interactions interaction 3000 123 0.0625 4 0.25\n")
        with pytest.raises(CorruptCache, match="line 2: expected 12 fields, found 11"):
            read_cache(path)


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
                            Hypothesis.INTERACTIONS, McdConfig())
        assert (got.key.m_prime, got.key.seed) == (3000, 2)

    def test_missing_raises(self):
        src = CalibrationSource()
        with pytest.raises(MissingCalibration):
            src.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                          Hypothesis.INTERACTIONS, FAST)

    def test_on_the_fly_calibrates_and_persists(self, tmp_path):
        path = tmp_path / "cal.txt"
        src = CalibrationSource(cache_file=path, on_the_fly=10, seed=123)
        got = src.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                            Hypothesis.INTERACTIONS, FAST)
        assert got.key.m_prime == 10
        # all five pairs were fitted and persisted in one pass
        assert len(read_cache(path)) == 5
        # a fresh source finds the persisted entry without recalibrating
        src2 = CalibrationSource(cache_file=path)
        assert src2.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                              Hypothesis.INTERACTIONS, FAST) == got

    def test_run_config_calibrates_a_miss(self, tmp_path):
        # run_manova hands its own config to the lookup, so a miss is
        # calibrated at that config, and each report carries the entry
        # its p-value used
        path = tmp_path / "cal.txt"
        src = CalibrationSource(cache_file=path, on_the_fly=10, seed=5)
        layout = gen_null(Design(2, 2, 10, 2), RngStream(8))
        reports = manova.run_manova(layout, Model.WITH_INTERACTIONS, "mcd", FAST, src)
        fitted = calibrate_design(2, 2, 2, 10, 10, 5, FAST)
        assert sorted(map(repr, read_cache(path).values())) == sorted(map(repr, fitted))
        for rep in reports:
            assert rep.approx is src.entry_for(
                2, 2, 2, 10, rep.model, rep.hypothesis, FAST
            )

    def test_explicit_entries_extend_cache_file(self, tmp_path):
        path = tmp_path / "cal.txt"
        persisted = synthetic_entry(small_key(m_prime=3000, seed=4))
        merge_cache(path, [persisted])
        extra = synthetic_entry(small_key(m_prime=5000, seed=5))
        src = CalibrationSource(entries=[extra], cache_file=path)
        got = src.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS,
                            Hypothesis.INTERACTIONS, McdConfig())
        assert got == extra

    def test_v1_entry_serves_the_default_config_only(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("mcdmanova calibration cache v1\n"
                        "2 2 2 10 interactions interaction 3000 123 0.0625 4 0.25 0.03125\n")
        src = CalibrationSource(cache_file=path)
        args = (2, 2, 2, 10, Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS)
        assert src.entry_for(*args, McdConfig()).key == small_key(m_prime=3000)
        for config in (McdConfig(alpha=0.75), McdConfig(n_starts=499), McdConfig(n_keep=9)):
            with pytest.raises(MissingCalibration):
                src.entry_for(*args, config)

    def test_entry_of_another_pipeline_not_served(self, monkeypatch):
        src = CalibrationSource(entries=[synthetic_entry()])
        args = (2, 2, 2, 10, Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS, McdConfig())
        assert src.entry_for(*args) == synthetic_entry()
        monkeypatch.setattr(calibration, "PIPELINE_VERSION", 2)
        with pytest.raises(MissingCalibration, match="at alpha=0.5 n_starts=500 n_keep=10 "
                                                     "pipeline=2; stored only at alpha=0.5 "
                                                     "n_starts=500 n_keep=10 pipeline=1;"):
            src.entry_for(*args)

    def test_mismatch_message_names_both_settings(self):
        entries = [
            synthetic_entry(replace(small_key(m_prime=3000), alpha=0.75)),
            synthetic_entry(replace(small_key(m_prime=3000), n_starts=40, n_keep=4)),
            synthetic_entry(replace(small_key(m_prime=3000, hypothesis=Hypothesis.ROW_EFFECTS),
                                    alpha=0.6)),
        ]
        src = CalibrationSource(entries=entries)
        with pytest.raises(MissingCalibration) as exc:
            src.entry_for(2, 2, 2, 10, Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS,
                          McdConfig())
        assert str(exc.value) == (
            "no calibration entry for p=2 r=2 c=2 n=10 model=interactions "
            "hypothesis=interaction at alpha=0.5 n_starts=500 n_keep=10 pipeline=1; "
            "stored only at alpha=0.5 n_starts=40 n_keep=4 pipeline=1 "
            "and at alpha=0.75 n_starts=500 n_keep=10 pipeline=1; "
            "calibrate the design first or enable on-the-fly calibration"
        )
        with pytest.raises(MissingCalibration) as exc:
            src.entry_for(2, 2, 2, 11, Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS,
                          McdConfig())
        assert str(exc.value) == (
            "no calibration entry for p=2 r=2 c=2 n=11 model=interactions "
            "hypothesis=interaction at alpha=0.5 n_starts=500 n_keep=10 pipeline=1; "
            "calibrate the design first or enable on-the-fly calibration"
        )
