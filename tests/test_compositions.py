"""Tests for the isometric log-ratio transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdmanova.compositions import Composition, ilr, ilr_inverse, ilr_matrix
from mcdmanova.errors import DimensionError, NonPositivePart

# first waste-data composition, mapped by the pivot-basis formula
ROW1 = np.array([0.2073, 0.2493, 0.5434])
ROW1_ILR = np.array([-0.13045410961707804, -0.7115226300286338])

positive_parts = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=2, max_size=8,
)


def clr(v: np.ndarray) -> np.ndarray:
    logs = np.log(v)
    return logs - logs.mean()


class TestComposition:
    def test_valid_parts_stored_read_only(self):
        comp = Composition(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            comp.parts[0] = 5.0

    def test_closed_sums_to_one(self):
        comp = Composition(np.array([2.0, 6.0]))
        assert comp.closed().tolist() == [0.25, 0.75]

    def test_zero_part_rejected(self):
        with pytest.raises(NonPositivePart, match="part 2"):
            Composition(np.array([1.0, 0.0, 3.0]))

    def test_negative_part_rejected(self):
        with pytest.raises(NonPositivePart):
            Composition(np.array([1.0, -0.5]))

    def test_nan_part_rejected(self):
        with pytest.raises(NonPositivePart):
            Composition(np.array([1.0, float("nan")]))

    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            Composition(np.ones((2, 2)))
        with pytest.raises(DimensionError):
            Composition(np.array([]))


class TestIlrMatrix:
    @pytest.mark.parametrize("p", [2, 3, 4, 6, 10])
    def test_orthonormal_rows_summing_to_zero(self, p):
        V = ilr_matrix(p)
        assert V.shape == (p - 1, p)
        assert np.abs(V @ V.T - np.eye(p - 1)).max() < 1e-12
        assert np.abs(V.sum(axis=1)).max() < 1e-12

    def test_invalid_p(self):
        with pytest.raises(DimensionError):
            ilr_matrix(0)


class TestIlr:
    def test_uniform_maps_to_exact_zero(self):
        z = ilr(np.array([1 / 3, 1 / 3, 1 / 3]))
        assert z.tolist() == [0.0, 0.0]
        assert ilr(np.full(6, 0.125)).tolist() == [0.0] * 5

    def test_reference_composition(self):
        assert np.abs(ilr(ROW1) - ROW1_ILR).max() < 1e-14

    def test_first_coordinate_formula(self):
        # z1 compares the first two parts only
        z = ilr(ROW1)
        expected = np.sqrt(0.5) * np.log(ROW1[0] / ROW1[1])
        assert z[0] == pytest.approx(expected, rel=1e-15)

    def test_matches_contrast_matrix(self):
        rng = np.random.default_rng(0)
        for p in (2, 4, 7):
            x = rng.uniform(0.05, 20.0, p)
            assert np.abs(ilr(x) - ilr_matrix(p) @ np.log(x)).max() < 1e-12

    @given(positive_parts, st.floats(min_value=1e-4, max_value=1e4))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, parts, lam):
        x = np.asarray(parts)
        assert np.abs(ilr(lam * x) - ilr(x)).max() < 1e-10

    def test_accepts_composition_objects(self):
        comp = Composition(ROW1)
        assert np.array_equal(ilr(comp), ilr(ROW1))

    def test_rejects_zero_parts(self):
        with pytest.raises(NonPositivePart):
            ilr(np.array([0.5, 0.0, 0.5]))


def loop_ilr(parts: np.ndarray) -> np.ndarray:
    """One composition at a time, the arithmetic the table form keeps."""
    p = parts.size
    z = np.zeros(p - 1)
    for k in range(1, p):
        ratios = np.log(parts[:k] / parts[k])
        z[k - 1] = np.sqrt(k / (k + 1.0)) * ratios.sum() / k
    return z


class TestIlrTable:
    @pytest.mark.parametrize("p", range(2, 13))
    def test_rows_match_single_composition_loop_bitwise(self, p):
        table = np.exp(np.random.default_rng(p).normal(0.0, 2.0, size=(60, p)))
        expected = np.vstack([loop_ilr(row) for row in table])
        coords = ilr(table)
        assert coords.shape == (60, p - 1)
        assert np.array_equal(coords, expected)
        assert np.array_equal(ilr(table[7]), expected[7])

    def test_first_bad_part_reported_as_for_its_row(self):
        table = np.ones((4, 3))
        table[1, 2] = 0.0
        table[2, 0] = -1.0
        with pytest.raises(NonPositivePart) as lone:
            Composition(table[1])
        with pytest.raises(NonPositivePart) as whole:
            ilr(table)
        assert str(whole.value) == f"row 2: {lone.value}"
        assert str(lone.value) == (
            "part 3 is 0.0; all parts must be positive and finite"
        )

    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            ilr(np.ones((2, 0)))
        with pytest.raises(DimensionError):
            ilr(np.ones((2, 2, 2)))


class TestIlrInverse:
    def test_zero_vector_gives_uniform(self):
        comp = ilr_inverse(np.zeros(2))
        assert comp.parts.tolist() == [1 / 3, 1 / 3, 1 / 3]

    def test_round_trip_reference_row(self):
        back = ilr_inverse(ilr(ROW1))
        assert np.abs(back.parts - Composition(ROW1).closed()).max() < 1e-10
        assert np.abs(ilr(back) - ROW1_ILR).max() < 1e-10

    @given(positive_parts)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, parts):
        x = Composition(np.asarray(parts))
        back = ilr_inverse(ilr(x))
        assert np.abs(back.parts - x.closed()).max() < 1e-10

    def test_large_coordinates_stay_valid(self):
        comp = ilr_inverse(np.array([500.0, -300.0]))
        assert comp.parts.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(comp.parts > 0.0)

    def test_finite_required(self):
        with pytest.raises(NonPositivePart):
            ilr_inverse(np.array([np.inf, 0.0]))

    def test_vector_required(self):
        with pytest.raises(DimensionError):
            ilr_inverse(np.zeros((2, 2)))


class TestIsometry:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_ilr_distance_equals_aitchison_distance(self, seed, p):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.05, 10.0, p)
        y = rng.uniform(0.05, 10.0, p)
        d_ilr = np.linalg.norm(ilr(x) - ilr(y))
        d_ait = np.linalg.norm(clr(x) - clr(y))
        assert abs(d_ilr - d_ait) < 1e-9
