"""Tests for the internal validation helpers."""

import numpy as np
import pytest

from repro._util import (
    as_complex_vector,
    is_power_of_two,
    require,
    require_in_range,
    require_non_negative_int,
    require_positive_float,
    require_positive_int,
    require_power_of_two,
    spawn_substreams,
)
from repro.errors import ConfigurationError


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_on_false(self):
        with pytest.raises(ConfigurationError, match="boom"):
            require(False, "boom")


class TestRequirePositiveInt:
    def test_accepts_positive(self):
        assert require_positive_int(5, "x") == 5

    def test_accepts_numpy_integer(self):
        assert require_positive_int(np.int64(7), "x") == 7

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            require_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_positive_int(-3, "x")

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            require_positive_int(2.0, "x")

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            require_positive_int(True, "x")


class TestRequireNonNegativeInt:
    def test_accepts_zero(self):
        assert require_non_negative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_non_negative_int(-1, "x")


class TestRequirePowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 256, 1024])
    def test_accepts_powers(self, value):
        assert require_power_of_two(value, "x") == value

    @pytest.mark.parametrize("value", [3, 6, 12, 255, 0, -4])
    def test_rejects_non_powers(self, value):
        with pytest.raises(ConfigurationError):
            require_power_of_two(value, "x")


class TestRequirePositiveFloat:
    def test_accepts_float(self):
        assert require_positive_float(2.5, "x") == 2.5

    def test_accepts_int(self):
        assert require_positive_float(3, "x") == 3.0

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive_float(0.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            require_positive_float(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ConfigurationError):
            require_positive_float(float("inf"), "x")

    def test_rejects_string(self):
        with pytest.raises(ConfigurationError):
            require_positive_float("fast", "x")


class TestRequireInRange:
    def test_accepts_bounds(self):
        assert require_in_range(0, 0, 5, "x") == 0
        assert require_in_range(5, 0, 5, "x") == 5

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            require_in_range(6, 0, 5, "x")


class TestAsComplexVector:
    def test_promotes_real_input(self):
        out = as_complex_vector([1.0, 2.0], "x")
        assert out.dtype == np.complex128

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            as_complex_vector(np.array([]), "x")

    def test_rejects_matrix(self):
        with pytest.raises(ConfigurationError):
            as_complex_vector(np.zeros((2, 2)), "x")


class TestIsPowerOfTwo:
    def test_true_cases(self):
        assert all(is_power_of_two(v) for v in (1, 2, 8, 4096))

    def test_false_cases(self):
        assert not any(is_power_of_two(v) for v in (0, -2, 3, 12))


class TestSpawnSubstreams:
    """The package-wide seeding contract (dedup of wideband /
    calibration / scanner substream spawning)."""

    def test_arithmetic_mode(self):
        seeds = spawn_substreams(4, base_seed=100)
        assert seeds.tolist() == [100, 101, 102, 103]

    def test_arithmetic_start_offset(self):
        assert spawn_substreams(1, base_seed=100, start=7)[0] == 107
        # Trial t's seed is independent of how trials are chunked.
        bulk = spawn_substreams(10, base_seed=100)
        assert bulk[7] == spawn_substreams(1, base_seed=100, start=7)[0]

    def test_rng_mode_matches_stream_draw(self):
        reference = np.random.default_rng(5).integers(0, 2**63, size=3)
        drawn = spawn_substreams(3, rng=np.random.default_rng(5))
        assert np.array_equal(reference, drawn)

    def test_rng_mode_advances_generator(self):
        rng = np.random.default_rng(5)
        spawn_substreams(2, rng=rng)
        rng_ref = np.random.default_rng(5)
        rng_ref.integers(0, 2**63, size=2)
        assert rng.integers(0, 10) == rng_ref.integers(0, 10)

    def test_modes_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            spawn_substreams(2)
        with pytest.raises(ConfigurationError):
            spawn_substreams(2, rng=np.random.default_rng(0), base_seed=1)

    def test_rng_mode_rejects_start(self):
        with pytest.raises(ConfigurationError):
            spawn_substreams(2, rng=np.random.default_rng(0), start=1)

    def test_validates_count_and_seed(self):
        with pytest.raises(ConfigurationError):
            spawn_substreams(-1, base_seed=0)
        with pytest.raises(ConfigurationError):
            spawn_substreams(2, base_seed=1.5)

    def test_zero_count_is_empty(self):
        assert spawn_substreams(0, base_seed=3).size == 0

    def test_large_base_seed_stays_exact(self):
        # Historical ``base + trial`` used unbounded Python ints; the
        # helper must not wrap negative at the int64 boundary.
        seeds = spawn_substreams(4, base_seed=2**63 - 2)
        assert [int(s) for s in seeds] == [
            2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1
        ]
        # Every spawned seed must be a valid default_rng seed.
        for seed in seeds:
            np.random.default_rng(int(seed))

    def test_large_base_seed_beyond_int64(self):
        seeds = spawn_substreams(2, base_seed=2**64)
        assert [int(s) for s in seeds] == [2**64, 2**64 + 1]
