"""Single-precision dataflow + zero-copy shard transport contracts.

Pins the PR-6 contracts:

* the **precision policy**: ``float64`` configs run the untouched
  parity-reference code paths, ``float32`` is accepted only by the
  batch backends (``vectorized``, ``fam``, ``ssca``) and agrees with
  the float64 statistics to a documented per-backend tolerance at the
  golden K = 256, 127 x 127 operating point — including the golden Pd
  curve itself;
* plan identity: float32 and float64 plans never collide in the
  shared plan cache (``precision`` is a plan-key field);
* the **shared-memory shard transport**: ``jobs in {1, 2, 4}`` stays
  bitwise equal to serial execution at both precisions, per-shard
  submissions pickle to O(config) bytes, and shared-memory segments
  are never leaked into ``/dev/shm`` — not on clean shutdown and not
  when a worker dies mid-shard.
"""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro._compute import (
    PRECISIONS,
    complex_dtype,
    fft_fast_kwargs,
    fft_namespace,
    real_dtype,
    tile_trials,
    validate_precision,
)
from repro.engine import (
    PLAN_KEY_FIELDS,
    Engine,
    SharedArraySegment,
    build_plan,
    plan_key,
)
from repro.engine.shm import attach_segment, segment_view
from repro.errors import ConfigurationError
from repro.pipeline import PipelineConfig
from repro.pipeline.config import FLOAT32_BACKENDS
from repro.signals.noise import awgn
from repro.signals.modulators import bpsk_signal

from test_golden_operating_point import (
    PD_TOLERANCE,
    compute_curve,
    load_fixture,
)

#: Documented float32-vs-float64 statistic agreement per backend at
#: the golden K = 256 geometry (max relative error over trials).  The
#: vectorized Gram path and FAM's pair products accumulate ~1e-7 of
#: complex64 rounding; SSCA's length-N strip FFTs accumulate about an
#: order of magnitude more.  Bounds carry ~30x headroom over measured
#: maxima so BLAS/FFT reorderings across machines stay green.
STATISTIC_RTOL = {"vectorized": 1e-5, "fam": 1e-5, "ssca": 5e-5}

GOLDEN = PipelineConfig(fft_size=256, num_blocks=8, calibration_trials=8)


def _signals(config, trials=6, seed=900, occupied=True):
    needed = config.samples_per_decision
    batch = []
    for trial in range(trials):
        samples = awgn(needed, seed=seed + trial)
        if occupied:
            samples = samples + 0.5 * bpsk_signal(
                needed, 1e6, samples_per_symbol=8, seed=7000 + trial
            ).samples
        batch.append(samples)
    return np.stack(batch)


def _shm_segments() -> set:
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-POSIX fallback
        return set()
    return {entry.name for entry in root.iterdir()}


# ----------------------------------------------------------------------
# Precision policy
# ----------------------------------------------------------------------
class TestPrecisionPolicy:
    def test_default_is_float64(self):
        assert PipelineConfig(fft_size=32, num_blocks=8).precision == "float64"

    def test_unknown_precision_rejected(self):
        with pytest.raises(ConfigurationError, match="precision"):
            PipelineConfig(fft_size=32, num_blocks=8, precision="float16")
        with pytest.raises(ConfigurationError, match="precision"):
            validate_precision("double")

    @pytest.mark.parametrize("backend", ["reference", "soc"])
    def test_float32_rejected_on_parity_backends(self, backend):
        with pytest.raises(ConfigurationError, match="float32"):
            PipelineConfig(
                fft_size=32, num_blocks=8, backend=backend,
                precision="float32",
            )

    @pytest.mark.parametrize("backend", FLOAT32_BACKENDS)
    def test_float32_accepted_on_batch_backends(self, backend):
        config = PipelineConfig(
            fft_size=32, num_blocks=8, backend=backend, precision="float32"
        )
        assert config.precision == "float32"

    def test_dtype_helpers(self):
        assert complex_dtype("float32") == np.dtype(np.complex64)
        assert complex_dtype("float64") == np.dtype(np.complex128)
        assert real_dtype("float32") == np.dtype(np.float32)
        assert real_dtype("float64") == np.dtype(np.float64)

    def test_float64_fft_namespace_is_numpy(self):
        # The parity reference must keep numpy's FFT, bit for bit.
        assert fft_namespace("float64") is np.fft
        assert fft_fast_kwargs(np.fft) == {}

    def test_tile_trials_bounds(self):
        assert tile_trials(0) == 1
        assert tile_trials(10**12) == 1
        assert tile_trials(1024, budget_bytes=8192) == 8


class TestPrecisionPlanIdentity:
    def test_precision_is_a_plan_key_field(self):
        assert "precision" in PLAN_KEY_FIELDS

    @pytest.mark.parametrize("backend", FLOAT32_BACKENDS)
    def test_plans_never_collide_across_precisions(self, backend):
        base = PipelineConfig(fft_size=32, num_blocks=8, backend=backend)
        fast = PipelineConfig(
            fft_size=32, num_blocks=8, backend=backend, precision="float32"
        )
        assert plan_key(base) != plan_key(fast)

    def test_float32_plan_produces_single_precision(self):
        config = PipelineConfig(
            fft_size=32, num_blocks=8, precision="float32"
        )
        plan = build_plan(config)
        signals = _signals(config)
        assert plan.block_spectra(signals).dtype == np.complex64
        assert plan.dscf_values(signals).dtype == np.complex64
        assert plan.statistics(signals).dtype == np.float32


# ----------------------------------------------------------------------
# float32 agreement at the golden operating point
# ----------------------------------------------------------------------
class TestFloat32GoldenAgreement:
    @pytest.mark.parametrize("backend", FLOAT32_BACKENDS)
    def test_statistics_match_float64_within_documented_rtol(self, backend):
        base = PipelineConfig(
            fft_size=256, num_blocks=8, backend=backend,
            calibration_trials=8,
        )
        fast = PipelineConfig(
            fft_size=256, num_blocks=8, backend=backend,
            calibration_trials=8, precision="float32",
        )
        signals = _signals(base, trials=6)
        with Engine() as engine:
            reference = engine.statistics(signals, config=base)
            single = engine.statistics(signals, config=fast)
        relative = np.abs(single.astype(np.float64) - reference) / np.abs(
            reference
        )
        assert float(np.max(relative)) < STATISTIC_RTOL[backend]

    @pytest.mark.parametrize("backend", FLOAT32_BACKENDS)
    def test_detection_decisions_agree(self, backend):
        base = PipelineConfig(
            fft_size=256, num_blocks=8, backend=backend,
            calibration_trials=20,
        )
        fast = PipelineConfig(
            fft_size=256, num_blocks=8, backend=backend,
            calibration_trials=20, precision="float32",
        )
        signals = _signals(base, trials=6)
        with Engine() as engine:
            threshold64 = engine.calibrate_threshold(base)
            threshold32 = engine.calibrate_threshold(fast)
            decisions64 = engine.statistics(signals, config=base) > threshold64
            decisions32 = engine.statistics(signals, config=fast) > threshold32
        # Seeded, non-borderline trials: every decision must agree.
        assert np.array_equal(decisions64, decisions32)

    def test_float32_pd_curve_matches_golden_fixture(self):
        fixture = load_fixture()
        threshold, points = compute_curve(fixture, precision="float32")
        # The float32 threshold is a quantile of single-precision
        # statistics: equal to the pinned double value only to float32
        # resolution, not the fixture's 1e-6 double-precision pin.
        assert threshold == pytest.approx(fixture["threshold"], rel=1e-4)
        for computed, pinned in zip(points, fixture["points"]):
            assert computed["snr_db"] == pinned["snr_db"]
            assert computed["pd"] == pytest.approx(
                pinned["pd"], abs=PD_TOLERANCE
            ), f"float32 Pd drifted at {pinned['snr_db']:+.1f} dB"


# ----------------------------------------------------------------------
# Shared-memory shard transport
# ----------------------------------------------------------------------
TINY = PipelineConfig(fft_size=32, num_blocks=8, calibration_trials=20)
TINY32 = PipelineConfig(
    fft_size=32, num_blocks=8, calibration_trials=20, precision="float32"
)


class TestSharedTransport:
    def test_transport_validated(self):
        # Shared memory is the only shard transport; there is no knob.
        with pytest.raises(TypeError):
            Engine(transport="shared")

    @pytest.mark.parametrize("config", [TINY, TINY32], ids=["f64", "f32"])
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_shard_count_invariant_bitwise(self, config, jobs):
        signals = _signals(config, trials=6)
        with Engine(jobs=1) as engine:
            serial = engine.statistics(signals, config=config)
        with Engine(jobs=jobs) as engine:
            sharded = engine.statistics(signals, config=config)
            assert engine.last_transport == "shared"
        assert sharded.dtype == serial.dtype
        assert np.array_equal(serial, sharded)

    def test_serial_path_reports_in_process(self):
        signals = _signals(TINY, trials=3)
        with Engine(jobs=1) as engine:
            engine.statistics(signals, config=TINY)
            assert engine.last_transport == "in-process"

    def test_shared_submission_is_descriptor_sized(self):
        # The whole point: worker submissions no longer scale with the
        # trial block — only a (config, descriptor, bounds) tuple rides
        # the pipe.
        signals = _signals(TINY, trials=6)
        with SharedArraySegment(signals) as segment:
            payload = len(
                pickle.dumps((TINY, segment.descriptor, 0, 3, True))
            )
        assert payload < 16 * 1024
        assert payload < len(pickle.dumps((TINY, signals[:3], True)))

    def test_segment_round_trip_and_read_only_views(self):
        array = np.arange(24, dtype=np.complex128).reshape(4, 6)
        with SharedArraySegment(array) as segment:
            shm = attach_segment(segment.descriptor)
            try:
                view = segment_view(segment.descriptor, shm)
                assert np.array_equal(view, array)
                with pytest.raises(ValueError):
                    view[0, 0] = 1j
            finally:
                del view
                shm.close()

    def test_empty_array_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            SharedArraySegment(np.empty((0, 4), dtype=np.complex128))

    def test_destroy_is_idempotent(self):
        segment = SharedArraySegment(np.ones(8))
        name = segment.name
        segment.destroy()
        segment.destroy()
        assert not (Path("/dev/shm") / name).exists()


class TestSegmentLifecycle:
    def test_no_segments_leaked_on_clean_runs(self):
        before = _shm_segments()
        signals = _signals(TINY, trials=6)
        with Engine(jobs=2) as engine:
            engine.statistics(signals, config=TINY)
            engine.statistics(signals, config=TINY)
        assert _shm_segments() <= before

    def test_no_segments_leaked_when_a_shard_dies(self):
        """A worker exception mid-shard must still unlink the block."""
        before = _shm_segments()
        # Trials shorter than one decision: every worker raises while
        # the parent still owns a published segment.
        starved = np.ones((4, 16), dtype=np.complex128)
        with Engine(jobs=2) as engine:
            good = _signals(TINY, trials=4)
            engine.statistics(good, config=TINY)  # warm pool
            with pytest.raises(ConfigurationError):
                engine.statistics(starved, config=TINY)
            # The failed batch's segment is already gone — before the
            # engine itself shuts down.
            assert _shm_segments() <= before
            engine.statistics(good, config=TINY)  # engine still usable
        assert _shm_segments() <= before

    def test_close_destroys_tracked_segments(self):
        engine = Engine(jobs=2)
        segment = SharedArraySegment(np.ones(16))
        engine._segments.add(segment)
        engine.close()
        assert not (Path("/dev/shm") / segment.name).exists()
