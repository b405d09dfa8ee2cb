"""Cold start: a float64 process never loads SciPy.

Only the float32 FFTs use SciPy (``scipy.fft``; the Gram products run
on numpy's BLAS at both precisions), and :mod:`repro._compute` imports
it on their first use.
Each check runs in a fresh interpreter, because the test process has
long since loaded SciPy through other tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.engine import Engine
from repro.estimators import FAMEstimator
from repro.pipeline import PipelineConfig
from repro.signals.noise import awgn

_SCIPY_LOADED = (
    "sorted(name for name in sys.modules "
    "if name == 'scipy' or name.startswith('scipy.'))"
)


def _run(code: str, *args: str) -> None:
    """Run *code* in a fresh interpreter; it must exit cleanly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _assert_no_scipy(body: str) -> None:
    _run(
        "import sys\n"
        + textwrap.dedent(body)
        + f"\nloaded = {_SCIPY_LOADED}\n"
        + "assert not loaded, f'float64 path loaded {loaded}'\n"
    )


class TestFloat64NeverLoadsScipy:
    def test_package_imports(self):
        _assert_no_scipy("import repro, repro.serve, repro.cli")

    def test_cli_backends(self):
        _assert_no_scipy(
            """
            import repro.cli
            assert repro.cli.main(["backends"]) == 0
            """
        )

    def test_engine_statistics_and_calibration(self):
        _assert_no_scipy(
            """
            from repro.engine import Engine
            from repro.pipeline import PipelineConfig
            from repro.signals.noise import awgn

            config = PipelineConfig(
                fft_size=32, num_blocks=8, calibration_trials=20
            )
            signals = awgn(3 * config.samples_per_decision, seed=1)
            with Engine() as engine:
                engine.statistics(signals.reshape(3, -1), config)
                engine.calibrate_threshold(config)
            """
        )

    @pytest.mark.parametrize("serve_path", ["spectra", "engine"])
    def test_service_session_detect(self, serve_path):
        _assert_no_scipy(
            f"""
            import asyncio

            from repro.pipeline import PipelineConfig
            from repro.serve import SensingService
            from repro.signals.noise import awgn

            config = PipelineConfig(
                fft_size=32, num_blocks=8, calibration_trials=20,
                serve_path={serve_path!r},
            )

            async def run():
                async with SensingService(config) as service:
                    session = service.open_session()
                    service.ingest(
                        session, awgn(config.samples_per_decision, seed=2)
                    )
                    return await service.detect(session)

            result = asyncio.run(run())
            assert result["serve_path"] == {serve_path!r}, result
            """
        )


class TestFloat32LoadsScipyOnUse:
    def test_float32_results_match_in_process_bits(self, tmp_path):
        _run(
            f"""
            import sys

            import numpy as np

            from repro.engine import Engine
            from repro.estimators import FAMEstimator
            from repro.pipeline import PipelineConfig
            from repro.signals.noise import awgn

            assert not {_SCIPY_LOADED}
            config = PipelineConfig(
                fft_size=32, num_blocks=8, precision="float32"
            )
            signals = awgn(
                3 * config.samples_per_decision, seed=3
            ).reshape(3, -1)
            spectrum = FAMEstimator(
                num_channels=16, precision="float32"
            ).estimate(awgn(1024, seed=4))
            assert "scipy.fft" in {_SCIPY_LOADED}
            with Engine() as engine:
                statistics = engine.statistics(signals, config)
            assert "scipy.linalg.blas" not in {_SCIPY_LOADED}
            np.savez(
                sys.argv[1], statistics=statistics, fam=spectrum.values
            )
            """,
            str(tmp_path / "child.npz"),
        )
        child = np.load(tmp_path / "child.npz")
        config = PipelineConfig(fft_size=32, num_blocks=8, precision="float32")
        signals = awgn(3 * config.samples_per_decision, seed=3).reshape(3, -1)
        with Engine() as engine:
            statistics = engine.statistics(signals, config)
        fam = FAMEstimator(num_channels=16, precision="float32").estimate(
            awgn(1024, seed=4)
        ).values
        pairs = ((statistics, child["statistics"]), (fam, child["fam"]))
        assert statistics.dtype == np.float32
        for ours, theirs in pairs:
            assert ours.dtype == theirs.dtype
            word = np.uint32 if ours.dtype.itemsize == 4 else np.uint64
            assert np.array_equal(ours.view(word), theirs.view(word))
