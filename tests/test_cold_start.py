"""Cold start: a serve process loads only the modules its route runs.

A float64 process never loads SciPy: only the float32 FFTs use it
(``scipy.fft``; the Gram products run on numpy's BLAS at both
precisions), and :mod:`repro._compute` imports it on their first use.
The package namespaces resolve their names lazily (PEP 562), so the
serve route imports neither the full-plane estimators nor the scanner
nor the wideband scenarios, and the calibration quantile never pulls in
``numpy.ma``.
Each check runs in a fresh interpreter, because the test process has
long since loaded SciPy and every package module through other tests.
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
_REPRO_LOADED = (
    "sorted(name for name in sys.modules "
    "if name == 'repro' or name.startswith('repro.'))"
)

#: What perfbench's server child imports (``perfbench/server_child.py``
#: and the ``perfbench/inputs.py`` it reads its workloads from).
SERVER_CHILD_IMPORTS = """
import repro.serve
from repro.engine.plans import default_noise_factory
from repro.pipeline import PipelineConfig
from repro.signals import awgn, bpsk_signal
"""

#: ``repro`` modules that import loads.  A new module on the serve
#: route shows here first: raise the pin only for a module the route
#: really runs.
SERVER_CHILD_MODULES = 31


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


class TestServeRouteImports:
    def test_server_child_loads_only_its_route(self):
        _run(
            "import sys\n"
            + SERVER_CHILD_IMPORTS
            + f"""
loaded = {_REPRO_LOADED}
off_route = [
    name for name in loaded
    if name.startswith(("repro.estimators", "repro.scanner"))
    or name in ("repro.signals.wideband", "repro.pipeline.pipeline")
]
assert not off_route, off_route
assert len(loaded) == {SERVER_CHILD_MODULES}, (len(loaded), loaded)
"""
        )

    def test_first_calibration_loads_no_masked_arrays(self):
        _run(
            """
            import sys

            from repro.engine import Engine
            from repro.pipeline import PipelineConfig

            config = PipelineConfig(
                fft_size=32, num_blocks=8, calibration_trials=20
            )
            with Engine() as engine:
                engine.calibrate_threshold(config)
            assert "numpy.ma" not in sys.modules
            """
        )

    def test_spawned_worker_resolves_fam(self):
        # A spawned worker imports only what unpickling its task needs;
        # the registry must still find ``fam`` there.  A worker that
        # failed would fall back in-process, so the transport and the
        # health counters are checked as well as the bits.
        _run(
            """
            import multiprocessing

            import numpy as np

            from repro.engine import Engine
            from repro.pipeline import PipelineConfig
            from repro.signals.noise import awgn

            config = PipelineConfig(fft_size=32, num_blocks=8, backend="fam")
            signals = awgn(
                4 * config.samples_per_decision, seed=5
            ).reshape(4, -1)
            with Engine(
                jobs=2, mp_context=multiprocessing.get_context("spawn")
            ) as engine:
                sharded = engine.statistics(signals, config)
                assert engine.last_transport == "shared"
                assert engine.health.shard_failures == 0
            serial = Engine().statistics(signals, config)
            assert np.array_equal(
                sharded.view(np.uint64), serial.view(np.uint64)
            )
            """
        )
