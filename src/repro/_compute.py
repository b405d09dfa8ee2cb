"""The package precision policy every kernel consults.

``float64`` (the default)
    The bitwise parity reference.  Kernels on this path are the exact
    code that existed before the policy was introduced — same dtypes,
    same ``numpy.fft`` — so golden fixtures and cross-backend parity
    pins are untouched.

``float32``
    The throughput path: complex64 arithmetic end to end (half the
    memory traffic; the Gram products run on numpy's BLAS, as at
    float64), with FFTs routed through ``scipy.fft`` — numpy's
    pocketfft dispatch is tuned for double precision and is *slower*
    on complex64 input, while SciPy's preserves single precision at
    full speed.

This is the only module that imports SciPy, and it does so on the
first float32 FFT (:func:`fft_namespace`), so a float64 process never
loads SciPy.

Batch kernels additionally tile their trials through
:func:`tile_trials`, at both precisions, so each slab stays
cache-resident and a batch's working set is bounded by
:data:`TILE_BUDGET_BYTES` instead of growing with its trial count.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from pathlib import Path
from types import ModuleType

import numpy as np

from .errors import ConfigurationError

#: The precisions a :class:`~repro.pipeline.PipelineConfig` may request.
PRECISIONS = ("float32", "float64")

#: Complex/real dtype pairs per precision.
_DTYPES = {
    "float32": (np.dtype(np.complex64), np.dtype(np.float32)),
    "float64": (np.dtype(np.complex128), np.dtype(np.float64)),
}

#: Default budget (bytes) of one trial slab on the batch path — sized
#: to sit comfortably inside a typical L2/L3 share.  It sizes the
#: block-spectra front end's tiles
#: (:func:`~repro.core.fourier.framed_spectra`), the slabs in which
#: :class:`~repro.engine.plans.BatchExecutionPlan` takes every batch
#: and the draw slabs of
#: :meth:`~repro.engine.Engine.monte_carlo_statistics`, so batch
#: memory depends on the geometry, never on the trial count.
TILE_BUDGET_BYTES = 4 * 1024 * 1024

#: Trials per vectorised sub-slab of the SSCA channelizer and the
#: compiled SoC replay, inside the plan slab they are handed: it bounds
#: their per-trial intermediates more tightly than the plan slab does.
#: Per-trial results do not depend on it.
SLAB_TRIALS = 4


def validate_precision(precision) -> str:
    """Validate a precision name, returning it canonicalised."""
    if precision not in PRECISIONS:
        raise ConfigurationError(
            f"precision must be one of {PRECISIONS}, got {precision!r}"
        )
    return str(precision)


def complex_dtype(precision: str) -> np.dtype:
    """The complex dtype of *precision* (complex64 / complex128)."""
    return _DTYPES[validate_precision(precision)][0]


def real_dtype(precision: str) -> np.dtype:
    """The real dtype of *precision* (float32 / float64)."""
    return _DTYPES[validate_precision(precision)][1]


def fft_namespace(precision: str) -> ModuleType:
    """The FFT module the kernels use at *precision*.

    ``float64`` returns ``numpy.fft`` — the parity reference — and
    ``float32`` returns ``scipy.fft``, imported on the first such call
    (numpy's complex64 FFTs are slower than its complex128 ones;
    SciPy's pocketfft keeps single precision fast).
    """
    if validate_precision(precision) == "float64":
        return np.fft
    import scipy.fft

    return scipy.fft


def fft_fast_kwargs(fft: ModuleType) -> dict:
    """Extra kwargs enabling in-place FFT on a dead temporary.

    ``scipy.fft`` accepts ``overwrite_x=True`` (skips its internal
    input copy — ~30% on the product tensors the estimators feed it);
    ``numpy.fft`` has no such knob, so the float64 namespace gets no
    extra arguments.  Only pass the result when the input array is a
    temporary the caller never reads again.
    """
    return {} if fft is np.fft else {"overwrite_x": True}


def pin_blas_thread() -> bool:
    """Pin numpy's bundled OpenBLAS to one thread; whether it took.

    With several threads OpenBLAS splits a product between them by its
    size, which moves register-tile boundaries and with them the last
    bits of Gram cells; :class:`~repro.core.scf.GramKernel` pins before
    it picks its layout.  The pin is process-wide and never undone:
    every numpy product after it runs on one thread.  ``False`` when
    numpy's BLAS is not an OpenBLAS this can find (an Accelerate or MKL
    build, say).
    """
    calls = _openblas_thread_calls()
    if calls is None:
        return False
    set_threads, get_threads = calls
    set_threads(1)
    return get_threads() == 1


@lru_cache(maxsize=1)
def _openblas_thread_calls():
    """``openblas_set_num_threads`` and ``openblas_get_num_threads`` of
    the library numpy loaded, or ``None``.

    numpy's wheels bundle OpenBLAS (``numpy.libs`` on Linux and
    Windows, ``numpy/.dylibs`` on macOS) with prefixed symbols; loading
    the same file again returns the handle numpy already holds.
    """
    root = Path(np.__file__).parent
    libraries = [*root.parent.glob("numpy.libs/*openblas*")]
    libraries += root.glob(".dylibs/*openblas*")
    names = (
        "scipy_openblas_{}_num_threads64_",
        "scipy_openblas_{}_num_threads",
        "openblas_{}_num_threads64_",
        "openblas_{}_num_threads",
    )
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in names:
            setter = getattr(library, name.format("set"), None)
            getter = getattr(library, name.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def tile_trials(
    bytes_per_trial: int | float,
    budget_bytes: int = TILE_BUDGET_BYTES,
) -> int:
    """Trials per cache-sized tile for a given per-trial footprint.

    At least 1; kernels loop ``range(0, trials, tile)`` so any positive
    return value is correct, just differently blocked.
    """
    if bytes_per_trial <= 0:
        return 1
    return max(1, int(budget_bytes // int(bytes_per_trial)))
