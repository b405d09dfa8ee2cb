"""The package precision policy every kernel consults.

``float64`` (the default)
    The bitwise parity reference.  Kernels on this path are the exact
    code that existed before the policy was introduced — same dtypes,
    same ``numpy.fft`` — so golden fixtures and cross-backend parity
    pins are untouched.

``float32``
    The throughput path: complex64 arithmetic end to end (half the
    memory traffic, single-precision BLAS ``cgemm``), with FFTs routed
    through ``scipy.fft`` — numpy's pocketfft dispatch is tuned for
    double precision and is *slower* on complex64 input, while SciPy's
    preserves single precision at full speed.

Kernels additionally tile their trials×channels work through
:func:`tile_trials` so single-precision slabs stay cache-resident
instead of streaming one monolithic array.
"""

from __future__ import annotations

from types import ModuleType

import numpy as np
import scipy.fft as _scipy_fft

from .errors import ConfigurationError

#: The precisions a :class:`~repro.pipeline.PipelineConfig` may request.
PRECISIONS = ("float32", "float64")

#: Complex/real dtype pairs per precision.
_DTYPES = {
    "float32": (np.dtype(np.complex64), np.dtype(np.float32)),
    "float64": (np.dtype(np.complex128), np.dtype(np.float64)),
}

#: Default cache budget (bytes) for one tiled slab of the float32 fast
#: paths — sized to sit comfortably inside a typical L2/L3 share.
TILE_BUDGET_BYTES = 4 * 1024 * 1024


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
    ``float32`` returns ``scipy.fft`` (numpy's complex64 FFTs are
    slower than its complex128 ones; SciPy's pocketfft keeps single
    precision fast).
    """
    if validate_precision(precision) == "float64":
        return np.fft
    return _scipy_fft


def fft_fast_kwargs(fft: ModuleType) -> dict:
    """Extra kwargs enabling in-place FFT on a dead temporary.

    ``scipy.fft`` accepts ``overwrite_x=True`` (skips its internal
    input copy — ~30% on the product tensors the estimators feed it);
    ``numpy.fft`` has no such knob, so the float64 namespace gets no
    extra arguments.  Only pass the result when the input array is a
    temporary the caller never reads again.
    """
    return {"overwrite_x": True} if fft is _scipy_fft else {}


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
