"""Host speed: a reference kernel, timed on the CPU that does the work.

On a shared virtual machine a vCPU's speed changes by up to 2x for
seconds to minutes at a time, as other tenants come and go on the
physical core and memory under it.  Runs minutes apart then differ by
more than most changes to a program, and a median over one run does not
remove it.  So each workload has a reference kernel shaped like its own
dominant work, written here in plain numpy and Python, and the benchmark
times it on the workload's CPU between slices of load.  A slice's figures
are scaled to the kernel's nominal speed: a rate divided by
:func:`Meter.speed`, a time multiplied by it, reads as it would have on a
quiet core of the reference host.

The kernels never call the repository's code, so a change to the
program cannot move them.  Shapes follow the paper point, K=256 (129
one-sided bins):

``hop-stream``    one window's Gram (32 blocks) plus interpreted Python,
                  as in a served detect;
``dwell-window``  a JSON decode of 4096 floats plus one Gram, as in a
                  served ingest of a whole window;
``pd-sweep``      the Gram of a 48-trial, 8-block Monte-Carlo batch.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)


def _spectra(*shape: int) -> np.ndarray:
    return _rng.standard_normal(shape) + 1j * _rng.standard_normal(shape)


_WINDOW = _spectra(32, 129)
_BATCH = _spectra(48, 8, 129)
_LINE = json.dumps({"samples": _rng.standard_normal(4096).tolist()})


def _gram(spectra: np.ndarray) -> np.ndarray:
    return np.einsum("...nk,...nj->...kj", spectra, spectra.conj())


def _interpreted() -> int:
    total = 0
    for index in range(1000):
        total += index * index
    return total


def _hop() -> None:
    _gram(_WINDOW)
    _interpreted()


def _dwell() -> None:
    np.asarray(json.loads(_LINE)["samples"])
    _gram(_WINDOW)


def _sweep() -> None:
    _gram(_BATCH)


#: workload -> (kernel, operations per reading, nominal seconds per
#: operation on a quiet core of the reference host: Intel Xeon, family 6
#: model 143, one BLAS thread).
KERNELS = {
    "hop-stream": (_hop, 16, 1.4e-3),
    "dwell-window": (_dwell, 16, 2.4e-3),
    "pd-sweep": (_sweep, 5, 20e-3),
}


class Meter:
    """Reads the host speed with one workload's reference kernel."""

    def __init__(self, workload: str) -> None:
        self.kernel, self.ops, self.nominal_s = KERNELS[workload]

    def speed(self) -> float:
        """This CPU's speed relative to nominal (1.0 = a quiet core).

        The median of ``ops`` timed operations, so a preemption inside
        one of them does not move the reading.
        """
        times = []
        for _ in range(self.ops):
            started = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - started)
        return self.nominal_s / statistics.median(times)
