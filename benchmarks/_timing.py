"""The one timer behind every ``BENCH_*.json`` timing.

Every row runs on one CPU and one BLAS thread (:func:`pin`): on a
virtual machine a hand-off between two vCPUs, or between OpenBLAS
threads, waits for the hypervisor, and that wait follows the host's
load rather than the code.  The sharding rows, which time worker
processes, run inside :func:`all_cpus` instead: on every CPU the
process started with, still with one BLAS thread.

A row is a budget median (:func:`median_seconds`): as many calls as
fill :data:`BUDGET_SECONDS`, and at least :data:`MIN_CALLS` (a 3-call
median once read a ~3 ms row 2.26x slow).  And a row reads at nominal
host speed: a shared vCPU's speed moves by up to 2x within a row, so
the calls are cut into :data:`PROBES` slices, one operation of a
reference kernel of perfbench's :mod:`hostspeed` is timed between two
slices, and each call is scaled by the host speed of the probes either
side of its slice.  Over ten alternating CI-style smoke sets on the
development host this kept every guarded ratio within 1.44x, where one
reading before and one after each row let 5 of 10 sets reach 1.52-1.73x;
a 0.5 s budget in place of 0.2 s (with eleven serve repeats in place
of five) then halved the ratios outside 0.8-1.25x over six alternating
pairs, 15 against 29.

Rows that keep their own clock (a load run's latencies, a fresh
interpreter's launch) run inside :func:`nominal` instead, which reads
the host speed before and after the run, and :func:`scaled` applies it.
"""

from __future__ import annotations

import importlib.util
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro._compute import pin_blas_thread

_spec = importlib.util.spec_from_file_location(
    "hostspeed",
    Path(__file__).resolve().parents[1] / "perfbench" / "hostspeed.py",
)
_hostspeed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_hostspeed)

#: perfbench's ``hop-stream`` kernel (a K = 256, N = 32 window's Gram
#: plus interpreted Python, ~1.5 ms an operation): it never calls the
#: repository's code, so no change to the program can move it.
METER = _hostspeed.Meter("hop-stream")

#: Seconds of calls per row, the fewest calls, and slices per row.
BUDGET_SECONDS = 0.5
MIN_CALLS = 3
PROBES = 32

_HOST_CPUS = (
    sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
)
#: How many CPUs the process started with (what :func:`all_cpus` runs on).
CPUS = len(_HOST_CPUS) or os.cpu_count() or 1
_cpus = _HOST_CPUS[:1]


def pin() -> None:
    """Run this process on one CPU (every CPU inside :func:`all_cpus`)
    and numpy's BLAS on one thread; both are process-wide and inherited
    by workers started later."""
    if _cpus:
        os.sched_setaffinity(0, _cpus)
    pin_blas_thread()


@contextmanager
def all_cpus():
    """Time the block on every CPU the process started with, so worker
    processes started inside it can run side by side."""
    global _cpus
    _cpus = _HOST_CPUS
    try:
        pin()
        yield
    finally:
        _cpus = _HOST_CPUS[:1]
        pin()


def _probe() -> float:
    """Host speed over one reference-kernel operation (1.0 = nominal)."""
    started = time.perf_counter()
    METER.kernel()
    return METER.nominal_s / (time.perf_counter() - started)


def nominal(run):
    """``(run(), factor)``: *run* pinned, between two host-speed
    readings; its seconds times *factor* read at nominal speed."""
    pin()
    before = METER.speed()
    result = run()
    return result, 0.5 * (before + METER.speed())


def scaled(row: dict, factor: float) -> dict:
    """*row* at nominal speed: its ``*seconds*`` fields multiplied by a
    :func:`nominal` *factor*, its rates divided by it."""
    for key, value in row.items():
        if "seconds" in key:
            row[key] = value * factor
        elif key.endswith(("_per_second", "_rps")) and value:
            row[key] = value / factor
    return row


def call_seconds(
    *fns, setup=None, budget: float = BUDGET_SECONDS
) -> np.ndarray:
    """Nominal seconds of each call of *fns*, one column per function.

    A round runs *setup* (untimed, if given), then each function once,
    in turn, so functions compared in one run see the same inputs and
    host.  Rounds repeat for *budget* seconds, and at least
    :data:`MIN_CALLS` times, in slices of ``budget / PROBES`` seconds
    (or one round) with a probe either side; a call is scaled by its
    two probes' mean.
    """
    pin()
    probes, slices, rounds, calls = [_probe()], [], [], 0
    deadline = time.perf_counter() + budget
    slice_end = time.perf_counter() + budget / PROBES
    while calls < MIN_CALLS or time.perf_counter() < deadline:
        if setup is not None:
            setup()
        times = []
        for fn in fns:
            called = time.perf_counter()
            fn()
            times.append(time.perf_counter() - called)
        rounds.append(times)
        calls += 1
        if time.perf_counter() >= slice_end:
            probes.append(_probe())
            slices.append(rounds)
            rounds = []
            slice_end = time.perf_counter() + budget / PROBES
    if rounds:
        probes.append(_probe())
        slices.append(rounds)
    return np.concatenate(
        [
            np.asarray(rounds) * 0.5 * (before + after)
            for rounds, before, after in zip(slices, probes, probes[1:])
        ]
    )


def median_seconds(fn, **kwargs) -> float:
    """The budget median of *fn* at nominal speed (keywords as for
    :func:`call_seconds`)."""
    return float(np.median(call_seconds(fn, **kwargs)))


def full_only(section: dict) -> dict:
    """Mark every row of *section* ``"full_only": true`` and return it:
    a section only full runs write, which the perf guard then does not
    expect from a ``--smoke`` run."""
    for value in section.values():
        if isinstance(value, dict):
            full_only(value)
    if any(not isinstance(value, dict) for value in section.values()):
        section["full_only"] = True
    return section
