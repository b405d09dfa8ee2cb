"""The system under test: one ``SensingServer`` on loopback TCP.

Started by ``loadgen.ServerChild`` in its own process (one BLAS thread,
``src/`` on ``PYTHONPATH``).  It prints ``PORT <n>`` once the socket
listens, then answers one command line on stdin with one JSON line on
stdout:

* ``usage``: ``cpu_s`` and ``maxrss_kb`` so far;
* ``spans``: switches span recording on or off (it starts off) and
  answers nothing, so the switch never waits on a request in progress.

On ``SIGTERM`` or the end of stdin the server closes and a final usage
line follows, carrying a ``spans`` summary when started with ``--trace``.

``--trace`` wraps three public calls on the live objects -- the
service's ``ingest`` and ``detect`` and the engine's
``spectra_statistics`` -- with nanosecond spans kept in memory, so the
generator can alternate traced and untraced slices of one run and read
the tracing overhead off their throughput.  No repository code is
edited; the untraced server runs unwrapped.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import serve_config  # noqa: E402
from repro.serve import SensingServer, SensingService  # noqa: E402


def usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def install_spans(service: SensingService, spans: dict, recording: list) -> None:
    """Wrap the service's and engine's public calls with span timers.

    A span is kept only while ``recording[0]`` is true.
    """

    def timed(name, call):
        spans[name] = []

        def wrapper(*args, **kwargs):
            if not recording[0]:
                return call(*args, **kwargs)
            started = time.perf_counter_ns()
            try:
                return call(*args, **kwargs)
            finally:
                spans[name].append(time.perf_counter_ns() - started)

        return wrapper

    service.ingest = timed("service.ingest", service.ingest)
    engine = service.engine
    engine.spectra_statistics = timed(
        "engine.spectra_statistics", engine.spectra_statistics
    )
    detect = service.detect
    spans["service.detect"] = []

    async def traced_detect(*args, **kwargs):
        if not recording[0]:
            return await detect(*args, **kwargs)
        started = time.perf_counter_ns()
        try:
            return await detect(*args, **kwargs)
        finally:
            spans["service.detect"].append(time.perf_counter_ns() - started)

    service.detect = traced_detect


def command(name: str, recording: list) -> None:
    """Carry out one stdin command."""
    if name == "usage":
        emit(usage())
    elif name == "spans":
        recording[0] = not recording[0]
    else:
        emit({"error": f"unknown command {name!r}"})


def _quiet_cancellation(loop, context) -> None:
    if not isinstance(context.get("exception"), asyncio.CancelledError):
        loop.default_exception_handler(context)


def span_summary(spans: dict) -> dict:
    return {
        name: {
            "calls": len(durations),
            "median_ms": statistics.median(durations) / 1e6 if durations else 0.0,
        }
        for name, durations in spans.items()
    }


async def serve(workload: str, trace: bool) -> None:
    service = SensingService(serve_config(workload), jobs=1)
    spans: dict = {}
    recording = [False]
    if trace:
        install_spans(service, spans, recording)
    server = SensingServer(service, host="127.0.0.1", port=0)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    pending = bytearray()

    def on_stdin() -> None:
        chunk = os.read(sys.stdin.fileno(), 4096)
        if not chunk:
            loop.remove_reader(sys.stdin.fileno())
            stop.set()
            return
        pending.extend(chunk)
        while b"\n" in pending:
            line, _, rest = bytes(pending).partition(b"\n")
            pending[:] = rest
            command(line.decode().strip(), recording)

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    sys.stdout.write(f"PORT {server.address[1]}\n")
    sys.stdout.flush()
    try:
        await stop.wait()
    finally:
        # Closing cancels connection handlers still parked in
        # ``wait_closed``; that cancellation is the shutdown itself.
        loop.set_exception_handler(_quiet_cancellation)
        await server.close()
    final = usage()
    if trace:
        final["spans"] = span_summary(spans)
    emit(final)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin the server to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    asyncio.run(serve(args.workload, args.trace))


if __name__ == "__main__":
    main()
