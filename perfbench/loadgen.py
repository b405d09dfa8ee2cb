"""Closed-loop loopback-TCP load against a server child process.

The generator is this process: ``CONNECTIONS`` connections, each owning
``SESSIONS / CONNECTIONS`` sessions it serves round-robin.  A decision
is one pre-encoded ``ingest`` line followed by one ``detect`` line; the
connection waits for each reply before sending the next line (a closed
loop), so there are at most ``CONNECTIONS`` requests in flight.

The generator and the server share one CPU.  On a virtual machine a
hand-off between two vCPUs wakes the idle one through the hypervisor,
and how long that takes depends on the host's load more than on either
process; on one CPU each hand-off is a local context switch.  The timed
phase is cut into slices of about ``SLICE_S`` seconds.  Between two
slices no request is in flight and the generator reads the host speed
(:mod:`hostspeed`); a slice's speed is the mean of the readings before
and after it.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import Meter
from inputs import CONNECTIONS, ROOT, SESSIONS, ServeInputs, detect_line

CHILD = Path(__file__).with_name("server_child.py")
#: One BLAS thread per process: the server child and the generator
#: share one CPU.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)
REPLY_TIMEOUT_S = 30.0
CHILD_TIMEOUT_S = 60.0
LINE_LIMIT = 1 << 21
#: Decisions per session before timing starts (not timed, but checked).
WARMUP_ROUNDS = 2
#: Seconds of load between two host-speed readings.
SLICE_S = 1.0


def pin_cpu() -> int:
    """Pin this process (the generator) to one CPU and return it.

    The server child is pinned to the same CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src if not env.get("PYTHONPATH") else src + os.pathsep + env["PYTHONPATH"]
    )
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


class ServerChild:
    """One ``server_child.py`` process; ``launched`` is its start time."""

    def __init__(
        self, workload: str, trace: bool = False, cpu: int | None = None
    ) -> None:
        command = [sys.executable, str(CHILD), "--workload", workload]
        if trace:
            command.append("--trace")
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            bufsize=0,
        )
        try:
            first = self._readline()
            if not first.startswith("PORT "):
                raise RuntimeError(f"server child said {first!r}")
            self.port = int(first.split()[1])
        except BaseException:
            self.kill()
            raise

    def _readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        if not ready:
            raise RuntimeError("server child did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited (code {self.proc.poll()})"
            )
        return line.decode().strip()

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")

    def ask(self, command: str) -> dict:
        """Send one command line; return the child's JSON answer."""
        self.send(command)
        return json.loads(self._readline())

    def usage(self) -> dict:
        """The child's CPU seconds and peak RSS so far."""
        return self.ask("usage")

    def toggle_spans(self) -> None:
        """Switch a ``--trace`` child's span recording on or off."""
        self.send("spans")

    def stop(self) -> dict:
        """Shut the server down; returns its final usage (and spans)."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            final = json.loads(self._readline())
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


@dataclass
class Decision:
    """One ingest+detect round trip as the client saw it."""

    session: int
    index: int  # pool index of the ingested chunk
    started: float
    finished: float
    reply: dict  # the detect reply (or the first error reply)

    @property
    def ok(self) -> bool:
        return bool(self.reply.get("ok"))


class Connection:
    """One client connection with the sessions it owns."""

    def __init__(self, inputs: ServeInputs, sessions: list[int]) -> None:
        self.inputs = inputs
        self.sessions = sessions
        self.sent = {session: 0 for session in sessions}
        self.detects = {s: detect_line(inputs.sessions[s]) for s in sessions}
        self.reader = self.writer = None
        self.request_bytes = 0
        self.broken = False

    async def connect(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=LINE_LIMIT
        )

    async def rpc(self, line: bytes) -> dict:
        self.writer.write(line)
        self.request_bytes += len(line)
        await self.writer.drain()
        reply = await asyncio.wait_for(
            self.reader.readline(), REPLY_TIMEOUT_S
        )
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    async def open_sessions(self) -> None:
        for session in self.sessions:
            name = self.inputs.sessions[session]
            reply = await self.rpc(
                json.dumps({"op": "open", "session": name}).encode() + b"\n"
            )
            if not reply.get("ok"):
                raise RuntimeError(f"open {name} failed: {reply}")
            prefill = self.inputs.prefill_lines[session]
            if prefill:
                reply = await self.rpc(prefill)
                if not reply.get("ok"):
                    raise RuntimeError(f"prefill {name} failed: {reply}")

    async def decide(self, session: int) -> Decision:
        line, index = self.inputs.chunk_line(session, self.sent[session])
        self.sent[session] += 1
        started = time.perf_counter()
        reply = await self.rpc(line)
        if reply.get("ok"):
            reply = await self.rpc(self.detects[session])
        return Decision(session, index, started, time.perf_counter(), reply)

    async def run(self, until: float, decisions: list) -> None:
        """Round-robin closed loop over the owned sessions until *until*.

        A timeout or broken connection is recorded as one failed
        decision and ends this connection's part in the run: the line
        framing cannot be trusted after it.
        """
        while not self.broken:
            for session in self.sessions:
                if time.perf_counter() >= until:
                    return
                try:
                    decisions.append(await self.decide(session))
                except (asyncio.TimeoutError, ConnectionError, ValueError) as error:
                    now = time.perf_counter()
                    reply = {"ok": False, "error": type(error).__name__}
                    decisions.append(Decision(session, -1, now, now, reply))
                    self.broken = True
                    return

    async def stats(self) -> dict:
        reply = await self.rpc(b'{"op": "stats"}\n')
        return reply["stats"]

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def split_sessions() -> list[list[int]]:
    return [list(range(c, SESSIONS, CONNECTIONS)) for c in range(CONNECTIONS)]


async def probe_setup(
    workload: str, inputs: ServeInputs, cpu: int | None
) -> tuple[float, Decision]:
    """Launch a server and time it to its first detect reply.

    Covers interpreter start, imports, plan build and the threshold
    calibration the first detect triggers.  The child is stopped after.
    The time is scaled by the host speed read before and after.
    """
    meter = Meter(workload)
    speed = meter.speed()
    child = ServerChild(workload, cpu=cpu)
    try:
        connection = Connection(inputs, [0])
        await connection.connect(child.port)
        await connection.open_sessions()
        decision = await connection.decide(0)
        elapsed = time.perf_counter() - child.launched
        if not decision.ok:
            raise RuntimeError(f"first detect failed: {decision.reply}")
        await connection.close()
    finally:
        child.stop()
    return elapsed * (speed + meter.speed()) / 2, decision


@dataclass
class Slice:
    """One stretch of load between two host-speed readings."""

    started: float
    finished: float
    decisions: list  # the Decisions completed in it
    speed: float  # mean host speed of the readings before and after it
    traced: bool  # spans were recorded during it

    @property
    def rate(self) -> float:
        return len(self.decisions) / (self.finished - self.started)

    @property
    def latencies_ms(self) -> list:
        """Client-observed latency of each successful decision."""
        return [
            (d.finished - d.started) * 1e3 for d in self.decisions if d.ok
        ] or [0.0]


@dataclass
class LoadResult:
    decisions: list  # every Decision of the timed phase
    warmup: list  # Decisions made before timing (checked, not timed)
    slices: list  # the timed phase, slice by slice
    stats: dict  # the server's stats-op snapshot after the phase
    cpu_s: float  # server CPU seconds spent during the timed phase
    final: dict  # the child's final usage line (maxrss_kb, spans)
    request_bytes: int  # bytes sent during the timed phase


async def run_slices(
    child: ServerChild,
    connections: list,
    seconds: float,
    trace: bool,
    meter: Meter,
) -> list:
    """Drive the connections for *seconds*, slice by slice.

    With *trace*, spans are recorded in every odd slice only.
    """
    slices: list = []
    speed = meter.speed()
    phase_end = time.perf_counter() + seconds
    while True:
        traced = trace and len(slices) % 2 == 1
        if trace and len(slices) > 0:
            child.toggle_spans()
        decisions: list = []
        started = time.perf_counter()
        until = min(started + SLICE_S, phase_end)
        await asyncio.gather(*(c.run(until, decisions) for c in connections))
        finished = time.perf_counter()
        after = meter.speed()
        slices.append(
            Slice(started, finished, decisions, (speed + after) / 2, traced)
        )
        speed = after
        if time.perf_counter() >= phase_end - SLICE_S / 4:
            return slices


async def run_load(
    workload: str,
    inputs: ServeInputs,
    seconds: float,
    cpu: int | None,
    trace: bool = False,
) -> LoadResult:
    """Start a server, warm it up, then drive it for *seconds*."""
    child = ServerChild(workload, trace=trace, cpu=cpu)
    connections = [Connection(inputs, owned) for owned in split_sessions()]
    try:
        for connection in connections:
            await connection.connect(child.port)
            await connection.open_sessions()
        warmup: list = []
        for _ in range(WARMUP_ROUNDS):
            for connection in connections:
                for session in connection.sessions:
                    warmup.append(await connection.decide(session))
        sent_before = sum(c.request_bytes for c in connections)
        cpu_before = child.usage()["cpu_s"]
        slices = await run_slices(
            child, connections, seconds, trace, Meter(workload)
        )
        cpu_s = child.usage()["cpu_s"] - cpu_before
        request_bytes = sum(c.request_bytes for c in connections) - sent_before
        stats = await connections[0].stats()
        for connection in connections:
            await connection.close()
        final = child.stop()
    except BaseException:
        child.kill()
        raise
    return LoadResult(
        decisions=[d for piece in slices for d in piece.decisions],
        warmup=warmup,
        slices=slices,
        stats=stats,
        cpu_s=cpu_s,
        final=final,
        request_bytes=request_bytes,
    )
