"""Seeded workload inputs: request lines, windows and Monte-Carlo trials.

Everything the benchmark sends or computes on is built here from the
``--seed`` argument alone, before any timing starts, so one seed always
yields byte-identical request lines (``test_perfbench.py`` pins that).

Serve workloads
    8 sessions, 4 per connection, each a sensing stream at K=256,
    M=63 (the paper's 127x127 grid).  Even-numbered sessions carry
    BPSK (8 samples per symbol) at 0 dB SNR in unit-power noise, odd
    ones noise only.

    ``hop-stream`` (N=32, hop=64): each session's stream is periodic
    with ``HOP_POOL`` hops, so every decision's window is one of
    ``8 * HOP_POOL`` distinct windows the oracle can recompute.  A
    prefill line brings the session one hop short of a full window;
    afterwards every ingest line carries exactly one hop.

    ``dwell-window`` (N=32, hop=256): every decision ingests one whole
    8192-sample window drawn round-robin from the session's pool of
    ``DWELL_POOL`` pre-encoded windows (half of them BPSK), so the
    session's detection window is exactly the window just sent.

``pd-sweep``
    The operating point of ``tests/fixtures/golden_pd.json``: its
    calibration noise and H1 trials are fixed by the fixture (that is
    what makes the golden Pd curve reproducible), so the seed only
    permutes the trial order inside each batch and the order of the SNR
    points -- neither of which may change a single bit of the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine.plans import default_noise_factory
from repro.pipeline import PipelineConfig
from repro.serve import encode_samples
from repro.signals import awgn, bpsk_signal

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PD = ROOT / "tests" / "fixtures" / "golden_pd.json"

SESSIONS = 8
CONNECTIONS = 2
HOP_POOL = 64
DWELL_POOL = 4
BPSK_SAMPLES_PER_SYMBOL = 8
SNR_DB = 0.0

SERVE_HOPS = {"hop-stream": 64, "dwell-window": 256}


def serve_config(workload: str) -> PipelineConfig:
    """The operating point a serve workload's server runs."""
    return PipelineConfig(
        fft_size=256,
        num_blocks=32,
        m=63,
        hop=SERVE_HOPS[workload],
        backend="vectorized",
        precision="float64",
        serve_path="auto",
    )


def _stream(rng: np.random.Generator, length: int, occupied: bool) -> np.ndarray:
    noise = awgn(length, power=1.0, rng=rng)
    if not occupied:
        return noise
    user = bpsk_signal(
        length, 1e6, samples_per_symbol=BPSK_SAMPLES_PER_SYMBOL, rng=rng
    ).samples
    return float(np.sqrt(10.0 ** (SNR_DB / 10.0))) * user + noise


def ingest_line(session: str, samples: np.ndarray) -> bytes:
    """One ``ingest`` request line, exactly as the generator sends it."""
    return json.dumps(
        {"op": "ingest", "session": session, "samples": encode_samples(samples)}
    ).encode() + b"\n"


def detect_line(session: str) -> bytes:
    """One ``detect`` request line."""
    return b'{"op": "detect", "session": "%s"}\n' % session.encode()


@dataclass
class ServeInputs:
    """Pre-encoded request lines plus the windows they imply.

    ``chunk_lines[s][j]`` is the ingest line of pool entry *j* of session
    *s*; steady-state ingests walk ``pool_order[s]`` cyclically.
    :meth:`window` is the detection window a session holds after a
    decision, which is what the oracle recomputes offline.
    """

    workload: str
    config: PipelineConfig
    sessions: list[str]
    prefill_lines: list[bytes]
    chunk_lines: list[list[bytes]]
    pool_order: list[list[int]]
    samples: list = field(repr=False)

    def chunk_line(self, session: int, count: int) -> tuple[bytes, int]:
        """The session's *count*-th steady-state ingest line and the
        pool index it carries."""
        order = self.pool_order[session]
        index = order[count % len(order)]
        return self.chunk_lines[session][index], index

    def chunk_samples(self, session: int, index: int) -> np.ndarray:
        """The samples pool entry *index* of *session* carries."""
        if self.workload == "dwell-window":
            return self.samples[session][index]
        hop = self.config.hop
        return self.samples[session][index * hop : (index + 1) * hop]

    def window(self, session: int, blocks: int, index: int) -> np.ndarray:
        """The detection window after a decision at *blocks* blocks.

        *index* is the pool index of the last chunk sent (it alone
        names the window on ``dwell-window``).
        """
        if self.workload == "dwell-window":
            return self.chunk_samples(session, index)
        cfg = self.config
        start = (blocks - cfg.num_blocks) * cfg.hop
        positions = np.arange(start, start + cfg.samples_per_decision)
        return self.samples[session].take(positions, mode="wrap")

    def window_key(self, session: int, blocks: int, index: int) -> tuple:
        """A hashable name of :meth:`window` (equal keys, equal windows)."""
        if self.workload == "dwell-window":
            return (session, index)
        return (session, (blocks - self.config.num_blocks) % HOP_POOL)


def serve_inputs(workload: str, seed: int) -> ServeInputs:
    """Build every request line of a serve workload from *seed*."""
    config = serve_config(workload)
    hop = config.hop
    sessions = [f"{workload[0]}{index}" for index in range(SESSIONS)]
    prefill_lines: list[bytes] = []
    chunk_lines: list[list[bytes]] = []
    pool_order: list[list[int]] = []
    samples: list = []
    for index, session in enumerate(sessions):
        rng = np.random.default_rng([seed, index])
        if workload == "hop-stream":
            stream = _stream(rng, HOP_POOL * hop, occupied=index % 2 == 0)
            # One hop short of a full window: the first steady-state
            # chunk completes block N.
            prefill = config.samples_per_decision - hop
            prefill_lines.append(ingest_line(session, stream[:prefill]))
            chunks = [stream[j * hop : (j + 1) * hop] for j in range(HOP_POOL)]
            first = prefill // hop
            pool_order.append(
                [(first + j) % HOP_POOL for j in range(HOP_POOL)]
            )
            samples.append(stream)
        else:
            chunks = [
                _stream(rng, config.samples_per_decision, occupied=j % 2 == 0)
                for j in range(DWELL_POOL)
            ]
            prefill_lines.append(b"")
            pool_order.append(list(range(DWELL_POOL)))
            samples.append(chunks)
        chunk_lines.append([ingest_line(session, chunk) for chunk in chunks])
    return ServeInputs(
        workload=workload,
        config=config,
        sessions=sessions,
        prefill_lines=prefill_lines,
        chunk_lines=chunk_lines,
        pool_order=pool_order,
        samples=samples,
    )


@dataclass
class SweepInputs:
    """The pd-sweep trials, pre-generated, in seed-permuted order."""

    config: PipelineConfig
    fixture: dict
    noise: np.ndarray  # (calibration_trials, samples)
    h1: dict  # snr_db -> (trials, samples)
    snr_order: list[float]


def load_fixture() -> dict:
    return json.loads(GOLDEN_PD.read_text())


def sweep_config(fixture: dict) -> PipelineConfig:
    point = fixture["operating_point"]
    return PipelineConfig(
        fft_size=point["fft_size"],
        num_blocks=point["num_blocks"],
        m=point["m"],
        pfa=point["pfa"],
        calibration_trials=point["calibration_trials"],
        calibration_seed=point["calibration_seed"],
        backend="vectorized",
        precision="float64",
    )


def sweep_inputs(seed: int) -> SweepInputs:
    """The golden operating point's trials, permuted by *seed*."""
    fixture = load_fixture()
    point = fixture["operating_point"]
    config = sweep_config(fixture)
    needed = config.samples_per_decision
    rng = np.random.default_rng(seed)
    noise_factory = default_noise_factory(config)
    calibration = point["calibration_trials"]
    noise = np.stack(
        [noise_factory(int(t)) for t in rng.permutation(calibration)]
    )
    h1 = {}
    for entry in fixture["points"]:
        snr_db = entry["snr_db"]
        amplitude = float(np.sqrt(10.0 ** (snr_db / 10.0)))
        trials = []
        for trial in rng.permutation(point["trials"]):
            trial_rng = np.random.default_rng(point["h1_seed_base"] + int(trial))
            user = bpsk_signal(
                needed,
                1e6,
                samples_per_symbol=point["samples_per_symbol"],
                rng=trial_rng,
            )
            trials.append(
                amplitude * user.samples
                + awgn(needed, power=1.0, rng=trial_rng)
            )
        h1[snr_db] = np.stack(trials)
    snr_order = [float(s) for s in rng.permutation(list(h1))]
    return SweepInputs(
        config=config, fixture=fixture, noise=noise, h1=h1, snr_order=snr_order
    )
