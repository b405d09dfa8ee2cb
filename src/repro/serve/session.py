"""Serve sessions: chunked ingestion of unbounded per-client streams.

A :class:`SensingSession` is the per-client state of the sensing
service: raw samples arrive in arbitrarily-sized chunks (network
packets, SDR driver buffers), the session re-blocks them on the
configured ``(fft_size, hop)`` lattice, and two views stay current:

* an **online SCF** — every completed block's centered spectrum feeds
  a sliding-window :class:`~repro.core.scf.StreamingDSCF`
  (``window_blocks = num_blocks``), so the live spectral-correlation
  estimate over the most recent N blocks is available at any time
  without recomputing history (and is bitwise equal to the batch
  :func:`~repro.core.scf.dscf` over the same window — the contract the
  window accumulator pins);
* a **detection window** — the raw samples spanning the last N
  completed blocks, exactly the observation an offline
  :class:`~repro.pipeline.DetectionPipeline` would consume.  Detection
  requests hand this window to the service's coalescing scheduler, so
  every decision is **bitwise identical** to the equivalent offline
  batch run no matter how the stream was chunked or which requests
  shared the engine batch.

The ring spectra the online SCF already holds double as the serving
layer's **spectra-reuse fast path**.  The ring stores each block's
un-phased centered FFT; :meth:`SensingSession.window_spectra` applies
the offline batch phase in one multiply (bitwise equal to re-running
the block-FFT front end on the window, signed zeros included), so a
``serve_path="spectra"`` detect skips re-blocking and the N-block FFT
sweep entirely while producing bit-for-bit the engine path's
statistic.

Ingestion is O(total samples) regardless of chunking: chunks too short
to complete a block park in a pending list and flush into the
contiguous buffer only when a block can form, so a stream of tiny
chunks never degenerates into concatenate-per-chunk O(chunks^2).
The blocks a chunk completes go through the shared
:func:`~repro.core.fourier.framed_spectra` front end in bulk FFTs of
at most N blocks each (bounded memory for any chunk length), bitwise
equal to transforming the blocks one at a time.  A chunk holding NaN
or ±inf is rejected (:class:`~repro.errors.NonFiniteInputError`)
before it touches the session.

Sessions are plain synchronous state machines (the asyncio service
layers concurrency on top): they checkpoint/restore bitwise via
:meth:`SensingSession.state`/:meth:`SensingSession.from_state`, so a
live stream can be suspended, migrated across processes, or recovered
mid-stream.

Not every backend can serve: sessions need a substrate that either
streams block-by-block or batches trials (everything except the
literal ``reference`` parity oracle, which exists to be slow).
:func:`serve_backends`/:func:`require_serve_capable` encode that rule;
``repro-cfd backends`` and ``repro-cfd serve`` surface it.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.fourier import block_gather, framed_spectra, phase_table
from ..core.scf import DSCFResult, StreamingDSCF
from ..core.windows import get_window
from ..errors import (
    ConfigurationError,
    NonFiniteInputError,
    SessionStateError,
)
from ..pipeline.backends import available_backends, get_backend
from ..pipeline.config import PipelineConfig

_SESSION_COUNTER = itertools.count(1)


def session_capable(backend_name: str) -> bool:
    """Whether serve sessions may run on *backend_name*.

    A session needs block-at-a-time streaming (the online SCF path) or
    batched trial execution (the coalescing scheduler path).  Only the
    literal ``reference`` oracle offers neither.
    """
    capabilities = get_backend(backend_name).capabilities
    return capabilities.supports_batch or capabilities.supports_streaming


def serve_backends() -> tuple[str, ...]:
    """Registered backends a serve session may use."""
    return tuple(
        name for name in available_backends() if session_capable(name)
    )


def require_serve_capable(config: PipelineConfig) -> None:
    """Reject configurations the serving layer cannot stream.

    Raises :class:`~repro.errors.ConfigurationError` when *config*
    names a backend that neither streams nor batches (the per-trial
    ``reference`` oracle): a live session would fall permanently behind
    its own stream.
    """
    if not session_capable(config.backend):
        raise ConfigurationError(
            f"backend {config.backend!r} is not serve-capable: a serve "
            f"session needs streaming (supports_streaming) or batched "
            f"(supports_batch) execution, and this backend offers "
            f"neither — choose one of {', '.join(serve_backends())}"
        )


class SensingSession:
    """One client's chunked sensing stream.

    Parameters
    ----------
    config:
        The per-decision operating point (K, N, hop, window, backend,
        pfa...).  Must be serve-capable — see
        :func:`require_serve_capable`.
    session_id:
        Optional external identifier; autogenerated (``s1``, ``s2``...)
        when omitted.
    """

    def __init__(
        self, config: PipelineConfig, session_id: str | None = None
    ) -> None:
        require_serve_capable(config)
        self.config = config
        self.session_id = (
            f"s{next(_SESSION_COUNTER)}" if session_id is None else str(session_id)
        )
        self._buffer = np.zeros(0, dtype=np.complex128)
        self._buffer_start = 0  # absolute stream index of buffer[0]
        # Chunks too short to complete a block park here (one copy
        # apiece) and flush into the contiguous buffer in a single
        # concatenate when a block can form — O(total samples)
        # ingestion even for a stream of tiny chunks, where a
        # concatenate-per-chunk buffer would cost O(chunks^2).
        self._pending: list[np.ndarray] = []
        self._pending_size = 0
        self._blocks = 0  # completed blocks consumed from the stream
        self._total_samples = 0
        self._scf = StreamingDSCF(
            config.fft_size, m=config.m, window_blocks=config.num_blocks
        )
        self._phase: np.ndarray | None = None  # lazy batch-phase table
        # Front-end constants of one window's worth of blocks; ingest
        # transforms at most that many at once.
        self._taper = get_window(config.window, config.fft_size)
        self._gather = block_gather(
            np.arange(config.num_blocks) * config.hop, config.fft_size
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (ingestion is rejected after)."""
        return self._closed

    @property
    def blocks_ingested(self) -> int:
        """Complete ``fft_size`` blocks consumed so far."""
        return self._blocks

    @property
    def total_samples(self) -> int:
        """Samples ever ingested (the unbounded stream position)."""
        return self._total_samples

    @property
    def ready(self) -> bool:
        """Whether a full N-block detection window is available."""
        return self._blocks >= self.config.num_blocks

    @property
    def scf(self) -> StreamingDSCF:
        """The online sliding-window accumulator (read-only use)."""
        return self._scf

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, samples: np.ndarray) -> dict:
        """Feed one chunk of the stream (any length, any chunking).

        Completed blocks are consumed as they form; the online SCF and
        the detection window advance identically no matter how the
        stream is split into chunks.  Returns a plain-data summary
        (``blocks``, ``ready``, ``total_samples``).
        """
        if self._closed:
            raise SessionStateError(
                f"session {self.session_id!r} is closed"
            )
        chunk = np.asarray(samples)
        if chunk.ndim != 1:
            raise ConfigurationError(
                f"ingest takes a 1-D chunk of samples, got shape "
                f"{chunk.shape}"
            )
        # astype copies, so the session never aliases caller memory.
        chunk = chunk.astype(np.complex128)
        if not np.isfinite(chunk).all():
            raise NonFiniteInputError(
                f"session {self.session_id!r}: ingest chunk holds NaN or "
                f"inf samples; the chunk was rejected and the session is "
                f"unchanged"
            )
        cfg = self.config
        if chunk.size:
            # The pending list defers the contiguous concatenate to
            # block completion.
            self._pending.append(chunk)
            self._pending_size += chunk.size
            self._total_samples += chunk.size
        # Consume every block now complete through bulk FFTs of at most
        # one window's worth of blocks each (a long chunk on a small hop
        # must not allocate chunk/hop x K temporaries at once).  The
        # ring stores un-phased spectra — each block its own time
        # reference, the natural convention for an unbounded stream —
        # bitwise equal to transforming the blocks one at a time.
        next_start = self._blocks * cfg.hop
        available = self._buffer_start + self._buffer.size + self._pending_size
        if next_start + cfg.fft_size <= available:
            self._flush_pending()
            remaining = (available - next_start - cfg.fft_size) // cfg.hop + 1
            while remaining:
                count = min(remaining, cfg.num_blocks)
                low = next_start - self._buffer_start
                span = (count - 1) * cfg.hop + cfg.fft_size
                spectra = framed_spectra(
                    self._buffer[None, low : low + span],
                    self._gather[:count],
                    self._taper,
                )[0]
                for spectrum in spectra:
                    self._scf.update(spectrum)
                self._blocks += count
                next_start += count * cfg.hop
                remaining -= count
            # Trim everything no decision can reach any more: samples
            # before both the next unconsumed block and the current
            # detection window's start.
            keep_from = min(next_start, self._window_start())
            if keep_from > self._buffer_start:
                self._buffer = self._buffer[keep_from - self._buffer_start :]
                self._buffer_start = keep_from
        return {
            "session": self.session_id,
            "blocks": self._blocks,
            "ready": self.ready,
            "total_samples": self._total_samples,
        }

    def _flush_pending(self) -> None:
        """Concatenate parked chunks into the contiguous buffer."""
        if self._pending:
            self._buffer = np.concatenate([self._buffer, *self._pending])
            self._pending.clear()
            self._pending_size = 0

    def _window_start(self) -> int:
        """Absolute index of the detection window's first sample."""
        return max(0, self._blocks - self.config.num_blocks) * self.config.hop

    def window_samples(self) -> np.ndarray:
        """The raw samples spanning the last N completed blocks.

        This is exactly the observation an offline
        :class:`~repro.pipeline.DetectionPipeline` would be handed, so
        detection on it is bitwise comparable to the batch run.
        """
        if not self.ready:
            raise SessionStateError(
                f"session {self.session_id!r} has {self._blocks} complete "
                f"block(s); a detection window needs "
                f"{self.config.num_blocks}"
            )
        low = self._window_start() - self._buffer_start
        return self._buffer[
            low : low + self.config.samples_per_decision
        ].copy()

    def window_spectra(self) -> np.ndarray:
        """The window's block spectra in the batch phase convention.

        The online SCF ring stores each block's un-phased centered FFT
        (the block itself is the time reference — the natural
        convention for an unbounded stream); the offline batch path
        references every block to the window start (expression 2's
        absolute-time phase).  This applies the batch phase table
        row-wise on the way out of the ring — the one multiply the
        offline front end makes — so the returned ``(N, K)`` array is
        **bitwise equal**, signed zeros included, to
        ``BatchExecutionPlan.block_spectra(window_samples()[None])[0]``
        — without re-blocking or a single FFT.  It is the input of the
        serving layer's session-resident detection fast path
        (``serve_path="spectra"``), which is what makes fast-path
        statistics bitwise identical to the offline
        :class:`~repro.pipeline.DetectionPipeline`.
        """
        if not self.ready:
            raise SessionStateError(
                f"session {self.session_id!r} has {self._blocks} complete "
                f"block(s); a detection window needs "
                f"{self.config.num_blocks}"
            )
        return self._scf.window_spectra(phase=self._batch_phase())

    def _batch_phase(self) -> np.ndarray:
        """The cached ring-to-batch phase table.

        The :class:`~repro.engine.plans.BatchExecutionPlan` phase table
        (:func:`~repro.core.fourier.phase_table` at window-relative
        block starts), fftshifted along the frequency axis because the
        ring holds *centered* spectra — an elementwise multiply
        commutes with the permutation.
        """
        if self._phase is None:
            cfg = self.config
            starts = np.arange(cfg.num_blocks) * cfg.hop
            self._phase = np.fft.fftshift(
                phase_table(starts, cfg.fft_size), axes=1
            )
        return self._phase

    def scf_result(self) -> DSCFResult:
        """The live sliding-window DSCF over the most recent blocks."""
        return self._scf.result(sample_rate_hz=self.config.sample_rate_hz)

    def close(self) -> None:
        """Mark the session closed; further ingestion raises."""
        self._closed = True

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """An exact (bitwise) checkpoint of the whole session.

        Owns copies of every array; restore with :meth:`from_state`
        (the configuration itself travels separately — it is already
        the service's source of truth).  Parked pending chunks flush
        into the buffer first, so the checkpoint format is unchanged:
        ``buffer`` holds every unconsumed sample.
        """
        self._flush_pending()
        return {
            "session_id": self.session_id,
            "buffer": self._buffer.copy(),
            "buffer_start": self._buffer_start,
            "blocks": self._blocks,
            "total_samples": self._total_samples,
            "scf": self._scf.state(),
        }

    @classmethod
    def from_state(
        cls, config: PipelineConfig, state: dict
    ) -> "SensingSession":
        """Rebuild a session from a :meth:`state` checkpoint.

        Every subsequent ingest/detect is bitwise identical to what the
        checkpointed session would have produced.
        """
        try:
            session = cls(config, session_id=state["session_id"])
            session._buffer = np.asarray(
                state["buffer"], dtype=np.complex128
            ).copy()
            session._buffer_start = int(state["buffer_start"])
            session._blocks = int(state["blocks"])
            session._total_samples = int(state["total_samples"])
            session._scf = StreamingDSCF.from_state(state["scf"])
        except KeyError as error:
            raise ConfigurationError(
                f"SensingSession state is missing field {error}"
            ) from None
        if (
            session._scf.fft_size != config.fft_size
            or session._scf.m != config.m
            or session._scf.window_blocks != config.num_blocks
        ):
            raise ConfigurationError(
                "SensingSession state does not match the configuration: "
                f"checkpointed SCF is K={session._scf.fft_size}, "
                f"m={session._scf.m}, window={session._scf.window_blocks}; "
                f"config wants K={config.fft_size}, m={config.m}, "
                f"window={config.num_blocks}"
            )
        return session
