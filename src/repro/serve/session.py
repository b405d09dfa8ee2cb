"""Serve sessions: chunked ingestion of unbounded per-client streams.

A :class:`SensingSession` is the per-client state of the sensing
service: raw samples arrive in arbitrarily-sized chunks (network
packets, SDR driver buffers), the session re-blocks them on the
configured ``(fft_size, hop)`` lattice, and two views stay current:

* a **spectra ring** — one ``(N, K)`` complex128 array holding the
  un-phased centered FFT of each of the last N completed blocks
  (block ``b`` in row ``b % N``);
* a **detection window** — the raw samples spanning those N blocks,
  exactly the observation an offline
  :class:`~repro.pipeline.DetectionPipeline` would consume.  Detection
  requests hand this window to the service's coalescing scheduler, so
  every decision is **bitwise identical** to the equivalent offline
  batch run no matter how the stream was chunked or which requests
  shared the engine batch.

The ring is the serving layer's **spectra-reuse fast path**:
:meth:`SensingSession.window_spectra` applies the offline batch phase
as it reorders the rows oldest-first (bitwise equal to re-running the
block-FFT front end on the window, signed zeros included), so a
``serve_path="spectra"`` detect skips re-blocking and the N-block FFT
sweep entirely while producing bit-for-bit the engine path's
statistic.  :meth:`SensingSession.scf_result` is the DSCF of those
spectra: the offline DSCF of the detection window.

Ingestion is O(total samples) regardless of chunking: chunks too short
to complete a block park in a pending list and flush into the
contiguous buffer only when a block can form, so a stream of tiny
chunks never degenerates into concatenate-per-chunk O(chunks^2).
Of the blocks a chunk completes, only the last N (the ones the ring
keeps) go through the shared
:func:`~repro.core.fourier.framed_spectra` front end, in one bulk FFT
(bounded memory for any chunk length), bitwise equal to transforming
the blocks one at a time; the slab lands in the ring with at most two
slice assignments, and the buffer keeps only the samples from the new
detection window's start on.  A chunk holding NaN
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

from .._util import require, require_non_negative_int
from ..core.fourier import block_gather, framed_spectra, phase_table
from ..core.scf import DSCFResult, compute_dscf
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

    A session needs block-at-a-time streaming or batched trial
    execution (the coalescing scheduler path).  Only the literal
    ``reference`` oracle offers neither.
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
        # Un-phased centered spectrum of block b in row b % N.
        self._ring = np.zeros(
            (config.num_blocks, config.fft_size), dtype=np.complex128
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

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, samples: np.ndarray) -> dict:
        """Feed one chunk of the stream (any length, any chunking).

        Completed blocks are consumed as they form; the spectra ring
        and the detection window advance identically no matter how the
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
        # Consume every block now complete.  Only the last N of them
        # reach the ring (a long chunk's earlier blocks would be
        # overwritten within this call), so only those are transformed,
        # in one bulk FFT of at most N blocks, and only the samples from
        # the detection window's new start on are kept: the flush
        # never copies what no block or window can reach (a window-
        # sized chunk drops the previous window without copying it).
        # The ring stores un-phased spectra — each block its own time
        # reference, the natural convention for an unbounded stream —
        # bitwise equal to transforming the blocks one at a time.
        available = self._buffer_start + self._buffer.size + self._pending_size
        if self._blocks * cfg.hop + cfg.fft_size <= available:
            blocks = (available - cfg.fft_size) // cfg.hop + 1
            first = max(self._blocks, blocks - cfg.num_blocks)
            self._flush_pending(max(0, blocks - cfg.num_blocks) * cfg.hop)
            count = blocks - first
            low = first * cfg.hop - self._buffer_start
            span = (count - 1) * cfg.hop + cfg.fft_size
            spectra = framed_spectra(
                self._buffer[None, low : low + span],
                self._gather[:count],
                self._taper,
            )[0]
            row = first % cfg.num_blocks
            head = min(count, cfg.num_blocks - row)
            self._ring[row : row + head] = spectra[:head]
            self._ring[: count - head] = spectra[head:]
            self._blocks = blocks
        return {
            "session": self.session_id,
            "blocks": self._blocks,
            "ready": self.ready,
            "total_samples": self._total_samples,
        }

    def _flush_pending(self, keep_from: int = 0) -> None:
        """Concatenate parked chunks into the contiguous buffer, keeping
        only the samples from absolute index *keep_from* on.

        Whole parts before *keep_from* are skipped, not copied, and a
        buffer left with a single part is a view of that part (each
        parked chunk is already the session's own copy).
        """
        parts = [self._buffer, *self._pending]
        start = self._buffer_start
        while len(parts) > 1 and start + parts[0].size <= keep_from:
            start += parts.pop(0).size
        if keep_from > start:
            parts[0] = parts[0][keep_from - start :]
            start = keep_from
        self._buffer = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self._buffer_start = start
        self._pending.clear()
        self._pending_size = 0

    def _window_start(self) -> int:
        """Absolute index of the detection window's first sample."""
        return max(0, self._blocks - self.config.num_blocks) * self.config.hop

    def _require_ready(self) -> None:
        if not self.ready:
            raise SessionStateError(
                f"session {self.session_id!r} has {self._blocks} complete "
                f"block(s); a detection window needs "
                f"{self.config.num_blocks}"
            )

    def window_samples(self) -> np.ndarray:
        """The raw samples spanning the last N completed blocks.

        This is exactly the observation an offline
        :class:`~repro.pipeline.DetectionPipeline` would be handed, so
        detection on it is bitwise comparable to the batch run.
        """
        self._require_ready()
        low = self._window_start() - self._buffer_start
        return self._buffer[
            low : low + self.config.samples_per_decision
        ].copy()

    def window_spectra(self) -> np.ndarray:
        """The window's block spectra in the batch phase convention.

        The ring stores each block's un-phased centered FFT (the block
        itself is the time reference — the natural convention for an
        unbounded stream); the offline batch path references every
        block to the window start (expression 2's absolute-time phase).
        This applies the batch phase table row-wise as it copies the
        ring out oldest-first — the one multiply the offline front end
        makes — so the returned ``(N, K)`` array is **bitwise equal**,
        signed zeros included, to
        ``BatchExecutionPlan.block_spectra(window_samples()[None])[0]``
        — without re-blocking or a single FFT.  It is the input of the
        serving layer's session-resident detection fast path
        (``serve_path="spectra"``), which is what makes fast-path
        statistics bitwise identical to the offline
        :class:`~repro.pipeline.DetectionPipeline`.
        """
        self._require_ready()
        phase = self._batch_phase()
        oldest = self._blocks % self.config.num_blocks
        head = self.config.num_blocks - oldest
        out = np.empty_like(self._ring)
        np.multiply(self._ring[oldest:], phase[:head], out=out[:head])
        np.multiply(self._ring[:oldest], phase[head:], out=out[head:])
        return out

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
        """The DSCF of the detection window.

        Bitwise equal to :func:`~repro.core.scf.dscf` over the offline
        block spectra of :meth:`window_samples`.
        """
        return compute_dscf(
            self.window_spectra(),
            m=self.config.m,
            sample_rate_hz=self.config.sample_rate_hz,
        )

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
        into the buffer first, so ``buffer`` holds every unconsumed
        sample.
        """
        self._flush_pending()
        return {
            "session_id": self.session_id,
            "buffer": self._buffer.copy(),
            "buffer_start": self._buffer_start,
            "blocks": self._blocks,
            "total_samples": self._total_samples,
            "ring": self._ring.copy(),
        }

    @classmethod
    def from_state(
        cls, config: PipelineConfig, state: dict
    ) -> "SensingSession":
        """Rebuild a session from a :meth:`state` checkpoint.

        Every subsequent ingest/detect is bitwise identical to what the
        checkpointed session would have produced.  A state that does
        not fit *config*, or whose counters contradict each other or
        the buffer, raises :class:`~repro.errors.ConfigurationError`.
        """
        try:
            session = cls(config, session_id=state["session_id"])
            buffer = np.asarray(state["buffer"], dtype=np.complex128)
            ring = np.asarray(state["ring"], dtype=np.complex128)
            buffer_start = require_non_negative_int(
                state["buffer_start"], "buffer_start"
            )
            blocks = require_non_negative_int(state["blocks"], "blocks")
            total = require_non_negative_int(
                state["total_samples"], "total_samples"
            )
        except KeyError as error:
            raise ConfigurationError(
                f"SensingSession state is missing field {error}"
            ) from None
        require(
            ring.shape == session._ring.shape,
            f"SensingSession state ring has shape {ring.shape}; the "
            f"configuration wants {session._ring.shape}",
        )
        require(
            buffer.ndim == 1 and buffer_start + buffer.size == total,
            f"SensingSession state buffer of {buffer.size} sample(s) at "
            f"{buffer_start} does not end at total_samples={total}",
        )
        complete = max(0, (total - config.fft_size) // config.hop + 1)
        require(
            blocks == complete,
            f"SensingSession state has blocks={blocks}, but {total} "
            f"samples hold {complete} complete block(s)",
        )
        session._blocks = blocks
        require(
            buffer_start <= session._window_start(),
            f"SensingSession state buffer starts at {buffer_start}, after "
            f"the detection window start {session._window_start()}",
        )
        session._buffer = buffer.copy()
        session._buffer_start = buffer_start
        session._total_samples = total
        session._ring[...] = ring
        return session
