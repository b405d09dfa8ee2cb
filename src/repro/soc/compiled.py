"""The trace-compiled SoC execution engine.

:class:`CompiledSoC` is the fast-path drop-in for
:class:`~repro.soc.tile_grid.TiledSoC`: it replays the
:class:`~repro.montium.compiler.MontiumTrace` of its platform
configuration as vectorised NumPy operations instead of interpreting
the instruction streams, while reporting **identical** DSCF values
(bit for bit, float and q15), identical per-tile cycle tables,
identical link-transfer statistics and identical activity-based energy
— cycles and energy become O(1) arithmetic on the recorded per-block
activity instead of per-cycle increments.

:class:`CompiledSoCPlan` is the batched Monte-Carlo executor the
``soc`` pipeline backend hands to the execution engine when
``PipelineConfig.soc_compiled`` is set — it conforms to the
:class:`repro.engine.plans.TrialExecutor` protocol (``dscf_exact``
flavour), so :class:`~repro.engine.plans.BatchExecutionPlan`
dispatches whole trial sets through one vectorised replay, with each
trial bit-for-bit equal to a stand-alone run.  Instances are cached by
the backend's :class:`~repro.engine.cache.PlanCache` — compiling a
schedule interprets the platform's full instruction stream, so cache
hits here dominate the engine benchmark's plan-cache speedup
(``BENCH_engine.json``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..montium.compiler import (
    MontiumTrace,
    accumulate_products,
    accumulators_complex,
    compile_platform,
    replay_accumulators,
    replay_block_products,
    replay_dscf_values,
    zero_accumulators,
)
from ..montium.energy import (
    BASELINE_PER_CYCLE_PJ,
    ENERGY_PER_ADD_PJ,
    ENERGY_PER_MEMORY_ACCESS_PJ,
    ENERGY_PER_MULTIPLY_PJ,
    EnergyReport,
)
from ..montium.timing import CycleCounter
from .config import PlatformConfig


class CompiledSoC:
    """Vectorised cycle-exact replay of a compiled platform.

    Exposes the :class:`~repro.soc.tile_grid.TiledSoC` surface the
    :class:`~repro.soc.runner.SoCRunner` drives — ``reset`` /
    ``integrate_block`` / ``dscf_values`` / ``cycle_tables`` /
    ``link_transfer_counts`` — so the runner works unchanged on either
    engine.
    """

    def __init__(
        self, config: PlatformConfig, trace: MontiumTrace | None = None
    ) -> None:
        if not isinstance(config, PlatformConfig):
            raise ConfigurationError("config must be a PlatformConfig")
        self.config = config
        self.trace = trace if trace is not None else compile_platform(config)
        self._accumulator = zero_accumulators(self.trace)
        self._blocks_integrated = 0
        self._readouts = 0

    @property
    def num_tiles(self) -> int:
        """Instantiated (used) tiles of the replayed platform."""
        return self.trace.used_tiles

    @property
    def blocks_integrated(self) -> int:
        """Integration steps replayed since the last reset."""
        return self._blocks_integrated

    def reset(self) -> None:
        """Clear accumulators and counters (re-arms the trace replay)."""
        self._accumulator = zero_accumulators(self.trace)
        self._blocks_integrated = 0
        self._readouts = 0

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def integrate_block(self, samples: np.ndarray) -> None:
        """Replay one integration step (one n of expression 3)."""
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.shape != (self.config.fft_size,):
            raise ConfigurationError(
                f"block must have shape ({self.config.fft_size},), got "
                f"{samples.shape}"
            )
        products = replay_block_products(self.trace, samples)
        self._accumulator = accumulate_products(
            self.trace, self._accumulator, products
        )
        self._blocks_integrated += 1

    def integrate_blocks(self, blocks: np.ndarray) -> None:
        """Replay N integration steps from an ``(N, K)`` block array."""
        blocks = np.asarray(blocks, dtype=np.complex128)
        if blocks.ndim != 2 or blocks.shape[1] != self.config.fft_size:
            raise ConfigurationError(
                f"blocks must have shape (N, {self.config.fft_size}), got "
                f"{blocks.shape}"
            )
        for block in blocks:
            self.integrate_block(block)

    # ------------------------------------------------------------------
    # Result assembly (TiledSoC-parity surfaces)
    # ------------------------------------------------------------------
    def accumulator_values(self) -> np.ndarray:
        """Global ``(F, P)`` raw accumulator sums (all task columns)."""
        return accumulators_complex(self.trace, self._accumulator)

    def tile_accumulator_values(self, core_index: int) -> np.ndarray:
        """One tile's ``(F, T)`` accumulators, padded slots zero —
        exactly what the interpreter tile's ``accumulator_values()``
        reads back."""
        trace = self.trace
        if not 0 <= core_index < trace.used_tiles:
            raise ConfigurationError(
                f"core_index must be in [0, {trace.used_tiles - 1}], got "
                f"{core_index}"
            )
        tasks = list(trace.tile_tasks(core_index))
        values = np.zeros(
            (trace.extent, trace.tasks_per_core), dtype=np.complex128
        )
        values[:, : len(tasks)] = self.accumulator_values()[:, tasks]
        return values

    def dscf_values(self) -> np.ndarray:
        """The averaged DSCF, indexed ``[f + M, a + M]`` — bit-for-bit
        equal to the interpreting :class:`TiledSoC`'s assembly.

        Each call is accounted as one result readout in
        :meth:`energy_reports` (the interpreter's assembly reads every
        accumulator from the integration memories).
        """
        if self._blocks_integrated == 0:
            raise ConfigurationError("no blocks integrated yet")
        self._readouts += 1
        scale = 1.0 / (self.trace.spectrum_scale**2)
        return self.accumulator_values() * scale / self._blocks_integrated

    # ------------------------------------------------------------------
    # Cycle / energy / communication accounting (O(1) on trace length)
    # ------------------------------------------------------------------
    def cycle_counters(self) -> list:
        """Per-tile :class:`~repro.montium.timing.CycleCounter` replicas."""
        counters = []
        for activity in self.trace.activities:
            counter = CycleCounter()
            if self._blocks_integrated:
                for category, cycles in activity.cycles:
                    counter.add(category, cycles * self._blocks_integrated)
            counters.append(counter)
        return counters

    def cycle_tables(self) -> list:
        """Per-tile (category, cycles) rows."""
        return [counter.table_rows() for counter in self.cycle_counters()]

    def link_transfer_counts(self) -> dict:
        """Transfers per link since the last reset."""
        return {
            key: count * self._blocks_integrated
            for key, count in self.trace.link_transfers_per_block
        }

    def instructions_executed(self) -> list:
        """Per-tile instruction counts the interpreter would have run."""
        return [
            activity.instructions * self._blocks_integrated
            for activity in self.trace.activities
        ]

    def energy_reports(self) -> list:
        """Per-tile activity-based energy, identical to running
        :func:`repro.montium.energy.estimate_energy` on the
        interpreter's tiles after the same blocks."""
        blocks = self._blocks_integrated
        reports = []
        for activity in self.trace.activities:
            memory_accesses = (
                activity.reset_writes
                + blocks * (activity.memory_reads + activity.memory_writes)
                + self._readouts * activity.readout_reads
            )
            real_multiplies = 4 * blocks * activity.alu_multiplies
            real_adds = 2 * blocks * activity.alu_multiplies + 2 * blocks * activity.alu_adds
            cycles = blocks * activity.cycles_per_block
            reports.append(
                EnergyReport(
                    memory_accesses=memory_accesses,
                    multiplications=real_multiplies,
                    additions=real_adds,
                    cycles=cycles,
                    memory_energy_pj=memory_accesses * ENERGY_PER_MEMORY_ACCESS_PJ,
                    alu_energy_pj=(
                        real_multiplies * ENERGY_PER_MULTIPLY_PJ
                        + real_adds * ENERGY_PER_ADD_PJ
                    ),
                    baseline_energy_pj=cycles * BASELINE_PER_CYCLE_PJ,
                )
            )
        return reports


class CompiledSoCPlan:
    """Batched Monte-Carlo executor for the compiled ``soc`` backend.

    The hook :class:`~repro.engine.plans.BatchExecutionPlan` dispatches through
    when the configured backend is ``soc`` and
    ``PipelineConfig.soc_compiled`` is set.  ``dscf_exact`` marks the
    plan as producing exact expression-3 complex values on the
    ``(f, a)`` grid (unlike the full-plane FAM/SSCA plans, which bin
    magnitudes), so the plan keeps its DSCF semantics — coherence
    normalisation, searched columns, thresholding — unchanged.
    """

    #: Exact complex DSCF values — the batch plan uses :meth:`values`.
    dscf_exact = True

    def __init__(self, config) -> None:
        if config.hop != config.fft_size:
            raise ConfigurationError(
                "the soc backend requires non-overlapping blocks "
                f"(hop == fft_size), got hop={config.hop}"
            )
        if config.window != "rectangular":
            raise ConfigurationError(
                "the soc backend computes rectangular-window spectra, got "
                f"window={config.window!r}"
            )
        self.platform = PlatformConfig(
            num_tiles=config.soc_tiles,
            fft_size=config.fft_size,
            m=config.m,
        )
        self.trace = compile_platform(self.platform)
        self._num_blocks = config.num_blocks
        self._trial_chunk = config.trial_chunk

    @property
    def averaging_length(self) -> int:
        """Blocks averaged per decision (the pipeline's N)."""
        return self._num_blocks

    def values(self, signals: np.ndarray) -> np.ndarray:
        """Batched DSCF values, shape ``(trials, 2M+1, 2M+1)`` complex.

        Each trial's slice is bit-for-bit what the compiled runner —
        and therefore the interpreter — computes for that trial alone.
        """
        signals = np.asarray(signals, dtype=np.complex128)
        if signals.ndim != 2:
            raise ConfigurationError(
                f"signals must be a (trials, samples) array, got shape "
                f"{signals.shape}"
            )
        fft_size = self.trace.fft_size
        needed = self._num_blocks * fft_size
        if signals.shape[1] < needed:
            raise ConfigurationError(
                f"each trial needs {needed} samples for {self._num_blocks} "
                f"blocks of {fft_size}, got {signals.shape[1]}"
            )
        trials = signals.shape[0]
        blocks = signals[:, :needed].reshape(trials, self._num_blocks, fft_size)
        extent = self.trace.extent
        values = np.empty((trials, extent, extent), dtype=np.complex128)
        for start in range(0, trials, self._trial_chunk):
            stop = start + self._trial_chunk
            values[start:stop] = replay_dscf_values(self.trace, blocks[start:stop])
        return values

    def magnitudes(self, signals: np.ndarray) -> np.ndarray:
        """``|S_f^a|`` per trial (API parity with the estimator plans)."""
        return np.abs(self.values(signals))


def replay_tile_accumulators(
    trace: MontiumTrace, core_index: int, blocks: np.ndarray
) -> np.ndarray:
    """One tile's ``(F, T)`` accumulators after replaying *blocks*.

    The per-tile work unit of the compiled multiprocessing emulation:
    only the tile's own task columns are gathered, padded slots stay
    zero, and the result equals the interpreter tile's
    ``accumulator_values()`` bit for bit.
    """
    tasks = np.asarray(list(trace.tile_tasks(core_index)), dtype=np.int64)
    partial = replay_accumulators(trace, blocks, tasks=tasks)
    values = np.zeros((trace.extent, trace.tasks_per_core), dtype=np.complex128)
    values[:, : tasks.size] = partial
    return values
