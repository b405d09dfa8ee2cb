"""Pd-vs-SNR ROC sweep on the paper's SoC platform model — compiled.

A Monte-Carlo detection-probability sweep needs hundreds of DSCF
estimates; on the instruction-level interpreter the paper's own
platform (4 Montium tiles, K = 256, 127 x 127) manages only a few
estimates per second, which made this exact experiment impractical.
The trace-compiled engine (``PipelineConfig(soc_compiled=True)``,
see ``repro.montium.compiler``) replays the *same cycle-exact
platform* — bit-identical DSCF values, cycle tables and energy — as
vectorised NumPy, so the full sweep now runs in seconds.

The sweep characterises the detector the paper's hardware would
implement: a BPSK licensed user in AWGN, sensed at the paper's
operating point, with the detection threshold Monte-Carlo calibrated
at a fixed false-alarm rate.

Run:  python examples/soc_roc_sweep.py
"""

import time

import numpy as np

from repro.engine import Engine
from repro.montium.timing import MONTIUM_CLOCK_HZ
from repro.pipeline import PipelineConfig
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn
from repro.soc import SoCRunner, aaf_drbpf

NUM_BLOCKS = 16
TRIALS = 32
PFA = 0.1
SNRS_DB = [-12.0, -9.0, -6.0, -3.0, 0.0, 3.0]
SAMPLES_PER_SYMBOL = 8


def main() -> None:
    platform = aaf_drbpf()
    config = PipelineConfig(
        fft_size=platform.fft_size,
        num_blocks=NUM_BLOCKS,
        m=platform.m,
        backend="soc",
        soc_tiles=platform.num_tiles,
        soc_compiled=True,
        pfa=PFA,
    )
    samples_needed = config.samples_per_decision
    print(
        f"platform: {platform.num_tiles} Montium tiles @ "
        f"{platform.clock_hz / 1e6:.0f} MHz, K = {platform.fft_size}, "
        f"f, a in [-{platform.m}, {platform.m}] "
        f"({platform.extent} x {platform.extent} DSCF)"
    )
    print(
        f"sweep: {len(SNRS_DB)} SNR points x {TRIALS} trials "
        f"(+ {TRIALS} calibration trials), N = {NUM_BLOCKS} blocks "
        f"per decision\n"
    )

    def h0_factory(trial: int) -> np.ndarray:
        return awgn(samples_needed, power=1.0, seed=1_000 + trial)

    def h1_factory(snr_db: float, trial: int) -> np.ndarray:
        noise = awgn(samples_needed, power=1.0, seed=2_000 + trial)
        user = bpsk_signal(
            samples_needed,
            1e6,
            samples_per_symbol=SAMPLES_PER_SYMBOL,
            seed=3_000 + trial,
        )
        amplitude = float(np.sqrt(10.0 ** (snr_db / 10.0)))
        return noise + amplitude * user.samples

    engine = Engine()
    started = time.perf_counter()
    engine.plan(config)  # compiles the trace (one-off)
    compile_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sweep = engine.map_operating_points(
        h0_factory,
        h1_factory,
        SNRS_DB,
        config=config,
        pfa=PFA,
        trials=TRIALS,
        detector_name="cyclostationary/soc-compiled",
    )
    sweep_seconds = time.perf_counter() - started

    print(f"  SNR (dB)    Pd @ Pfa = {PFA:.2f}")
    for point in sweep.points:
        bar = "#" * int(round(point.pd * 30))
        print(f"  {point.snr_db:+7.1f}    {point.pd:5.2f}  {bar}")
    print(f"\nsensitivity: Pd = 0.9 at {sweep.snr_for_pd(0.9):+.1f} dB SNR")

    # One compiled platform run for the paper's timing figures, plus a
    # projection of what the interpreter would have cost for the sweep.
    compiled_runner = SoCRunner(platform, compiled=True)
    run = compiled_runner.run(h0_factory(0), NUM_BLOCKS)
    print(
        f"\nplatform timing (cycle-exact): {run.cycles_per_step} "
        f"cycles/step = {run.step_time_us:.2f} us at "
        f"{MONTIUM_CLOCK_HZ / 1e6:.0f} MHz, analysed bandwidth "
        f"{run.analysed_bandwidth_hz / 1e3:.0f} kHz"
    )

    total_estimates = (len(SNRS_DB) + 1) * TRIALS
    interpreter = SoCRunner(platform)
    started = time.perf_counter()
    interpreter.run(h0_factory(0), 1)
    interpreted_per_block = time.perf_counter() - started
    projected = interpreted_per_block * NUM_BLOCKS * total_estimates
    print(
        f"\nwall-clock: sweep ran {total_estimates} platform estimates in "
        f"{sweep_seconds:.2f} s compiled (+ {compile_seconds:.2f} s one-off "
        f"trace compile); the interpreter would need ~{projected / 60:.1f} "
        "minutes for the same sweep"
    )


if __name__ == "__main__":
    main()
