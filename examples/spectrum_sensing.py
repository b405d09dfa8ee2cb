"""Cognitive-radio spectrum sensing: CFD vs the energy detector.

The motivating scenario of the paper's AAF project: decide whether a
band is occupied by a licensed user.  This example shows why the
computationally expensive CFD earns its keep — with a realistic noise-
calibration uncertainty the energy detector hits an SNR wall, while
the cyclostationary detector (whose statistic is independent of the
absolute noise level) keeps detecting.

The CFD side runs through the detection pipeline: one
``PipelineConfig`` drives estimation, batched Monte-Carlo statistics
(every hypothesis sweep is a single vectorised pass through the
pipeline's ``Engine``) and the final sensing decision.

Run:  python examples/spectrum_sensing.py
"""

import numpy as np

from repro import DetectionPipeline, EnergyDetector, PipelineConfig
from repro.analysis import roc_curve
from repro.engine import CallableStatisticPlan
from repro.signals.scenario import BandScenario, LicensedUser

SAMPLE_RATE_HZ = 1e6
FFT_SIZE = 32
NUM_BLOCKS = 48
TRIALS = 40
PFA = 0.1
SNR_DB = -3.0
NOISE_UNCERTAINTY_DB = 1.0


def make_scenario(snr_db: float) -> BandScenario:
    return BandScenario(
        sample_rate_hz=SAMPLE_RATE_HZ,
        noise_power=1.0,
        users=[
            LicensedUser(
                name="licensed-tv",
                modulation="bpsk",
                samples_per_symbol=4,
                carrier_offset_hz=0.0,
                snr_db=snr_db,
            )
        ],
    )


def main() -> None:
    scenario = make_scenario(SNR_DB)
    pipeline = DetectionPipeline(
        PipelineConfig(
            fft_size=FFT_SIZE,
            num_blocks=NUM_BLOCKS,
            pfa=PFA,
            calibration_trials=TRIALS,
            sample_rate_hz=SAMPLE_RATE_HZ,
        )
    )
    num_samples = pipeline.config.samples_per_decision
    energy = EnergyDetector(
        noise_power=1.0,
        num_samples=num_samples,
        noise_uncertainty_db=NOISE_UNCERTAINTY_DB,
    )

    print(
        f"band: BPSK licensed user at {SNR_DB:+.1f} dB SNR, "
        f"{NUM_BLOCKS} blocks of {FFT_SIZE} samples per decision"
    )
    print(
        f"energy detector suffers {NOISE_UNCERTAINTY_DB} dB noise "
        "uncertainty; CFD needs no noise calibration\n"
    )

    # Monte-Carlo statistics under both hypotheses.  The CFD statistics
    # run batched: all trials in one vectorised pipeline pass.
    def h0(trial: int) -> np.ndarray:
        return scenario.noise_only(num_samples, seed=1000 + trial).samples

    def h1(trial: int) -> np.ndarray:
        signal, _ = scenario.realize(num_samples, seed=2000 + trial)
        return signal.samples

    engine, config = pipeline.engine, pipeline.config
    cfd_h0 = engine.monte_carlo_statistics(h0, TRIALS, config=config)
    cfd_h1 = engine.monte_carlo_statistics(h1, TRIALS, config=config)
    energy_plan = CallableStatisticPlan(energy.statistic)
    energy_h0 = engine.monte_carlo_statistics(h0, TRIALS, plan=energy_plan)
    energy_h1 = engine.monte_carlo_statistics(h1, TRIALS, plan=energy_plan)

    cfd_curve = roc_curve(cfd_h0, cfd_h1)
    energy_curve = roc_curve(energy_h0, energy_h1)
    print(f"CFD     ROC area: {cfd_curve.area():.3f}   "
          f"Pd @ Pfa={PFA}: {cfd_curve.pd_at_pfa(PFA):.2f}")
    print(f"energy  ROC area: {energy_curve.area():.3f}   "
          f"Pd @ Pfa={PFA}: {energy_curve.pd_at_pfa(PFA):.2f}")

    # The energy detector's *deployed* threshold must respect its noise
    # uncertainty, which is what creates the SNR wall:
    deployed_threshold = energy.threshold_for_pfa(PFA)
    missed = float(np.mean(energy_h1 <= deployed_threshold))
    print(
        f"\nwith the uncertainty-inflated threshold the energy detector "
        f"misses {100 * missed:.0f}% of occupied-band trials"
    )

    cfd_threshold = pipeline.calibrate(noise_factory=h0)
    detected = float(np.mean(cfd_h1 > cfd_threshold))
    print(
        f"CFD at the same Pfa detects {100 * detected:.0f}% of "
        "occupied-band trials"
    )

    # Single end-to-end sensing decision: both detectors judge the
    # *same* fresh realisation.
    example, occupancy = scenario.realize(num_samples, seed=7)
    print("\nsingle sensing decision on a fresh realisation:")
    print(f"  {pipeline.detect(example)}")
    print(f"  {energy.detect(example, pfa=PFA)}")
    print(f"  ground truth: {'OCCUPIED' if occupancy.occupied else 'vacant'}")


if __name__ == "__main__":
    main()
