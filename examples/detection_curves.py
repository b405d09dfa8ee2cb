"""Detection-probability curves: Pd vs SNR for CFD and energy sensing.

Produces the classic sensing characterisation over an SNR sweep and
reports each detector's sensitivity (the SNR needed for Pd = 0.9 at
Pfa = 0.1), with and without noise-level uncertainty.

Every sweep runs through ``Engine.map_operating_points``: the CFD
sweeps on the configuration's batched plan (each (SNR, hypothesis)
point evaluates all of its Monte-Carlo trials in one vectorised pass),
the energy detector as a per-trial ``CallableStatisticPlan``.

Run:  python examples/detection_curves.py
"""

import numpy as np

from repro import EnergyDetector, Engine, PipelineConfig, awgn, bpsk_signal
from repro.engine import CallableStatisticPlan

FFT_SIZE = 32
NUM_BLOCKS = 64
TRIALS = 40
PFA = 0.1
SNRS_DB = (-12.0, -9.0, -6.0, -3.0, 0.0)
UNCERTAINTY_DB = 2.0

CONFIG = PipelineConfig(fft_size=FFT_SIZE, num_blocks=NUM_BLOCKS, pfa=PFA)
ENGINE = Engine()


def make_factories(uncertain: bool):
    num_samples = CONFIG.samples_per_decision

    def noise_power(rng):
        if not uncertain:
            return 1.0
        return float(10.0 ** (rng.uniform(-UNCERTAINTY_DB, UNCERTAINTY_DB) / 10.0))

    def h0(trial):
        rng = np.random.default_rng(5000 + trial)
        return awgn(num_samples, power=noise_power(rng), rng=rng)

    def h1(snr_db, trial):
        rng = np.random.default_rng(6000 + trial)
        noise = awgn(num_samples, power=noise_power(rng), rng=rng)
        user = bpsk_signal(num_samples, 1e6, samples_per_symbol=4, rng=rng)
        return noise + 10 ** (snr_db / 20.0) * user.samples

    return h0, h1


def run_sweep(name, uncertain, statistic_fn=None):
    """Sweep the CFD on CONFIG's plan, or *statistic_fn* per trial."""
    h0, h1 = make_factories(uncertain)
    source = (
        dict(config=CONFIG)
        if statistic_fn is None
        else dict(plan=CallableStatisticPlan(statistic_fn))
    )
    return ENGINE.map_operating_points(
        h0, h1, SNRS_DB, pfa=PFA, trials=TRIALS, detector_name=name,
        **source,
    )


def print_sweep(sweep):
    cells = "  ".join(
        f"{point.snr_db:+5.1f}dB:{point.pd:4.2f}" for point in sweep.points
    )
    print(f"  {sweep.detector_name:<22s} {cells}")


def main() -> None:
    num_samples = CONFIG.samples_per_decision
    energy = EnergyDetector(noise_power=1.0, num_samples=num_samples)

    print(f"Pd at Pfa = {PFA} over SNR (BPSK user, {TRIALS} trials/point)\n")
    print("calibrated noise floor (no uncertainty):")
    print_sweep(run_sweep("cyclostationary", False))
    print_sweep(run_sweep("energy", False, statistic_fn=energy.statistic))

    print(f"\nwith +/-{UNCERTAINTY_DB} dB noise-level uncertainty:")
    cfd_unc = run_sweep("cyclostationary", True)
    energy_unc = run_sweep("energy", True, statistic_fn=energy.statistic)
    print_sweep(cfd_unc)
    print_sweep(energy_unc)

    print(
        f"\nsensitivity (SNR for Pd = 0.9, uncertain floor): "
        f"CFD {cfd_unc.snr_for_pd(0.9):+.1f} dB vs energy "
        f"{energy_unc.snr_for_pd(0.9):+.1f} dB"
    )
    print(
        "the uncertainty costs the radiometer dB-for-dB; the coherence-"
        "normalised CFD statistic is unaffected — the paper's case for "
        "paying 16x the multiplications."
    )


if __name__ == "__main__":
    main()
