"""Synthetic signal substrate.

The paper senses real RF spectrum; this package provides the synthetic
equivalent: cyclostationary communication waveforms (linear modulations
with pulse shaping, AM carriers, OFDM-like and SC-FDMA-style
multicarrier), AWGN channels, single-band cognitive-radio scenarios
with licensed users at controlled SNR, and wideband multi-emitter
scenarios with an extended impairment stack (frequency-selective
fading, CFO drift, IQ imbalance, quantization).  Everything is seeded
and reproducible.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".carriers": ("amplitude_modulated_carrier", "complex_tone"),
        ".channel": (
            "apply_cfo",
            "apply_multipath",
            "apply_phase_noise",
            "two_ray_channel",
        ),
        ".impairments": (
            "ImpairmentChain",
            "apply_cfo_drift",
            "apply_fading",
            "apply_iq_imbalance",
            "apply_quantization",
            "fading_taps",
            "undo_iq_imbalance",
        ),
        ".modulators": (
            "LinearModulator",
            "bpsk_signal",
            "msk_signal",
            "qam16_signal",
            "qpsk_signal",
        ),
        ".noise": ("awgn", "complex_awgn_signal"),
        ".ofdm": ("ofdm_signal",),
        ".pulse": (
            "raised_cosine_taps",
            "rectangular_taps",
            "root_raised_cosine_taps",
            "upsample_and_filter",
        ),
        ".scenario": ("BandOccupancy", "BandScenario", "LicensedUser"),
        ".scfdma": ("scfdma_signal", "scfdma_symbol_rate_hz"),
        ".wideband": (
            "MODULATION_CLASSES",
            "SCENARIO_PRESETS",
            "EmitterSpec",
            "EmitterTruth",
            "WidebandOccupancy",
            "WidebandScenario",
            "band_edges_hz",
            "band_index_of",
            "scenario_preset",
        ),
    },
)

__all__ = [
    "BandOccupancy",
    "BandScenario",
    "EmitterSpec",
    "EmitterTruth",
    "ImpairmentChain",
    "LicensedUser",
    "LinearModulator",
    "MODULATION_CLASSES",
    "SCENARIO_PRESETS",
    "WidebandOccupancy",
    "WidebandScenario",
    "amplitude_modulated_carrier",
    "apply_cfo",
    "apply_cfo_drift",
    "apply_fading",
    "apply_iq_imbalance",
    "apply_multipath",
    "apply_phase_noise",
    "apply_quantization",
    "awgn",
    "band_edges_hz",
    "band_index_of",
    "bpsk_signal",
    "complex_awgn_signal",
    "complex_tone",
    "fading_taps",
    "msk_signal",
    "ofdm_signal",
    "qam16_signal",
    "qpsk_signal",
    "raised_cosine_taps",
    "rectangular_taps",
    "root_raised_cosine_taps",
    "scenario_preset",
    "scfdma_signal",
    "scfdma_symbol_rate_hz",
    "two_ray_channel",
    "undo_iq_imbalance",
    "upsample_and_filter",
]
