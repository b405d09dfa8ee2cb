"""Golden-fixture regression: the paper operating point's Pd curve.

``tests/fixtures/golden_pd.json`` pins detection probabilities of the
K = 256, M = 63 (127 x 127) DSCF detector on a BPSK licensed user at
Pfa = 0.05, computed from fully seeded Monte-Carlo trials.  Estimator
refactors that change the mathematics — a different normalisation, a
shifted grid, a broken batch path — move these values far beyond the
tolerance band and fail here, while numerically equivalent rewrites
(BLAS reorderings flipping the odd borderline trial) stay inside it.

To regenerate after an *intentional* change of the detection contract::

    PYTHONPATH=src python tests/test_golden_operating_point.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Engine
from repro.pipeline import PipelineConfig
from repro.signals import awgn, bpsk_signal

FIXTURE = Path(__file__).parent / "fixtures" / "golden_pd.json"

#: Tolerances: 3 of 48 trials may flip per point (cross-machine BLAS
#: rounding); the threshold itself is a quantile of deterministic
#: statistics and must reproduce tightly.
PD_TOLERANCE = 3.5 / 48
THRESHOLD_RTOL = 1e-6


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def compute_curve(
    fixture: dict, precision: str = "float64"
) -> tuple[float, list]:
    point = fixture["operating_point"]
    config = PipelineConfig(
        fft_size=point["fft_size"],
        num_blocks=point["num_blocks"],
        m=point["m"],
        pfa=point["pfa"],
        calibration_trials=point["calibration_trials"],
        calibration_seed=point["calibration_seed"],
        precision=precision,
    )
    engine = Engine()
    needed = config.samples_per_decision
    threshold = engine.calibrate_threshold(config)

    def h1_factory(snr_db: float, trial: int) -> np.ndarray:
        rng = np.random.default_rng(point["h1_seed_base"] + trial)
        user = bpsk_signal(
            needed, 1e6,
            samples_per_symbol=point["samples_per_symbol"], rng=rng,
        )
        amplitude = float(np.sqrt(10.0 ** (snr_db / 10.0)))
        return amplitude * user.samples + awgn(needed, power=1.0, rng=rng)

    points = []
    for entry in fixture["points"]:
        snr_db = entry["snr_db"]
        statistics = engine.monte_carlo_statistics(
            lambda trial, snr=snr_db: h1_factory(snr, trial),
            point["trials"],
            config=config,
        )
        points.append(
            {"snr_db": snr_db, "pd": float(np.mean(statistics > threshold))}
        )
    return float(threshold), points


class TestGoldenOperatingPoint:
    def test_fixture_geometry_is_the_papers(self):
        fixture = load_fixture()
        point = fixture["operating_point"]
        assert point["fft_size"] == 256
        assert point["extent"] == 127
        assert 2 * point["m"] + 1 == point["extent"]

    def test_pd_curve_matches_fixture(self):
        fixture = load_fixture()
        threshold, points = compute_curve(fixture)
        assert threshold == pytest.approx(
            fixture["threshold"], rel=THRESHOLD_RTOL
        )
        for computed, pinned in zip(points, fixture["points"]):
            assert computed["snr_db"] == pinned["snr_db"]
            assert computed["pd"] == pytest.approx(
                pinned["pd"], abs=PD_TOLERANCE
            ), f"Pd drifted at {pinned['snr_db']:+.1f} dB"

    def test_curve_is_monotone_through_the_transition(self):
        """Sanity on the pinned values themselves."""
        fixture = load_fixture()
        pds = [entry["pd"] for entry in fixture["points"]]
        assert pds == sorted(pds)
        assert pds[0] < 0.5 < pds[-1]


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    fixture = load_fixture()
    threshold, points = compute_curve(fixture)
    fixture["threshold"] = threshold
    fixture["points"] = points
    FIXTURE.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"rewrote {FIXTURE}: threshold {threshold:.6f}")
    for entry in points:
        print(f"  {entry['snr_db']:+5.1f} dB  Pd {entry['pd']:.3f}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
