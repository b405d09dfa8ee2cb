"""Frequency-smoothed spectral correlation (third estimation path).

The paper's DSCF (expression 3) is a *time*-smoothed estimator: it
averages cyclic periodograms over N successive blocks.  The classical
alternative smooths a single long-block cyclic periodogram over
*spectral frequency* instead:

    S~_f^a = (1/W) sum_{|w| <= W/2}  X[f + a + w] conj(X[f - a + w])

with one K-point spectrum of a long observation and a W-bin smoothing
window.  Both estimators converge to the same spectral correlation
function; having an independent implementation lets the test suite
cross-validate feature locations and magnitudes produced by the DSCF
path (and gives users the estimator of choice when only one long
coherent block is available).
"""

from __future__ import annotations

import numpy as np

from .._util import require_positive_int
from ..errors import ConfigurationError
from .fourier import shared_block_spectra
from .sampling import SampledSignal
from .scf import DSCFResult, validate_m


def frequency_smoothed_scf(
    signal: SampledSignal | np.ndarray,
    fft_size: int,
    m: int | None = None,
    smoothing_bins: int = 9,
) -> DSCFResult:
    """Frequency-smoothed spectral correlation estimate.

    Parameters
    ----------
    signal:
        Input samples; exactly one block of ``fft_size`` samples is
        analysed (use a large ``fft_size`` — the smoothing supplies
        the variance reduction that block-averaging supplies in the
        DSCF).
    fft_size:
        Length K of the single analysis block.
    m:
        Half-extent of the (f, a) grid.  The default leaves room for
        the smoothing window: ``validate_m`` bounds it so that
        ``f ± a ± W/2`` stays inside the spectrum.
    smoothing_bins:
        Width W of the frequency smoothing window (odd).

    Returns
    -------
    DSCFResult
        Same container as the DSCF path (``num_blocks`` records the
        smoothing width instead of a block count).
    """
    smoothing_bins = require_positive_int(smoothing_bins, "smoothing_bins")
    if smoothing_bins % 2 == 0:
        raise ConfigurationError(
            f"smoothing_bins must be odd, got {smoothing_bins}"
        )
    half_window = smoothing_bins // 2
    m = validate_m(fft_size, m)
    if 2 * m + half_window > fft_size // 2 - 1:
        raise ConfigurationError(
            f"m={m} with smoothing_bins={smoothing_bins} pushes "
            f"f±a±W/2 outside a {fft_size}-point spectrum; reduce m or "
            "the smoothing width"
        )

    spectrum = shared_block_spectra(signal, fft_size, num_blocks=1)[0]
    center = fft_size // 2
    offsets = np.arange(-m, m + 1)
    window = np.arange(-half_window, half_window + 1)
    # indices shaped (F, A, W)
    plus_index = (
        center
        + offsets[:, None, None]
        + offsets[None, :, None]
        + window[None, None, :]
    )
    minus_index = (
        center
        + offsets[:, None, None]
        - offsets[None, :, None]
        + window[None, None, :]
    )
    products = spectrum[plus_index] * np.conj(spectrum[minus_index])
    values = products.mean(axis=2)
    sample_rate = (
        signal.sample_rate_hz if isinstance(signal, SampledSignal) else None
    )
    return DSCFResult(
        values=values,
        m=m,
        num_blocks=smoothing_bins,
        fft_size=fft_size,
        sample_rate_hz=sample_rate,
    )
