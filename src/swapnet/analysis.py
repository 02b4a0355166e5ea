"""Signal analysis for stroboscopic series: spectra, echoes, decay fits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PEAK_FRACTION = 0.05    # spectral peaks reach at least this share of the largest bin
MIN_EXTREMA = 20        # envelope fits need at least this many usable extrema


@dataclass
class TimeSeries:
    """A real stroboscopic record, one value per channel application."""

    values: np.ndarray
    burn_in: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("time series must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("time series contains non-finite values")

    def __len__(self) -> int:
        return len(self.values)

    def post_burn_in(self) -> np.ndarray:
        return self.values[self.burn_in:]


def loschmidt_echo(rho0: np.ndarray, rho_n: np.ndarray) -> float:
    """Overlap Tr(rho0^dag rho_n); purity when both arguments coincide."""
    if rho0.shape != rho_n.shape:
        raise ValueError(f"shape mismatch {rho0.shape} vs {rho_n.shape}")
    return float(np.real(np.vdot(rho0, rho_n)))


@dataclass
class Spectrum:
    """One-sided magnitude DFT of a mean-subtracted real series.

    Magnitudes are Parseval-normalized: sum(magnitude^2) equals the series
    energy after mean subtraction. Frequencies span [0, pi] rad/step with
    resolution 2 pi / length.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray
    peaks: list                      # (frequency, magnitude) pairs
    length: int
    resolution: float
    is_peak: np.ndarray = field(repr=False)

    @property
    def peak_frequencies(self) -> np.ndarray:
        return np.array([f for f, _ in self.peaks])


def _largest_power_of_two(n: int) -> int:
    return 1 << (int(n).bit_length() - 1)


def _peak_bins(mags: np.ndarray) -> np.ndarray:
    """Peak flags of a magnitude spectrum whose largest bin is positive.

    A bin past the DC bin is a candidate when it is at least both neighbours
    and at least PEAK_FRACTION times the largest bin; it is a peak when the
    previous bin is not an equal-height candidate, so an equal-height run
    keeps only its first bin.
    """
    right = np.append(mags[2:], -np.inf)
    candidate = np.zeros(len(mags), dtype=bool)
    candidate[1:] = ((mags[1:] >= mags[:-1]) & (mags[1:] >= right)
                     & (mags[1:] >= PEAK_FRACTION * mags.max()))
    plateau = np.zeros(len(mags), dtype=bool)
    plateau[1:] = candidate[:-1] & (mags[1:] == mags[:-1])
    return candidate & ~plateau


def spectrum_of_series(ts: TimeSeries) -> Spectrum:
    """Magnitude spectrum with local-maximum peak detection.

    The post-burn-in window is truncated to the largest power-of-two length.
    Peaks are local maxima at or above PEAK_FRACTION times the global
    maximum; the DC bin is suppressed by mean subtraction.
    """
    data = ts.post_burn_in()
    if len(data) < 256:
        raise ValueError(f"need at least 256 post-burn-in samples, got {len(data)}")
    length = _largest_power_of_two(len(data))
    data = data[:length]
    centered = data - data.mean()

    amp = np.fft.rfft(centered)
    n_bins = len(amp)
    freqs = 2.0 * np.pi * np.arange(n_bins) / length
    mags = np.abs(amp) * (np.sqrt(2.0) / np.sqrt(length))
    mags[0] /= np.sqrt(2.0)
    if length % 2 == 0:
        mags[-1] /= np.sqrt(2.0)

    is_peak = _peak_bins(mags) if mags.max() > 0.0 else np.zeros(n_bins, dtype=bool)

    peaks = [(float(freqs[k]), float(mags[k])) for k in np.nonzero(is_peak)[0]]
    return Spectrum(frequencies=freqs, magnitudes=mags, peaks=peaks,
                    length=length, resolution=2.0 * np.pi / length,
                    is_peak=is_peak)


@dataclass
class DecayFit:
    """Exponential envelope fit of an oscillatory series."""

    rate: float            # gamma, 1/steps; positive means decay
    frequency: float       # rough carrier estimate from extrema spacing
    residual: float        # rms residual of the log-envelope line fit
    n_extrema: int


def fit_decay_envelope(ts: TimeSeries) -> DecayFit:
    """Fit log|envelope| to a line through successive oscillation extrema."""
    data = ts.post_burn_in()
    centered = np.abs(data - data.mean())
    if len(centered) < 3:
        raise ValueError("series too short for envelope extraction")

    interior = centered[1:-1]
    mask = (interior >= centered[:-2]) & (interior >= centered[2:])
    idx = np.nonzero(mask)[0] + 1
    # ignore near-zero crossings picked up as flat extrema
    idx = idx[centered[idx] > 1e-12 * max(centered.max(), 1e-300)]
    if len(idx) < MIN_EXTREMA:
        raise ValueError(f"only {len(idx)} usable extrema, need {MIN_EXTREMA}")

    log_env = np.log(centered[idx])
    coeffs = np.polyfit(idx.astype(float), log_env, 1)
    slope = coeffs[0]
    fitted = np.polyval(coeffs, idx.astype(float))
    residual = float(np.sqrt(np.mean((log_env - fitted) ** 2)))
    spacing = float(np.mean(np.diff(idx)))
    frequency = np.pi / spacing if spacing > 0 else 0.0
    return DecayFit(rate=float(-slope), frequency=float(frequency),
                    residual=residual, n_extrema=int(len(idx)))


def autocorrelation_at_lag(values: np.ndarray, lag: int) -> float:
    """Normalized autocorrelation of a series at one lag."""
    x = np.asarray(values, dtype=float)
    if lag <= 0 or lag >= len(x) - 1:
        raise ValueError(f"lag {lag} out of range for series of length {len(x)}")
    a = x[:-lag] - x[:-lag].mean()
    b = x[lag:] - x[lag:].mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0.0:
        return 1.0
    return float(np.sum(a * b) / denom)


def best_commensurate_lag(omega: float, max_lag: int) -> tuple[int, float]:
    """Integer lag whose phase omega*lag is nearest a multiple of 2 pi.

    Returns (lag, phase error in radians). A clean oscillation at omega has
    autocorrelation cos(error) at that lag.
    """
    if omega == 0.0:
        return 1, 0.0
    best_lag, best_err = 1, np.inf
    for lag in range(1, max_lag + 1):
        err = abs((omega * lag + np.pi) % (2.0 * np.pi) - np.pi)
        if err < best_err:
            best_lag, best_err = lag, err
    return best_lag, float(best_err)
