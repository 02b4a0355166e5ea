from itertools import product

import numpy as np
import pytest

from swapnet.analysis import (
    PEAK_FRACTION,
    TimeSeries,
    _peak_bins,
    autocorrelation_at_lag,
    best_commensurate_lag,
    fit_decay_envelope,
    loschmidt_echo,
    spectrum_of_series,
)
from swapnet.core import StateSpec, make_initial_state


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan, 2.0]))

    def test_burn_in_slicing(self):
        ts = TimeSeries(np.arange(10.0), burn_in=4)
        assert np.array_equal(ts.post_burn_in(), np.arange(4.0, 10.0))
        assert len(ts) == 10


class TestLoschmidt:
    def test_purity_at_zero_lag(self):
        rho = make_initial_state(StateSpec(kind="haar_random_pure", seed=2), 2)
        assert np.isclose(loschmidt_echo(rho, rho), 1.0)
        mixed = np.eye(4, dtype=complex) / 4
        assert np.isclose(loschmidt_echo(mixed, mixed), 0.25)

    def test_orthogonal_states(self):
        a = np.zeros((4, 4), dtype=complex)
        b = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1.0
        b[3, 3] = 1.0
        assert loschmidt_echo(a, b) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loschmidt_echo(np.eye(4), np.eye(8))


class TestSpectrum:
    def test_single_tone(self):
        n = np.arange(5000)
        spec = spectrum_of_series(TimeSeries(np.cos(0.2 * n)))
        assert spec.length == 4096
        assert len(spec.peaks) == 1
        freq, mag = spec.peaks[0]
        assert abs(freq - 0.2) <= spec.resolution
        assert mag == spec.magnitudes.max()

    def test_parseval_normalization(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1024)
        spec = spectrum_of_series(TimeSeries(x))
        energy = np.sum((x - x.mean()) ** 2)
        assert np.isclose(np.sum(spec.magnitudes**2), energy, rtol=1e-9)

    def test_two_tones(self):
        n = np.arange(4096)
        x = np.cos(0.5 * n) + 0.5 * np.cos(1.5 * n)
        spec = spectrum_of_series(TimeSeries(x))
        assert len(spec.peaks) == 2
        freqs = spec.peak_frequencies
        assert abs(freqs[0] - 0.5) <= spec.resolution
        assert abs(freqs[1] - 1.5) <= spec.resolution
        ratio = spec.peaks[0][1] / spec.peaks[1][1]
        assert 1.6 < ratio < 2.4

    def test_constant_series_has_no_peaks(self):
        spec = spectrum_of_series(TimeSeries(np.full(512, 3.7)))
        assert spec.peaks == []
        assert np.allclose(spec.magnitudes, 0.0, atol=1e-12)

    def test_plateau_keeps_only_its_first_bin(self):
        mags = np.array([0.0, 1.0, 1.0, 1.0, 0.5, 0.2, 0.0])
        assert np.flatnonzero(_peak_bins(mags)).tolist() == [1]

    def test_peak_rule_matches_run_reference(self):
        # reference: of each run of equal-height candidates, only the first bin
        def reference(mags):
            n, floor = len(mags), PEAK_FRACTION * max(mags)
            cand = [k >= 1 and mags[k] >= mags[k - 1] and mags[k] >= floor
                    and (k + 1 == n or mags[k] >= mags[k + 1]) for k in range(n)]
            peaks, k = [], 0
            while k < n:
                if cand[k]:
                    peaks.append(k)
                    while k + 1 < n and cand[k + 1] and mags[k + 1] == mags[k]:
                        k += 1
                k += 1
            return peaks

        for length in range(2, 7):
            for mags in product(range(4), repeat=length):
                if max(mags) > 0:
                    got = np.flatnonzero(_peak_bins(np.array(mags, dtype=float)))
                    assert got.tolist() == reference(mags), mags

    def test_truncates_to_power_of_two(self):
        spec = spectrum_of_series(TimeSeries(np.cos(0.3 * np.arange(700))))
        assert spec.length == 512
        assert np.isclose(spec.resolution, 2 * np.pi / 512)

    def test_burn_in_applied(self):
        n = np.arange(1500)
        x = np.cos(0.7 * n)
        x[:200] = 50.0  # transient junk
        spec = spectrum_of_series(TimeSeries(x, burn_in=200))
        assert len(spec.peaks) == 1
        assert abs(spec.peaks[0][0] - 0.7) <= spec.resolution

    def test_too_short(self):
        with pytest.raises(ValueError):
            spectrum_of_series(TimeSeries(np.zeros(255)))


class TestDecayFit:
    def test_recovers_decay_rate(self):
        # weak damping (gamma * window of order one), the regime the fit
        # is meant for; strong damping hits the mean-subtraction floor
        n = np.arange(3000)
        for rate in (5e-5, 2e-4, 1e-3):
            fit = fit_decay_envelope(TimeSeries(np.exp(-rate * n) * np.cos(0.3 * n)))
            assert np.isclose(fit.rate, rate, rtol=0.02)
            assert np.isclose(fit.frequency, 0.3, rtol=0.05)
            assert fit.n_extrema > 200

    def test_undamped_has_near_zero_rate(self):
        n = np.arange(3000)
        fit = fit_decay_envelope(TimeSeries(np.cos(0.3 * n)))
        assert abs(fit.rate) < 1e-4

    def test_growth_gives_negative_rate(self):
        n = np.arange(2000)
        fit = fit_decay_envelope(TimeSeries(np.exp(0.002 * n) * np.cos(0.4 * n)))
        assert fit.rate < -1e-3

    def test_too_few_extrema(self):
        with pytest.raises(ValueError):
            fit_decay_envelope(TimeSeries(np.cos(0.3 * np.arange(100))))
        with pytest.raises(ValueError):
            fit_decay_envelope(TimeSeries(np.zeros(2)))


class TestAutocorrelation:
    def test_commensurate_lag_of_clean_tone(self):
        lag, err = best_commensurate_lag(0.3, 200)
        assert lag == 21
        assert np.isclose(err, abs(0.3 * 21 - 2 * np.pi), atol=1e-12)
        x = np.cos(0.3 * np.arange(4096))
        assert autocorrelation_at_lag(x, lag) > 0.995

    def test_incommensurate_lag_decorrelates(self):
        x = np.cos(0.3 * np.arange(4096))
        # half-period shift flips the sign
        half = int(round(np.pi / 0.3))
        assert autocorrelation_at_lag(x, half) < -0.9

    def test_zero_frequency(self):
        assert best_commensurate_lag(0.0, 50) == (1, 0.0)

    def test_constant_series(self):
        assert autocorrelation_at_lag(np.ones(100), 5) == 1.0

    def test_lag_range_checked(self):
        with pytest.raises(ValueError):
            autocorrelation_at_lag(np.arange(10.0), 0)
        with pytest.raises(ValueError):
            autocorrelation_at_lag(np.arange(10.0), 9)


class TestExtraction:
    def test_site_and_run_level_series(self):
        from swapnet.channel import build_channel, iterate_channel
        from swapnet.core import HamiltonianSpec, build_hamiltonian
        h = build_hamiltonian(HamiltonianSpec(family="ising", n=2, j_z=0.4, h=0.1))
        traj = iterate_channel(build_channel(h),
                               make_initial_state(StateSpec(kind="haar_random_pure",
                                                            seed=4), 2),
                               50, record=("sx", "entropy"))
        ts = TimeSeries(traj.series("sx", site=1), burn_in=10)
        assert np.array_equal(ts.values, traj.records["sx"][:, 1])
        assert ts.burn_in == 10
        ent = TimeSeries(traj.series("entropy"))
        assert np.array_equal(ent.values, traj.records["entropy"])
