"""STFT engine: framing, reconstruction, conversion, invariants."""

import numpy as np
import pytest

from cxfilter import (
    FILTER_STFT,
    SEPARATOR_STFT,
    ComplexSpectrogram,
    StftConfig,
    convert_config,
    istft,
    si_sdr,
    stft,
)
from cxfilter.io import config_from_dict, config_to_dict
from conftest import naive_istft, naive_stft, rand_spec

BOTH_CONFIGS = (SEPARATOR_STFT, FILTER_STFT)


class TestStftConfig:
    def test_preset_configs(self):
        assert SEPARATOR_STFT.window_length_samples == 256
        assert SEPARATOR_STFT.hop_samples == 64
        assert SEPARATOR_STFT.dft_size == 256
        assert SEPARATOR_STFT.sample_rate_hz == 8000
        assert FILTER_STFT.window_length_samples == 1024
        assert FILTER_STFT.hop_samples == 64
        assert FILTER_STFT.dft_size == 1024
        assert SEPARATOR_STFT.bins == 129
        assert FILTER_STFT.bins == 513

    def test_validation(self):
        with pytest.raises(ValueError):
            StftConfig(256, 96, 256, 8000)  # hop does not divide window
        with pytest.raises(ValueError):
            StftConfig(256, 64, 128, 8000)  # dft < window
        with pytest.raises(ValueError):
            StftConfig(256, 256, 256, 8000)  # hop == window breaks sqrt-Hann COLA
        with pytest.raises(ValueError):
            StftConfig(0, 64, 256, 8000)
        with pytest.raises(ValueError):
            StftConfig(255, 64, 255, 8000)  # odd dft has no clean one-sided form

    def test_frame_count_and_max_length(self):
        cfg = SEPARATOR_STFT
        # One second at 8 kHz: hops cover signal plus head padding.
        assert cfg.num_frames(8000) == 128
        assert cfg.max_signal_length(128) == 8000
        for n in (1, 63, 64, 65, 8000, 8001):
            t = cfg.num_frames(n)
            assert cfg.max_signal_length(t) >= n
            assert cfg.max_signal_length(t - 1) < n

    def test_dict_round_trip(self):
        for cfg in BOTH_CONFIGS:
            assert config_from_dict(StftConfig, config_to_dict(cfg)) == cfg


class TestStft:
    def test_zero_signal(self):
        spec = stft(np.zeros(8000), SEPARATOR_STFT)
        assert spec.data.shape == (128, 129)
        assert np.all(spec.data == 0)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(np.array([]), SEPARATOR_STFT)

    def test_matches_naive_dft_oracle(self, rng):
        cfg = StftConfig(16, 4, 16, 8000)
        x = rng.standard_normal(50)
        got = stft(x, cfg).data
        want = naive_stft(x, cfg)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_unit_impulse_matches_oracle(self):
        cfg = StftConfig(16, 4, 16, 8000)
        x = np.zeros(30)
        x[0] = 1.0
        np.testing.assert_allclose(stft(x, cfg).data, naive_stft(x, cfg), atol=1e-12)

    def test_sinusoid_energy_concentration(self):
        # Bin-center sinusoid: the sqrt-Hann transform spreads energy over
        # the center bin and its immediate neighbors; the center column
        # alone carries ~81% (8/pi^2), the three columns together >99%.
        cfg = SEPARATOR_STFT
        k0 = 32
        n = 8000
        t = np.arange(n)
        x = np.sin(2.0 * np.pi * k0 * t / cfg.dft_size)
        spec = stft(x, cfg)
        edge = cfg.window_length_samples // cfg.hop_samples
        interior = np.abs(spec.data[edge:-edge]) ** 2
        total = interior.sum()
        center = interior[:, k0].sum()
        neighborhood = interior[:, k0 - 1 : k0 + 2].sum()
        assert center / total > 0.75
        assert neighborhood / total > 0.99

    def test_linearity(self, rng):
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        a, b = 0.7, -2.5
        lhs = stft(a * x + b * y, SEPARATOR_STFT).data
        rhs = a * stft(x, SEPARATOR_STFT).data + b * stft(y, SEPARATOR_STFT).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-12)

    def test_parseval_consistency(self, rng):
        for cfg in BOTH_CONFIGS:
            x = rng.standard_normal(9000)
            spec = stft(x, cfg).data
            power = np.abs(spec) ** 2
            one_sided = 2.0 * power.sum() - power[:, 0].sum() - power[:, -1].sum()
            spec_energy = one_sided / cfg.dft_size
            time_energy = cfg.cola_gain * float(np.dot(x, x))
            assert abs(spec_energy - time_energy) <= 1e-4 * time_energy


class TestIstft:
    @pytest.mark.parametrize("cfg", BOTH_CONFIGS)
    def test_round_trip_white_noise(self, rng, cfg):
        x = rng.standard_normal(16000)  # 2 s at 8 kHz
        y = istft(stft(x, cfg), output_length=x.size)
        assert si_sdr(y, x) >= 60.0

    def test_round_trip_both_configs_same_quality(self, rng):
        x = rng.standard_normal(16000)
        errs = []
        for cfg in BOTH_CONFIGS:
            y = istft(stft(x, cfg), output_length=x.size)
            errs.append(np.max(np.abs(y - x)))
        # Same order of magnitude: within a factor of 100 of each other.
        assert errs[0] < 100 * errs[1] and errs[1] < 100 * errs[0]

    def test_zero_spectrogram(self):
        spec = ComplexSpectrogram(
            np.zeros((40, SEPARATOR_STFT.bins), dtype=complex), SEPARATOR_STFT
        )
        y = istft(spec)
        assert np.all(y == 0)

    def test_output_length_bounds(self, rng):
        spec = stft(rng.standard_normal(4000), SEPARATOR_STFT)
        limit = SEPARATOR_STFT.max_signal_length(spec.frames)
        assert istft(spec, output_length=limit).size == limit
        with pytest.raises(ValueError):
            istft(spec, output_length=limit + 1)

    def test_odd_lengths_reconstruct(self, rng):
        for n in (257, 1000, 8191):
            x = rng.standard_normal(n)
            y = istft(stft(x, SEPARATOR_STFT), output_length=n)
            np.testing.assert_allclose(y, x, atol=1e-10)

    # The last grid zero-pads its DFT, so each frame is cut to the window.
    @pytest.mark.parametrize("cfg", BOTH_CONFIGS + (StftConfig(64, 16, 128, 8000),))
    def test_bit_identical_to_per_frame_overlap_add(self, rng, cfg):
        for n in (1, cfg.hop_samples - 1, 1001, 80001):
            frames = cfg.num_frames(n)
            spec = rand_spec(rng, frames, cfg)
            got = istft(spec, output_length=n)
            assert np.array_equal(got, naive_istft(spec, n))
            limit = cfg.max_signal_length(frames)
            assert np.array_equal(istft(spec), naive_istft(spec, limit))


class TestConvertConfig:
    def test_identity_conversion(self, rng):
        x = rng.standard_normal(8000)
        spec = stft(x, SEPARATOR_STFT)
        out = convert_config(spec, SEPARATOR_STFT, x.size)
        err = np.linalg.norm(out.data - spec.data) / np.linalg.norm(spec.data)
        assert err <= 1e-6

    def test_round_trip_through_other_config(self, rng):
        x = rng.standard_normal(8000)
        spec = stft(x, SEPARATOR_STFT)
        there = convert_config(spec, FILTER_STFT, x.size)
        back = convert_config(there, SEPARATOR_STFT, x.size)
        assert si_sdr(istft(back, output_length=x.size), x) >= 60.0

    def test_zero_input(self):
        spec = ComplexSpectrogram(
            np.zeros((40, SEPARATOR_STFT.bins), dtype=complex), SEPARATOR_STFT
        )
        out = convert_config(spec, FILTER_STFT, 1000)
        assert np.all(out.data == 0)


class TestComplexSpectrogram:
    def test_rejects_nonfinite(self):
        data = np.zeros((4, SEPARATOR_STFT.bins), dtype=complex)
        data[1, 2] = np.nan
        with pytest.raises(ValueError):
            ComplexSpectrogram(data, SEPARATOR_STFT)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            ComplexSpectrogram(np.zeros((4, 100), dtype=complex), SEPARATOR_STFT)
