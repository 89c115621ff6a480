"""Shared fixtures and independent oracles for the test suite.

Oracles here are deliberately written with plain loops and formulas,
not by calling back into the library code they check.
"""

import numpy as np
import pytest

from cxfilter import SceneSpec, simulate_scene
from cxfilter.stft import ComplexSpectrogram, StftConfig


def naive_stft(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """Scalar-loop STFT oracle: head-padded sqrt-Hann frames, rfft bins."""
    w = config.window_length_samples
    h = config.hop_samples
    window = np.sqrt(
        0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(w) / w)
    )
    head = w - h
    frames = -(-(signal.size + head) // h)
    buf = np.zeros(head + frames * h + w)
    buf[head : head + signal.size] = signal
    bins = config.dft_size // 2 + 1
    out = np.empty((frames, bins), dtype=np.complex128)
    for t in range(frames):
        seg = buf[t * h : t * h + w] * window
        for k in range(bins):
            out[t, k] = np.sum(
                seg * np.exp(-2j * np.pi * k * np.arange(w) / config.dft_size)
            )
    return out


def naive_istft(spec: ComplexSpectrogram, output_length: int) -> np.ndarray:
    """Per-frame overlap-add oracle: each frame is inverted and added in turn."""
    config = spec.config
    w = config.window_length_samples
    h = config.hop_samples
    window = np.sqrt(0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(w) / w)))
    buf = np.zeros((spec.frames - 1) * h + w)
    for t in range(spec.frames):
        seg = np.fft.irfft(spec.data[t], n=config.dft_size)[:w] * window
        buf[t * h : t * h + w] += seg
    buf /= w / (2.0 * h)
    return buf[w - h : w - h + output_length]


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.<name>`` by a wrapper; the list grows by one per call."""
    calls = []
    func = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def rand_spec(rng, frames: int, config: StftConfig) -> ComplexSpectrogram:
    """Random complex spectrogram on the given grid."""
    shape = (frames, config.bins)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ComplexSpectrogram(data, config)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_scene():
    """1.5 s two-speaker reverberant scene, fixed seed."""
    return simulate_scene(
        SceneSpec(num_speakers=2, duration_s=1.5, t60_s=0.3, seed=901)
    )


@pytest.fixture
def mono_scene():
    """1.5 s single-speaker scene with reverb and noise, fixed seed."""
    return simulate_scene(
        SceneSpec(num_speakers=1, duration_s=1.5, t60_s=0.3, seed=902)
    )
