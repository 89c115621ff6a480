"""Shared fixtures and independent oracles for the test suite.

Oracles here are deliberately written with plain loops and formulas,
not by calling back into the library code they check.
"""

import numpy as np
import pytest
from hypothesis import settings

from cxfilter import SceneSpec, simulate_scene
from cxfilter.stft import ComplexSpectrogram, StftConfig

# Property tests: no per-example deadline (timings on a shared host vary),
# and few enough examples that the suite stays quick.
settings.register_profile("cxfilter", deadline=None, max_examples=100)
settings.load_profile("cxfilter")


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


def divided_tile_fcp_filter(target, s_hat, config) -> np.ndarray:
    """Reference copy of the tiled FCP fit that divides each tile by the weights.

    Same tiles (8 bins x 512 frames), same BLAS products and the same
    per-bin solve as the kernel, but ``X_w = X / w`` by complex division,
    so a kernel that scales the tiles another way can be held to the same
    bits.  Not an independent oracle: ``naive_fcp_filter`` in
    ``test_fcp.py`` is.
    """
    from numpy.lib.stride_tricks import sliding_window_view
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    taps = config.taps
    z = target.data
    w = np.abs(z) ** 2
    w += config.epsilon * (
        w.max(axis=0, keepdims=True) if config.per_freq_floor else w.max()
    )
    w[~(w > 0.0)] = 1.0
    frames, bins = z.shape
    gram = np.zeros((bins, taps, taps), dtype=np.complex128)
    cross = np.zeros((bins, taps), dtype=np.complex128)
    for f0 in range(0, bins, 8):
        f1 = min(f0 + 8, bins)
        padded = np.zeros((f1 - f0, taps - 1 + frames), dtype=np.complex128)
        padded[:, taps - 1 :] = s_hat.data[:, f0:f1].T
        regress = sliding_window_view(padded, frames, axis=1)[:, ::-1]
        w_blk = w[:, f0:f1].T
        z_blk = z[:, f0:f1].T.conj()
        for t0 in range(0, frames, 512):
            t = slice(t0, t0 + 512)
            x = regress[:, :, t]
            xw = x / w_blk[:, None, t]
            gram[f0:f1] += xw @ x.conj().transpose(0, 2, 1)
            cross[f0:f1] += (xw @ z_blk[:, t, None])[:, :, 0]
    gram = 0.5 * (gram + gram.conj().transpose(0, 2, 1))

    filters = np.zeros((bins, taps), dtype=np.complex128)
    trace = np.einsum("fkk->f", gram).real
    load = config.diag_load_delta * trace / taps
    for f in range(bins):
        if trace[f] <= 0.0:
            continue
        system = gram[f] + load[f] * np.eye(taps)
        try:
            filters[f] = cho_solve(cho_factor(system), cross[f])
        except LinAlgError:
            filters[f] = np.linalg.lstsq(system, cross[f], rcond=None)[0]
    return filters
