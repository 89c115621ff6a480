"""Property tests over drawn shapes: the FCP fit and its drivers, exact
recovery of a known filter, the STFT round trip, and the scale
invariance of SI-SDR.

Spectrograms come from a drawn seed, with silent bins, silent frames and
negative zeros mixed in; the shapes cross the fit's 8-bin and 512-frame
tile edges.  A grid has at least two bins (even DFT sizes only).
"""

import contextlib

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cxfilter import fcp as fcp_module
from cxfilter import (
    FILTER_STFT,
    SEPARATOR_STFT,
    ComplexSpectrogram,
    FcpConfig,
    StftConfig,
    apply_filter,
    estimate_fcp_filter,
    fcp_essu_separate,
    fcp_separate,
    istft,
    si_sdr,
    stft,
)
from conftest import naive_istft

seeds = st.integers(0, 2**32 - 1)


def _grid(bins: int) -> StftConfig:
    n = 2 * (bins - 1)
    return StftConfig(n, n // 2, n, 8000)


def _specs(seed: int, frames: int, bins: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    grid = _grid(bins)
    out = []
    for _ in range(count):
        data = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal(
            (frames, bins)
        )
        data[:, rng.random(bins) < 0.2] = 0.0
        data[rng.random(frames) < 0.1] = 0.0
        data.real[rng.random((frames, bins)) < 0.1] = -0.0
        out.append(ComplexSpectrogram(data, grid))
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@contextlib.contextmanager
def _fit_threads(count: int):
    before = fcp_module.fit_threads
    fcp_module.fit_threads = count
    try:
        yield
    finally:
        fcp_module.fit_threads = before


@given(
    seed=seeds,
    bins=st.integers(2, 40),
    frames=st.integers(1, 1100),
    taps=st.integers(1, 12),
    per_freq_floor=st.booleans(),
    threads=st.integers(1, 8),
)
def test_threaded_fit_equals_serial_fit(
    seed, bins, frames, taps, per_freq_floor, threads
):
    target, s_hat = _specs(seed, frames, bins, 2)
    config = FcpConfig(taps=taps, stft=_grid(bins), per_freq_floor=per_freq_floor)
    with _fit_threads(1):
        serial = estimate_fcp_filter(target, s_hat, config)
    with _fit_threads(threads):
        threaded = estimate_fcp_filter(target, s_hat, config)
    assert np.array_equal(threaded, serial)
    assert _same_bits(threaded, serial)


@given(
    seed=seeds,
    bins=st.integers(2, 24),
    frames=st.integers(1, 300),
    taps=st.integers(1, 8),
)
def test_essu_equals_plain_fcp_for_one_speaker(seed, bins, frames, taps):
    mixture, s_hat = _specs(seed, frames, bins, 2)
    config = FcpConfig(taps=taps, stft=_grid(bins))
    (plain,) = fcp_separate(mixture, [s_hat], config)
    (essu,) = fcp_essu_separate(mixture, [s_hat], config)
    assert _same_bits(essu.data, plain.data)


@given(
    data=st.data(),
    seed=seeds,
    speakers=st.integers(2, 4),
    bins=st.integers(2, 24),
    frames=st.integers(1, 300),
    taps=st.integers(1, 8),
)
def test_plain_fcp_is_invariant_to_speaker_order(
    data, seed, speakers, bins, frames, taps
):
    mixture, *s_hats = _specs(seed, frames, bins, 1 + speakers)
    order = data.draw(st.permutations(range(speakers)))
    config = FcpConfig(taps=taps, stft=_grid(bins))
    images = fcp_separate(mixture, s_hats, config)
    permuted = fcp_separate(mixture, [s_hats[c] for c in order], config)
    for i, c in enumerate(order):
        assert _same_bits(permuted[i].data, images[c].data)


@given(
    seed=seeds,
    bins=st.integers(2, 24),
    taps=st.integers(1, 8),
    extra_frames=st.integers(0, 700),
)
def test_fit_recovers_a_known_filter(seed, bins, taps, extra_frames):
    # A target that is exactly the known filter applied to the estimate
    # is fit without residual, whatever the weights, once no loading
    # biases the solve.  At least two frames per tap keep the normal
    # equations well conditioned (at one per tap the last tap sees a
    # single frame).
    rng = np.random.default_rng(seed)
    shape = (2 * taps + extra_frames, bins)
    s_hat = ComplexSpectrogram(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), _grid(bins)
    )
    known = rng.standard_normal((bins, taps)) + 1j * rng.standard_normal((bins, taps))
    target = apply_filter(known, s_hat)
    config = FcpConfig(taps=taps, stft=_grid(bins), diag_load_delta=0.0)
    fitted = estimate_fcp_filter(target, s_hat, config)
    assert np.max(np.abs(fitted - known)) <= 1e-8 * np.max(np.abs(known))


@given(
    seed=seeds,
    length=st.integers(1, 5000),
    grid=st.sampled_from([SEPARATOR_STFT, FILTER_STFT]),
)
def test_stft_round_trip_matches_the_frame_loop(seed, length, grid):
    signal = np.random.default_rng(seed).standard_normal(length)
    spec = stft(signal, grid)
    back = istft(spec, output_length=length)
    assert _same_bits(back, naive_istft(spec, length))
    assert np.max(np.abs(back - signal)) <= 1e-12


@given(
    seed=seeds,
    length=st.integers(2, 4000),
    exponent=st.floats(-6.0, 6.0),
    negative=st.booleans(),
)
def test_si_sdr_ignores_the_estimate_scale(seed, length, exponent, negative):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(length)
    est = ref + 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(length)
    scale = (-1.0 if negative else 1.0) * 10.0**exponent
    assert abs(si_sdr(scale * est, ref) - si_sdr(est, ref)) <= 1e-9
