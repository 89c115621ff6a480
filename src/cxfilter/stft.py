"""STFT analysis/synthesis with exact constant-overlap-add reconstruction.

All spectrograms in this package are one-sided, frame-major complex
arrays produced by :func:`stft` under an :class:`StftConfig`.  Analysis
and synthesis both use a square-root Hann window, so the overlap-added
product is a plain Hann stack whose sum is constant when the hop divides
the window length.  The head of the signal is zero-padded by
``window - hop`` samples, which makes frame/tap indexing causal and
deterministic for the convolutive filtering done downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters for one STFT domain.

    The two configurations used throughout this package are exposed as
    :data:`SEPARATOR_STFT` (32 ms window / 8 ms hop / 256-point DFT) and
    :data:`FILTER_STFT` (128 ms window / 8 ms hop / 1024-point DFT),
    both at 8 kHz.
    """

    window_length_samples: int
    hop_samples: int
    dft_size: int
    sample_rate_hz: int

    def __post_init__(self):
        w, h, n, sr = (
            self.window_length_samples,
            self.hop_samples,
            self.dft_size,
            self.sample_rate_hz,
        )
        if min(w, h, n, sr) <= 0:
            raise ValueError("all StftConfig fields must be positive integers")
        if w % h != 0:
            raise ValueError(
                f"hop ({h}) must divide the window length ({w}) "
                "for constant-overlap-add synthesis"
            )
        if h >= w:
            raise ValueError("hop must be strictly smaller than the window length")
        if n < w:
            raise ValueError(f"dft_size ({n}) must be >= window length ({w})")
        if n % 2 != 0:
            raise ValueError("dft_size must be even (one-sided spectrum layout)")

    @property
    def bins(self) -> int:
        return self.dft_size // 2 + 1

    @property
    def head_padding(self) -> int:
        return self.window_length_samples - self.hop_samples

    @property
    def cola_gain(self) -> float:
        # sum_k hann(n - k*hop) == window / (2*hop) when hop | window
        return self.window_length_samples / (2.0 * self.hop_samples)

    def num_frames(self, num_samples: int) -> int:
        """Frame count for a signal of ``num_samples`` samples.

        Counts the hops needed to cover the head-padded signal, so every
        input sample falls under a full stack of analysis windows.
        """
        return -(-(num_samples + self.head_padding) // self.hop_samples)

    def max_signal_length(self, num_frames: int) -> int:
        """Longest signal reconstructible from ``num_frames`` frames."""
        return num_frames * self.hop_samples - self.head_padding


#: Feature/separator domain: 32 ms window, 8 ms hop, 256-point DFT at 8 kHz.
SEPARATOR_STFT = StftConfig(256, 64, 256, 8000)

#: Filter-estimation domain: 128 ms window, 8 ms hop, 1024-point DFT at 8 kHz.
FILTER_STFT = StftConfig(1024, 64, 1024, 8000)


@functools.lru_cache(maxsize=8)
def _sqrt_hann(length: int) -> np.ndarray:
    n = np.arange(length)
    w = np.sqrt(0.5 * (1.0 - np.cos(2.0 * np.pi * n / length)))
    w.setflags(write=False)
    return w


@dataclass(eq=False)
class ComplexSpectrogram:
    """One-sided complex STFT grid, shape ``(frames, bins)``."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 2:
            raise ValueError(f"spectrogram data must be 2-D, got {self.data.ndim}-D")
        if not np.iscomplexobj(self.data):
            self.data = self.data.astype(np.complex128)
        if self.data.shape[1] != self.config.bins:
            raise ValueError(
                f"spectrogram has {self.data.shape[1]} bins but config "
                f"implies {self.config.bins}"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("spectrogram contains non-finite values")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def bins(self) -> int:
        return self.data.shape[1]

    def same_grid(self, other: "ComplexSpectrogram") -> bool:
        return self.data.shape == other.data.shape and self.config == other.config


def _check_same_grid(a: ComplexSpectrogram, b: ComplexSpectrogram, what: str):
    if not a.same_grid(b):
        raise ValueError(
            f"{what}: spectrogram shapes/configs differ "
            f"({a.data.shape} vs {b.data.shape})"
        )


def stft(signal, config: StftConfig) -> ComplexSpectrogram:
    """Analyze a real signal into a one-sided complex spectrogram.

    The signal is zero-padded by ``window - hop`` samples at the head
    (causal first-frame alignment) and at the tail so that every input
    sample is covered by a full stack of overlapping windows.

    Parameters
    ----------
    signal : array_like
        Real 1-D sample sequence; must be non-empty and finite.
    config : StftConfig
        Framing parameters.

    Returns
    -------
    ComplexSpectrogram
        ``config.num_frames(len(signal))`` frames by ``config.bins`` bins.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be 1-D, got {x.ndim}-D")
    if x.size == 0:
        raise ValueError("cannot analyze an empty signal")
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite values")

    w = config.window_length_samples
    h = config.hop_samples
    num_frames = config.num_frames(x.size)
    padded_len = (num_frames - 1) * h + w
    buf = np.zeros(padded_len)
    buf[config.head_padding : config.head_padding + x.size] = x

    frames = sliding_window_view(buf, w)[::h]  # (num_frames, w), zero-copy
    windowed = frames * _sqrt_hann(w)
    spec = np.fft.rfft(windowed, n=config.dft_size, axis=1)
    return ComplexSpectrogram(spec, config)


def istft(spec: ComplexSpectrogram, output_length: int | None = None) -> np.ndarray:
    """Overlap-add synthesis back to a real signal.

    Square-root Hann synthesis windowing followed by division by the
    constant overlap-add gain makes ``istft(stft(x))`` reproduce ``x``
    to numerical precision.  The frames are overlap-added in hop-sized
    slices rather than one frame at a time, with each output sample
    summed in the same frame order, so the result is bit-identical to a
    per-frame loop's.

    Parameters
    ----------
    spec : ComplexSpectrogram
        One-sided spectrogram to invert, on its own ``spec.config`` grid.
    output_length : int, optional
        Number of samples to return.  Defaults to, and may not exceed,
        ``spec.config.max_signal_length(spec.frames)``.
    """
    cfg = spec.config
    w = cfg.window_length_samples
    h = cfg.hop_samples
    max_len = cfg.max_signal_length(spec.frames)
    if output_length is None:
        output_length = max_len
    if not 0 < output_length <= max_len:
        raise ValueError(
            f"output_length {output_length} outside (0, {max_len}] "
            f"reconstructible from {spec.frames} frames"
        )

    segments = np.fft.irfft(spec.data, n=cfg.dft_size, axis=1)[:, :w]
    segments *= _sqrt_hann(w)
    segments = segments.reshape(spec.frames, w // h, h)
    # Block b of the output sums sub-block k of frame b - k.  Adding the
    # sub-blocks from the last to the first gives every sample its frames
    # in increasing frame order, the order of a per-frame overlap-add.
    blocks = np.zeros((spec.frames - 1 + w // h, h))
    for k in range(w // h - 1, -1, -1):
        blocks[k : k + spec.frames] += segments[:, k]
    buf = blocks.ravel()
    buf /= cfg.cola_gain
    start = cfg.head_padding
    return buf[start : start + output_length]


def convert_config(
    spec: ComplexSpectrogram, to_config: StftConfig, length: int
) -> ComplexSpectrogram:
    """Re-analyze a spectrogram from its own grid under ``to_config``.

    Defined as ``stft(istft(spec, length), to_config)``; exactness is
    inherited from the round-trip guarantees.  ``length`` is the
    time-domain sample count carried through the conversion.  When
    ``to_config`` is ``spec.config`` the result is an exact copy of
    ``spec`` and ``length`` is not used.
    """
    if to_config == spec.config:
        return ComplexSpectrogram(spec.data.copy(), to_config)
    return stft(istft(spec, length), to_config)
