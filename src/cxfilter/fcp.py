"""Forward convolutive prediction of reverberant speaker images.

Per frequency, a causal complex FIR filter is fit by weighted least
squares so that the filtered direct-path estimate matches a target
spectrogram (the mixture, or a partially cleaned mixture).  Applying
the filter to the direct-path estimate yields a physically-constrained
reverberant image: the filter can only redistribute the direct-path
signal over current and past frames, so the output obeys the linear
room-filtering relation instead of being a free re-estimate.

Two drivers are provided: :func:`fcp_separate` fits every speaker
independently against the mixture, and :func:`fcp_essu_separate`
processes speakers in descending energy order, subtracting the images
already estimated for stronger speakers from each weaker speaker's
target before fitting.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from cxfilter.stft import FILTER_STFT, ComplexSpectrogram, StftConfig, _check_same_grid


@dataclass(frozen=True)
class FcpConfig:
    """Filter-estimation knobs.

    ``epsilon`` floors the per-unit weight denominators at a fraction of
    the loudest time-frequency unit of the target; ``diag_load_delta``
    adds trace-scaled diagonal loading before the Hermitian solve so
    silent frequencies yield a zero filter instead of a singular system.
    """

    taps: int = 40
    epsilon: float = 1e-3
    diag_load_delta: float = 1e-6
    stft: StftConfig = field(default_factory=lambda: FILTER_STFT)
    per_freq_floor: bool = False

    def __post_init__(self):
        if self.taps < 1:
            raise ValueError("taps must be >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.diag_load_delta >= 0:
            raise ValueError("diag_load_delta must be non-negative")


def _tap_stack(data: np.ndarray, taps: int) -> np.ndarray:
    """Causal tap view: out[f, k, t] = data[t-k, f], zero for t-k < 0.

    The view spans one transposed, zero-padded copy of ``data``, so an
    elementwise operation on a frame slice of it yields C-contiguous
    ``(taps, frames)`` matrices, which ``matmul`` hands to BLAS.
    """
    frames, bins = data.shape
    padded = np.zeros((bins, taps - 1 + frames), dtype=data.dtype)
    padded[:, taps - 1 :] = data.T
    return sliding_window_view(padded, frames, axis=1)[:, ::-1]


def _weights(target: np.ndarray, config: FcpConfig) -> np.ndarray:
    """Per-unit weight denominators: eps * max(|target|^2) + |target|^2.

    Built in place in one (frames, bins) array.
    """
    w = np.abs(target)
    np.square(w, out=w)
    if config.per_freq_floor:
        w += config.epsilon * w.max(axis=0, keepdims=True)
    else:
        w += config.epsilon * w.max()
    # A weight of zero only happens where the floored target region is
    # entirely silent; unit weight there keeps the solve finite and the
    # zero cross vector already forces a zero filter.  NaN maps to 1 too.
    unset = np.greater(w, 0.0)
    np.logical_not(unset, out=unset)
    w[unset] = 1.0
    return w


# Tile of the Gram accumulation, in bins x frames.  One tile's regressor
# (8 x 40 taps x 512 frames of complex128, 2.5 MiB) stays in cache, and
# the fit's working memory beyond its (frames, bins) weights does not
# grow with the signal length.
_BIN_BLOCK = 8
_FRAME_BLOCK = 512

# Threads that build a fit's Gram over its bin blocks: this process's
# share of the CPUs.  Only the batch runner sets it, next to the BLAS
# thread count (``experiment._map_jobs``); at 1 the caller runs every
# block.  The bits of a fit do not depend on it.
fit_threads = 1


def _run_blocks(block, starts: list, threads: int) -> None:
    """Call ``block(f0)`` for every start, on up to ``threads`` threads.

    The calling thread runs one share of the starts itself (each extra
    thread costs peak memory of its own); helper threads, one per
    further share, are joined before this returns, also when a block
    raises, and a block's error reaches the caller.
    """
    threads = min(threads, len(starts))

    def run(share):
        for f0 in share:
            block(f0)

    if threads <= 1:
        run(starts)
        return
    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(run, starts[i::threads]) for i in range(1, threads)]
        run(starts[::threads])
        for helper in helpers:
            helper.result()


def estimate_fcp_filter(
    target: ComplexSpectrogram,
    s_hat: ComplexSpectrogram,
    config: FcpConfig,
) -> np.ndarray:
    """Fit one speaker's per-frequency causal filter by weighted LS.

    For each frequency ``f`` the returned row ``g[f]`` minimizes

        sum_t |target(t,f) - g(f)^H stack(s_hat)(t,f)|^2 / w(t,f)

    where the stack gathers the current and ``taps-1`` past frames of
    ``s_hat`` and ``w`` is the floored magnitude-square of the target.
    The normal equations are solved per frequency with a Hermitian
    positive-definite factorization after trace-scaled diagonal
    loading.  Frequencies where ``s_hat`` is identically zero yield a
    zero filter row rather than an error.

    The Gram matrices ``R[f] = sum_t stack stack^H / w`` and cross
    terms ``p[f] = sum_t stack conj(target) / w`` are accumulated over
    tiles of ``_BIN_BLOCK`` bins by ``_FRAME_BLOCK`` frames, each with
    its own contiguous ``(bins, taps, frames)`` regressor, as
    ``R += X_w X^H`` and ``p += X_w target^H`` with ``X_w = X / w``.
    The bin blocks are independent, and run on :data:`fit_threads`
    threads; each bin's sums come from the same BLAS calls in the same
    order on any thread, so the result has the same bits at any thread
    count.  Beyond the ``(frames, bins)`` weights and the ``_BIN_BLOCK``
    input rows in use, memory is two tiles (about 5 MiB at 40 taps) per
    fit thread and the ``(bins, taps, taps)`` Gram stack, whatever the
    number of frames.  Weights and the per-bin solves run on the calling
    thread.

    Returns
    -------
    numpy.ndarray
        Complex filter array of shape ``(bins, taps)``.
    """
    _check_same_grid(target, s_hat, "estimate_fcp_filter")
    taps = config.taps
    z = target.data
    w = _weights(z, config)
    recip = np.reciprocal(w, out=w)
    frames, bins = z.shape

    gram = np.zeros((bins, taps, taps), dtype=np.complex128)
    cross = np.zeros((bins, taps), dtype=np.complex128)

    def accumulate(f0):
        # Writes only its own rows of gram and cross, so blocks need no lock.
        f1 = min(f0 + _BIN_BLOCK, bins)
        regress = _tap_stack(s_hat.data[:, f0:f1], taps)
        # X_w = X / w as X times 1/w on the float64 view, frames
        # innermost.  Complex division by w + 0j rounds every nonzero
        # part the same way at several times the cost; only a zero's sign
        # can differ in the tile, and the sums below start at +0, so the
        # Gram and cross terms keep the same bits.
        scale = np.repeat(recip[:, f0:f1].T, 2, axis=1)
        z_blk = z[:, f0:f1].T.conj()
        for t0 in range(0, frames, _FRAME_BLOCK):
            t = slice(t0, t0 + _FRAME_BLOCK)
            x = regress[:, :, t]
            xw = np.empty(x.shape, dtype=np.complex128)
            np.multiply(
                x.view(np.float64),
                scale[:, None, 2 * t0 : 2 * (t0 + x.shape[2])],
                out=xw.view(np.float64),
            )
            gram[f0:f1] += xw @ x.conj().transpose(0, 2, 1)
            cross[f0:f1] += (xw @ z_blk[:, t, None])[:, :, 0]

    _run_blocks(accumulate, list(range(0, bins, _BIN_BLOCK)), fit_threads)
    gram = 0.5 * (gram + gram.conj().transpose(0, 2, 1))

    filters = np.zeros((bins, taps), dtype=np.complex128)
    trace = np.einsum("fkk->f", gram).real
    load = config.diag_load_delta * trace / taps
    eye = np.eye(taps)
    for f in range(bins):
        if trace[f] <= 0.0:
            continue  # silent frequency: zero filter
        system = gram[f] + load[f] * eye
        try:
            filters[f] = cho_solve(cho_factor(system), cross[f])
        except LinAlgError:
            filters[f] = np.linalg.lstsq(system, cross[f], rcond=None)[0]
    return filters


def apply_filter(
    filters: np.ndarray, s_hat: ComplexSpectrogram
) -> ComplexSpectrogram:
    """Convolve the per-frequency filters with the stacked direct estimate.

    ``out(t,f) = g(f)^H [s_hat(t,f), s_hat(t-1,f), ...]`` with causal
    zero-prefix taps, i.e. a per-frequency FIR along the frame axis.
    """
    filters = np.asarray(filters)
    if filters.ndim != 2 or filters.shape[0] != s_hat.bins:
        raise ValueError(
            f"filters shape {filters.shape} does not match "
            f"({s_hat.bins}, taps)"
        )
    stack = _tap_stack(s_hat.data, filters.shape[1])
    out = (filters.conj()[:, None, :] @ stack)[:, 0, :].T
    return ComplexSpectrogram(out, s_hat.config)


def fcp_separate(
    mixture_spec: ComplexSpectrogram, s_hats: list, config: FcpConfig
) -> list:
    """Independent per-speaker FCP against the mixture.

    Every speaker's filter is estimated with the mixture as target and
    applied to that speaker's direct-path estimate; speakers do not
    interact, so the outputs are invariant to their ordering.  Returns
    the predicted images in speaker order.
    """
    if len(s_hats) == 0:
        raise ValueError("fcp_separate needs at least one speaker estimate")
    return [
        apply_filter(estimate_fcp_filter(mixture_spec, s_hat, config), s_hat)
        for s_hat in s_hats
    ]


def energy_sort(s_hats: list) -> list:
    """Speaker indices in descending order of direct-estimate energy.

    Energy is the squared Frobenius norm of each spectrogram; ties are
    broken by ascending speaker index.
    """
    if len(s_hats) == 0:
        raise ValueError("energy_sort needs at least one speaker estimate")
    energies = np.array([np.sum(np.abs(s.data) ** 2) for s in s_hats])
    return list(np.argsort(-energies, kind="stable"))


def fcp_essu_separate(
    mixture_spec: ComplexSpectrogram, s_hats: list, config: FcpConfig
) -> list:
    """FCP with energy-sorted source update.

    Speakers are processed in descending energy order.  Each speaker's
    target is the mixture minus the images already estimated for the
    other speakers (unprocessed speakers contribute zero), and the
    weight denominators are recomputed from that per-speaker target.
    Removing the stronger sources first keeps their energy from biasing
    the filter fits of the weaker ones; for a single speaker this
    reduces exactly to :func:`fcp_separate`.  Returns the predicted
    images in speaker order.
    """
    if len(s_hats) == 0:
        raise ValueError("fcp_essu_separate needs at least one speaker estimate")
    for s_hat in s_hats:
        _check_same_grid(mixture_spec, s_hat, "fcp_essu_separate")

    count = len(s_hats)
    images = [
        ComplexSpectrogram(np.zeros_like(mixture_spec.data), mixture_spec.config)
        for _ in range(count)
    ]
    for c in energy_sort(s_hats):
        residual = mixture_spec.data.copy()
        for other in range(count):
            if other != c:
                residual -= images[other].data
        target = ComplexSpectrogram(residual, mixture_spec.config)
        g = estimate_fcp_filter(target, s_hats[c], config)
        images[c] = apply_filter(g, s_hats[c])
    return images
