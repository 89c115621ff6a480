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
fits speakers in descending energy order (the fitting order), each
against the mixture minus the images already fitted for the stronger
speakers.  Both run the one prediction loop, :func:`fcp_loop`, which
alone decides the fitting order.
"""

from __future__ import annotations

import ctypes
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cxfilter.stft import FILTER_STFT, ComplexSpectrogram, StftConfig, _check_same_grid


# Tiles of the Gram accumulation.  A fit thread takes _BIN_BLOCK bins at
# a time, with their weights, and walks them _FRAME_BLOCK frames at a
# time, one bin per product: one bin's weighted tile and its conjugate
# (40 taps x 512 frames of complex128, 0.3 MiB each) stay in cache, and
# the fit's working memory does not grow with the signal length.  The
# filter apply walks the same bin blocks.
_BIN_BLOCK = 8
_FRAME_BLOCK = 512

# Memory one bin block's (_BIN_BLOCK, taps, taps) complex128 Gram may
# take.  It fixes the longest filter, MAX_TAPS (724), on every host, so
# a config either runs everywhere or is rejected where it enters.
_GRAM_BUDGET_BYTES = 64 * 2**20
MAX_TAPS = math.isqrt(_GRAM_BUDGET_BYTES // (_BIN_BLOCK * 16))


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
        if self.taps > MAX_TAPS:
            raise ValueError(
                f"taps {self.taps} exceeds the ceiling of {MAX_TAPS}: one "
                f"{_BIN_BLOCK}-bin Gram must fit in "
                f"{_GRAM_BUDGET_BYTES // 2**20} MiB"
            )
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


def _power(target: np.ndarray) -> np.ndarray:
    """``|target|^2`` of a ``(frames, bins)`` array, as one new
    ``(bins, frames)`` array squared in place."""
    power = np.abs(target.T, order="C")
    return np.square(power, out=power)


def _weight_floor(target: np.ndarray, config: FcpConfig) -> np.ndarray:
    """The weight floor of each bin, ``eps * max(|target|^2)``: the max
    over all units, or over the bin's own frames under ``per_freq_floor``.

    Taken as the max of each bin block's maxima, which a max keeps exact,
    so no ``(frames, bins)`` temporary is made.
    """
    bins = target.shape[1]
    peaks = np.concatenate(
        [_power(target[:, f0 : f0 + _BIN_BLOCK]).max(axis=1)
         for f0 in range(0, bins, _BIN_BLOCK)]
    )
    if not config.per_freq_floor:
        peaks = np.full_like(peaks, peaks.max())
    return config.epsilon * peaks


def _weights(target: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Per-unit weight denominators ``floor + |target|^2`` of a
    ``(frames, bins)`` block, with ``floor`` one value per bin.

    Built in place in one ``(bins, frames)`` array.
    """
    w = _power(target)
    w += floor[:, None]
    # A weight of zero only happens where the floored target region is
    # entirely silent; unit weight there keeps the solve finite and the
    # zero cross vector already forces a zero filter.  NaN maps to 1 too.
    unset = np.greater(w, 0.0)
    np.logical_not(unset, out=unset)
    w[unset] = 1.0
    return w


@functools.cache
def openblas():
    """numpy's bundled OpenBLAS (ILP64, ``scipy_``-prefixed symbols) as a
    ``ctypes.CDLL`` with the signatures this package calls declared, or
    None where numpy bundles none (another BLAS).

    The batch runner sets its thread count through it, and
    :func:`cho_factor` and :func:`cho_solve` call its LAPACK.
    """
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    i64 = ctypes.POINTER(ctypes.c_int64)
    text, array, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
    # Fortran calls: every argument by reference, then the hidden length
    # of each character argument by value.
    signatures = {
        "scipy_zpotrf_64_": ([text, i64, array, i64, i64, length], None),
        "scipy_zpotrs_64_": (
            [text, i64, i64, array, i64, array, i64, i64, length], None
        ),
        "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
        "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
    }
    try:
        lib = ctypes.CDLL(str(sorted(libs.glob("libscipy_openblas64_*.so"))[0]))
        for name, (argtypes, restype) in signatures.items():
            getattr(lib, name).argtypes = argtypes
            getattr(lib, name).restype = restype
    except (IndexError, OSError, AttributeError):
        return None
    return lib


def cho_factor(system):
    """``(c, False)``: the upper Cholesky factor of a Hermitian
    positive-definite complex matrix, with the bits of
    ``scipy.linalg.cho_factor(system)``.

    LAPACK ``zpotrf`` (``'U'``) factors a Fortran-ordered copy in place,
    so the strict lower triangle of ``c`` keeps the input.  A non-finite
    entry or a shape other than ``(n, n)`` raises ValueError, and a
    matrix that is not positive definite ``np.linalg.LinAlgError``.
    Where numpy bundles no OpenBLAS, scipy's own function runs.
    """
    lib = openblas()
    if lib is None:
        from scipy.linalg import cho_factor

        return cho_factor(system)
    c = np.array(np.asarray_chkfinite(system), dtype=np.complex128, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {c.shape}")
    n, info = ctypes.c_int64(c.shape[0]), ctypes.c_int64()
    lib.scipy_zpotrf_64_(b"U", n, c.ctypes.data, n, info, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"{info.value}-th leading minor of the array is not positive definite"
        )
    return c, False


def cho_solve(factor, b):
    """The solution ``x`` of ``A x = b`` for one right-hand side, from
    :func:`cho_factor`'s ``(c, False)``, with the bits of
    ``scipy.linalg.cho_solve(factor, b)``: LAPACK ``zpotrs`` (``'U'``) on
    a copy of ``b``.  A non-finite entry or a shape other than ``(n, n)``
    and ``(n,)`` raises ValueError.  Where numpy bundles no OpenBLAS,
    scipy's own function runs.
    """
    lib = openblas()
    if lib is None:
        from scipy.linalg import cho_solve

        return cho_solve(factor, b)
    c = np.asfortranarray(np.asarray_chkfinite(factor[0]), dtype=np.complex128)
    x = np.array(np.asarray_chkfinite(b), dtype=np.complex128)
    if c.shape != x.shape * 2 or c.size == 0:
        raise ValueError(f"incompatible dimensions ({c.shape} and {x.shape})")
    n, info = ctypes.c_int64(x.size), ctypes.c_int64()
    one = ctypes.c_int64(1)  # right-hand side
    lib.scipy_zpotrs_64_(b"U", n, one, c.ctypes.data, n, x.ctypes.data, n, info, 1)
    return x


def check_threads(threads) -> None:
    """Raise ValueError unless ``threads`` is an int >= 1 (not a bool)."""
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be an int >= 1, got {threads!r}")


def run_on_threads(task, items: list, threads: int) -> None:
    """Call ``task(item)`` for every item, on up to ``threads`` threads:
    the one place the package starts threads.

    Items are dealt round-robin into one share per thread, each run in
    item order.  The calling thread runs the first share itself (each
    extra thread costs peak memory of its own); helper threads, one per
    further share, are joined before this returns, also when a task
    raises, and a task's error reaches the caller.
    """
    threads = min(threads, len(items))

    def run(share):
        for item in share:
            task(item)

    if threads <= 1:
        run(items)
        return
    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(run, items[i::threads]) for i in range(1, threads)]
        run(items[::threads])
        for helper in helpers:
            helper.result()


def estimate_fcp_filter(
    target: ComplexSpectrogram,
    s_hat: ComplexSpectrogram,
    config: FcpConfig,
    threads: int = 1,
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

    The floor of ``w`` is taken first, over every bin.  Then the Gram
    ``R[f] = sum_t stack stack^H / w`` and cross term ``p[f] = sum_t
    stack conj(target) / w`` are accumulated over blocks of ``_BIN_BLOCK``
    bins, each walked ``_FRAME_BLOCK`` frames at a time and bin by bin,
    as ``R += X_w X^H`` and ``p += X_w target^H`` with ``X_w = X * (1/w)``.
    Each bin block is fitted whole on one thread (its weights built,
    accumulated, made Hermitian, loaded on its diagonal and solved bin
    by bin), writing only its own filter rows; the blocks run on
    ``threads`` threads (at 1 the caller runs every block) with the same
    bits at any count, and a ``threads`` that is not an int >= 1 raises
    ValueError.  Beyond the filters, memory per fit thread is one
    block's input rows, weights and Gram and one bin's two tiles (about
    0.7 MiB at 40 taps), whatever the number of frames.

    Returns
    -------
    numpy.ndarray
        Complex filter array of shape ``(bins, taps)``.
    """
    check_threads(threads)
    _check_same_grid(target, s_hat, "estimate_fcp_filter")
    taps = config.taps
    z = target.data
    floor = _weight_floor(z, config)
    frames, bins = z.shape

    filters = np.zeros((bins, taps), dtype=np.complex128)

    def fit_block(f0):
        # Writes only its own rows of filters, so blocks need no lock.
        f1 = min(f0 + _BIN_BLOCK, bins)
        gram = np.zeros((f1 - f0, taps, taps), dtype=np.complex128)
        cross = np.zeros((f1 - f0, taps), dtype=np.complex128)
        regress = _tap_stack(s_hat.data[:, f0:f1], taps)
        recip = _weights(z[:, f0:f1], floor[f0:f1])
        np.reciprocal(recip, out=recip)
        z_blk = z[:, f0:f1].T.conj()
        for t0 in range(0, frames, _FRAME_BLOCK):
            t = slice(t0, t0 + _FRAME_BLOCK)
            for b in range(f1 - f0):
                # Each product is one bin's zgemm, as in a stacked matmul
                # over the block.  X times 1/w matches X / (w + 0j) but
                # for a zero's sign, and the sums start at +0, so the Gram
                # and cross keep their bits.
                x = regress[b, :, t]
                xw = x * recip[b, t]
                gram[b] += xw @ x.conj().T
                cross[b] += (xw @ z_blk[b, t, None])[:, 0]
        gram = 0.5 * (gram + gram.conj().transpose(0, 2, 1))
        trace = np.einsum("fkk->f", gram).real
        diag = np.einsum("fkk->fk", gram)
        diag += (config.diag_load_delta * trace / taps)[:, None]
        for b, system in enumerate(gram):
            if trace[b] <= 0.0:
                continue  # silent frequency: zero filter
            try:
                filters[f0 + b] = cho_solve(cho_factor(system), cross[b])
            except np.linalg.LinAlgError:
                filters[f0 + b] = np.linalg.lstsq(system, cross[b], rcond=None)[0]

    run_on_threads(fit_block, list(range(0, bins, _BIN_BLOCK)), threads)
    return filters


def apply_filter(
    filters: np.ndarray, s_hat: ComplexSpectrogram, out: np.ndarray | None = None
) -> ComplexSpectrogram:
    """Convolve the per-frequency filters with the stacked direct estimate.

    ``out(t,f) = g(f)^H [s_hat(t,f), s_hat(t-1,f), ...]`` with causal
    zero-prefix taps, i.e. a per-frequency FIR along the frame axis.
    The output is filled one ``_BIN_BLOCK`` of bins at a time, so memory
    beyond it is one block's padded input, whatever the number of bins.
    It is written to ``out`` if given, an array of ``s_hat``'s shape and
    the result's dtype, which may be ``s_hat.data`` itself: each block's
    input is copied into its tap stack before the block's columns are
    written, with the same bits.
    """
    filters = np.asarray(filters)
    if filters.ndim != 2 or filters.shape[0] != s_hat.bins:
        raise ValueError(
            f"filters shape {filters.shape} does not match "
            f"({s_hat.bins}, taps)"
        )
    taps = filters.shape[1]
    g = filters.conj()[:, None, :]
    dtype = np.result_type(g, s_hat.data)
    if out is None:
        out = np.empty(s_hat.data.shape, dtype=dtype)
    elif out.shape != s_hat.data.shape or out.dtype != dtype:
        raise ValueError(
            f"out is {out.dtype} {out.shape}, not {dtype} {s_hat.data.shape}"
        )
    for f0 in range(0, s_hat.bins, _BIN_BLOCK):
        f = slice(f0, f0 + _BIN_BLOCK)
        out[:, f] = (g[f] @ _tap_stack(s_hat.data[:, f], taps))[:, 0, :].T
    return ComplexSpectrogram(out, s_hat.config)


def fcp_loop(
    target, s_hat_of, count: int, config, leave, *, essu: bool, threads=1
) -> None:
    """The one prediction loop over speakers ``0 .. count - 1``.

    Speaker ``c``'s direct estimate ``s_hat_of(c)``, a spectrogram the
    loop is handed and may write, is fitted against ``target``, and the
    fitted filter applied to it, written over it, is the image that goes
    to ``leave(c, image)`` at once.  Without ``essu`` the speakers
    are fitted in index order and ``target`` is only read.  With
    ``essu`` they are fitted in :func:`energy_sort` order (the fitting
    order), ``target`` enters as the mixture and each image but the last
    is subtracted from it in place, so each target is the mixture minus
    the images fitted before it.  One direct estimate, which becomes its
    image, is alive at a time; under ESSU each direct estimate is taken
    twice, for the sort (only read) and for its fit.  Each filter is
    fitted on ``threads`` threads.
    """
    order = energy_sort(map(s_hat_of, range(count))) if essu else range(count)
    for step, c in enumerate(order):
        s_hat = s_hat_of(c)
        image = apply_filter(
            estimate_fcp_filter(target, s_hat, config, threads), s_hat, out=s_hat.data
        )
        del s_hat  # not alive while the next speaker is fitted
        if essu and step < count - 1:
            target.data -= image.data
        leave(c, image)
        del image


def _copy(spec: ComplexSpectrogram) -> ComplexSpectrogram:
    return ComplexSpectrogram(spec.data.copy(), spec.config)


def fcp_separate(
    mixture_spec: ComplexSpectrogram, s_hats: list, config: FcpConfig
) -> list:
    """Independent per-speaker FCP against the mixture.

    Every speaker's filter is estimated with the mixture as target and
    applied to that speaker's direct-path estimate; speakers do not
    interact, so the outputs are invariant to their ordering.  Returns
    the predicted images in speaker order.  Runs :func:`fcp_loop`
    without ``essu`` on a copy of each estimate, so the arguments are not
    written.
    """
    if len(s_hats) == 0:
        raise ValueError("fcp_separate needs at least one speaker estimate")
    images = [None] * len(s_hats)
    leave = images.__setitem__
    s_hat_of = lambda c: _copy(s_hats[c])
    fcp_loop(mixture_spec, s_hat_of, len(s_hats), config, leave, essu=False)
    return images


def _energy(s_hat: ComplexSpectrogram) -> float:
    power = np.abs(s_hat.data)
    return np.sum(np.square(power, out=power))


def energy_sort(s_hats) -> list:
    """Speaker indices in descending order of direct-estimate energy.

    Energy is the squared Frobenius norm of each spectrogram; ties are
    broken by ascending speaker index.  ``s_hats`` may be any iterable;
    it is read one spectrogram at a time, so a generator that analyses
    each on demand keeps only one alive.
    """
    energies = np.fromiter(map(_energy, s_hats), dtype=np.float64)
    if energies.size == 0:
        raise ValueError("energy_sort needs at least one speaker estimate")
    return list(np.argsort(-energies, kind="stable"))


def fcp_essu_separate(
    mixture_spec: ComplexSpectrogram, s_hats: list, config: FcpConfig
) -> list:
    """FCP with energy-sorted source update.

    Speakers are fitted in descending energy order (the fitting order).
    Each speaker's target is the mixture minus the images already
    fitted for the stronger speakers, subtracted in fitting order, and
    the weight denominators are recomputed from that per-speaker target.
    Removing the stronger sources first keeps their energy from biasing
    the filter fits of the weaker ones; for a single speaker this
    reduces exactly to :func:`fcp_separate`.  Relabelling speakers of
    distinct energies permutes the images bit for bit.  Returns the
    predicted images in speaker order.

    Runs :func:`fcp_loop` with ``essu`` on a copy of the mixture and of
    each estimate, so the arguments are not written.
    """
    if len(s_hats) == 0:
        raise ValueError("fcp_essu_separate needs at least one speaker estimate")
    for s_hat in s_hats:
        _check_same_grid(mixture_spec, s_hat, "fcp_essu_separate")
    images = [None] * len(s_hats)
    leave = images.__setitem__
    s_hat_of = lambda c: _copy(s_hats[c])
    fcp_loop(_copy(mixture_spec), s_hat_of, len(s_hats), config, leave, essu=True)
    return images
