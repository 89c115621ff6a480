"""Convolutive prediction: WLS oracle equivalence, recovery, ESSU."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError

from cxfilter import fcp as fcp_module
from cxfilter import (
    FILTER_STFT,
    ComplexSpectrogram,
    FcpConfig,
    StftConfig,
    apply_filter,
    energy_sort,
    estimate_fcp_filter,
    fcp_essu_separate,
    fcp_separate,
    istft,
    si_sdr,
    stft,
)
from conftest import divided_tile_fcp_filter, rand_spec

# Small grids for synthetic-spectrogram tests; only bin count matters.
GRID = StftConfig(16, 4, 16, 8000)  # 9 bins
GRID64 = StftConfig(64, 16, 64, 8000)  # 33 bins

# Exactness tests disable diagonal loading: loading is a robustness
# device for degenerate frequencies, not part of the estimator.
EXACT = dict(diag_load_delta=0.0)


def naive_tap_stack(data: np.ndarray, taps: int) -> np.ndarray:
    """Loop-built causal stack: out[t, f, k] = data[t-k, f] or 0."""
    frames, bins = data.shape
    out = np.zeros((frames, bins, taps), dtype=data.dtype)
    for t in range(frames):
        for k in range(taps):
            if t - k >= 0:
                out[t, :, k] = data[t - k, :]
    return out


def wls_pinv_oracle(target_col, stack_col, weight_col):
    """Weighted LS via explicit pseudo-inverse on one frequency."""
    d = 1.0 / np.sqrt(weight_col)
    system = stack_col * d[:, None]
    rhs = target_col * d
    return np.conj(np.linalg.pinv(system) @ rhs)


def weights_of(target: np.ndarray, epsilon: float) -> np.ndarray:
    power = np.abs(target) ** 2
    return epsilon * power.max() + power


def naive_fcp_filter(target, s_hat, config: FcpConfig) -> np.ndarray:
    """Per-bin WLS fit: explicit normal equations, ``np.linalg.lstsq`` solve.

    Same estimator as the library (floored weights, Hermitian part,
    trace-scaled loading, zero row for a silent bin), built one
    frequency at a time from :func:`naive_tap_stack`.
    """
    z, taps = target.data, config.taps
    power = np.abs(z) ** 2
    peak = power.max(axis=0) if config.per_freq_floor else np.full(z.shape[1], power.max())
    stack = naive_tap_stack(s_hat.data, taps)
    out = np.zeros((z.shape[1], taps), dtype=complex)
    for f in range(z.shape[1]):
        w = config.epsilon * peak[f] + power[:, f]
        w[w == 0.0] = 1.0
        x = stack[:, f, :]  # (T, taps)
        gram = x.T @ (x.conj() / w[:, None])
        cross = x.T @ (z[:, f].conj() / w)
        gram = 0.5 * (gram + gram.conj().T)
        trace = np.trace(gram).real
        if trace <= 0.0:
            continue
        system = gram + config.diag_load_delta * trace / taps * np.eye(taps)
        out[f] = np.linalg.lstsq(system, cross, rcond=None)[0]
    return out


def synth_target(s_hat: np.ndarray, g0: np.ndarray) -> np.ndarray:
    """target(t,f) = sum_k conj(g0(f,k)) s_hat(t-k,f)."""
    stack = naive_tap_stack(s_hat, g0.shape[1])
    return np.einsum("tfa,fa->tf", stack, np.conj(g0))


class TestFcpConfig:
    @pytest.mark.parametrize("name", ["epsilon", "diag_load_delta"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            FcpConfig(**{name: np.nan})

    def test_taps_ceiling_follows_the_gram_budget(self):
        # The longest filter whose (_BIN_BLOCK, taps, taps) complex128
        # Gram fits in 64 MiB.
        def gram(taps):
            return fcp_module._BIN_BLOCK * taps**2 * 16

        assert fcp_module._GRAM_BUDGET_BYTES == 64 * 2**20
        assert gram(724) <= fcp_module._GRAM_BUDGET_BYTES < gram(725)
        assert fcp_module.MAX_TAPS == 724
        assert FcpConfig(taps=724).taps == 724
        for taps in (725, 100000):
            with pytest.raises(ValueError, match=r"taps .* 724"):
                FcpConfig(taps=taps)


class TestEstimateFcpFilter:
    def test_identity_projection(self, rng):
        spec = rand_spec(rng, 20, GRID)
        config = FcpConfig(taps=1, stft=GRID, **EXACT)
        g = estimate_fcp_filter(spec, spec, config)
        np.testing.assert_allclose(g, np.ones_like(g), atol=1e-8)

    @pytest.mark.parametrize("taps", [1, 3, 8])
    def test_exact_recovery_of_known_filter(self, rng, taps):
        frames = 4 * taps + 12
        s_hat = rand_spec(rng, frames, GRID)
        g0 = rng.standard_normal((GRID.bins, taps)) + 1j * rng.standard_normal(
            (GRID.bins, taps)
        )
        target = ComplexSpectrogram(synth_target(s_hat.data, g0), GRID)
        config = FcpConfig(taps=taps, stft=GRID, **EXACT)
        g = estimate_fcp_filter(target, s_hat, config)
        for f in range(GRID.bins):
            err = np.linalg.norm(g[f] - g0[f]) / np.linalg.norm(g0[f])
            assert err <= 1e-6

    def test_matches_pinv_oracle_tiny(self, rng):
        taps, frames = 2, 6
        config = FcpConfig(taps=taps, stft=GRID, **EXACT)
        for _ in range(20):
            target = rand_spec(rng, frames, GRID)
            s_hat = rand_spec(rng, frames, GRID)
            g = estimate_fcp_filter(target, s_hat, config)
            stack = naive_tap_stack(s_hat.data, taps)
            w = weights_of(target.data, config.epsilon)
            for f in range(GRID.bins):
                want = wls_pinv_oracle(target.data[:, f], stack[:, f, :], w[:, f])
                err = np.linalg.norm(g[f] - want) / np.linalg.norm(want)
                assert err <= 1e-8

    def test_weights_use_target_not_shat(self, rng):
        # Scaling s_hat must not change the weighting; scaling the target
        # rescales the floor along with the data, so the minimizer scales.
        target = rand_spec(rng, 16, GRID)
        s_hat = rand_spec(rng, 16, GRID)
        config = FcpConfig(taps=2, stft=GRID, **EXACT)
        g1 = estimate_fcp_filter(target, s_hat, config)
        g2 = estimate_fcp_filter(
            ComplexSpectrogram(3.0 * target.data, GRID), s_hat, config
        )
        np.testing.assert_allclose(g2, 3.0 * g1, rtol=1e-9, atol=1e-12)

    def test_zero_shat_frequency_gives_zero_filter(self, rng):
        target = rand_spec(rng, 12, GRID)
        data = (
            rng.standard_normal((12, GRID.bins))
            + 1j * rng.standard_normal((12, GRID.bins))
        )
        data[:, 3] = 0.0
        s_hat = ComplexSpectrogram(data, GRID)
        g = estimate_fcp_filter(target, s_hat, FcpConfig(taps=2, stft=GRID))
        assert np.all(g[3] == 0)
        assert np.all(np.isfinite(g))

    def test_all_zero_target_gives_zero_filter(self, rng):
        target = ComplexSpectrogram(np.zeros((12, GRID.bins), complex), GRID)
        s_hat = rand_spec(rng, 12, GRID)
        g = estimate_fcp_filter(target, s_hat, FcpConfig(taps=2, stft=GRID))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            estimate_fcp_filter(
                rand_spec(rng, 10, GRID),
                rand_spec(rng, 11, GRID),
                FcpConfig(taps=2, stft=GRID),
            )

    @pytest.mark.parametrize("threads", [0, -3, 2.0, "2", True, None])
    def test_rejects_a_thread_count_that_is_not_a_positive_int(self, rng, threads):
        spec = rand_spec(rng, 10, GRID)
        with pytest.raises(ValueError, match="threads must be an int >= 1"):
            estimate_fcp_filter(spec, spec, FcpConfig(taps=2, stft=GRID), threads)

    def test_per_freq_floor_option(self, rng):
        # A target with wildly different per-frequency levels weights
        # differently under the per-frequency floor.
        data = rng.standard_normal((30, GRID.bins)) + 1j * rng.standard_normal(
            (30, GRID.bins)
        )
        data[:, 0] *= 100.0
        target = ComplexSpectrogram(data, GRID)
        s_hat = rand_spec(rng, 30, GRID)
        g_global = estimate_fcp_filter(
            target, s_hat, FcpConfig(taps=3, stft=GRID, per_freq_floor=False)
        )
        g_local = estimate_fcp_filter(
            target, s_hat, FcpConfig(taps=3, stft=GRID, per_freq_floor=True)
        )
        assert np.max(np.abs(g_global - g_local)) > 1e-8


def _edge_ragged_bins(rng):
    # 33 bins: a partial last block for any bin block from 2 to 32.
    return rand_spec(rng, 40, GRID64), rand_spec(rng, 40, GRID64), FcpConfig(
        taps=6, stft=GRID64
    )


def _edge_partial_frame_tile(rng):
    # 600 frames: more than one 512-frame tile, the last one partial.
    return rand_spec(rng, 600, GRID), rand_spec(rng, 600, GRID), FcpConfig(
        taps=4, stft=GRID
    )


def _edge_single_frame(rng):
    return rand_spec(rng, 1, GRID), rand_spec(rng, 1, GRID), FcpConfig(
        taps=4, stft=GRID
    )


def _edge_fewer_frames_than_taps(rng):
    return rand_spec(rng, 5, GRID64), rand_spec(rng, 5, GRID64), FcpConfig(
        taps=12, stft=GRID64
    )


def _edge_per_freq_floor(rng):
    target = rand_spec(rng, 30, GRID64)
    target.data[:, ::3] *= 100.0
    return target, rand_spec(rng, 30, GRID64), FcpConfig(
        taps=5, stft=GRID64, per_freq_floor=True
    )


def _edge_zero_shat_column(rng):
    s_hat = rand_spec(rng, 25, GRID64)
    s_hat.data[:, 8] = 0.0
    return rand_spec(rng, 25, GRID64), s_hat, FcpConfig(taps=4, stft=GRID64)


class TestNaiveOracleEdgeCases:
    @pytest.mark.parametrize(
        "case",
        [
            _edge_ragged_bins,
            _edge_partial_frame_tile,
            _edge_single_frame,
            _edge_fewer_frames_than_taps,
            _edge_per_freq_floor,
            _edge_zero_shat_column,
        ],
        ids=lambda case: case.__name__[len("_edge_"):],
    )
    def test_matches_naive_oracle(self, rng, case):
        target, s_hat, config = case(rng)
        g = estimate_fcp_filter(target, s_hat, config)
        want = naive_fcp_filter(target, s_hat, config)
        assert g.shape == (s_hat.bins, config.taps)
        assert np.linalg.norm(g - want) <= 1e-10 * np.linalg.norm(want)
        silent = ~np.any(s_hat.data, axis=0)
        assert np.all(g[silent] == 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_singular_system_takes_lstsq_fallback(self, rng, monkeypatch, threads):
        # Without loading, fewer frames than taps leaves every bin's
        # normal matrix rank-deficient, so every Cholesky factorization
        # fails and the minimum-norm least-squares solution is returned.
        # The solves run on the fit threads.
        failures = []
        cho_factor = fcp_module.cho_factor

        def counting_cho_factor(*args, **kwargs):
            try:
                return cho_factor(*args, **kwargs)
            except LinAlgError:
                failures.append(1)
                raise

        monkeypatch.setattr(fcp_module, "cho_factor", counting_cho_factor)
        target = rand_spec(rng, 5, GRID64)
        s_hat = rand_spec(rng, 5, GRID64)
        config = FcpConfig(taps=12, stft=GRID64, **EXACT)
        g = estimate_fcp_filter(target, s_hat, config, threads)
        want = naive_fcp_filter(target, s_hat, config)
        assert len(failures) == GRID64.bins
        assert np.linalg.norm(g - want) <= 1e-10 * np.linalg.norm(want)


@pytest.fixture(params=["openblas", "scipy"])
def solve_binding(request, monkeypatch):
    """Each binding of ``fcp.cho_factor``/``cho_solve``: LAPACK from
    numpy's OpenBLAS, or scipy's functions, as where numpy bundles none."""
    if request.param == "scipy":
        monkeypatch.setattr(fcp_module, "openblas", lambda: None)
    elif fcp_module.openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    return request.param


def _hpd_system(rng, taps, frames):
    """A Hermitian positive-definite Gram as the fit builds it: made
    exactly Hermitian, with trace-scaled loading on its diagonal."""
    x = rng.standard_normal((taps, frames)) + 1j * rng.standard_normal((taps, frames))
    gram = x @ x.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    gram[np.diag_indices(taps)] += 1e-6 * np.trace(gram).real / taps
    return gram


class TestCholeskyOracle:
    """``fcp.cho_factor``/``cho_solve`` against ``scipy.linalg``, bit for bit."""

    @pytest.mark.parametrize(
        "taps, frames", [(1, 3), (8, 8), (40, 60), (40, 30), (97, 200)]
    )
    def test_solve_equals_scipys(self, rng, solve_binding, taps, frames):
        for _ in range(5):
            system = _hpd_system(rng, taps, frames)
            b = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
            factor = fcp_module.cho_factor(system)
            want = scipy.linalg.cho_factor(system)
            assert factor[1] is want[1] is False
            np.testing.assert_array_equal(factor[0], want[0])
            x = fcp_module.cho_solve(factor, b)
            assert _same_bits(x, scipy.linalg.cho_solve(want, b))

    def test_not_positive_definite_is_linalg_error(self, solve_binding):
        assert LinAlgError is np.linalg.LinAlgError
        system = np.diag([1.0, -1.0, 1.0]).astype(np.complex128)
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            fcp_module.cho_factor(system)

    @pytest.mark.parametrize(
        "system, b", [(np.ones((2, 3)), np.ones(2)), (np.eye(3), np.ones(2))],
        ids=["not_square", "rhs_length"],
    )
    def test_shape_mismatch_is_value_error(self, solve_binding, system, b):
        # Checked before LAPACK is handed a pointer.
        with pytest.raises(ValueError):
            fcp_module.cho_solve(fcp_module.cho_factor(system), b)

    @pytest.mark.parametrize("where", ["system", "rhs"])
    def test_non_finite_is_value_error(self, solve_binding, where):
        system, b = np.eye(3, dtype=np.complex128), np.ones(3, dtype=np.complex128)
        (system if where == "system" else b)[1, ...] = np.nan
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            fcp_module.cho_solve(fcp_module.cho_factor(system), b)


def _signed_zero_inputs(rng):
    # 33 bins x 600 frames: a partial last tile along both axes, zeros of
    # both signs in either part, zero target units and a silent s_hat bin.
    target = rand_spec(rng, 600, GRID64)
    s_hat = rand_spec(rng, 600, GRID64)
    target.data.real[::7] = -0.0
    target.data.imag[3::5] = -0.0
    target.data[::11, 4] = 0.0
    s_hat.data.real[::3, ::2] = -0.0
    s_hat.data.imag[1::4] = -0.0
    s_hat.data[:, 8] = 0.0
    return target, s_hat


def _same_bits(got, want) -> bool:
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestKernelBits:
    """The fit and the filter apply keep the bits of their reference forms."""

    @pytest.mark.parametrize(
        "taps, per_freq_floor, threads",
        [
            # 8 threads is more than most test hosts have cores.
            pytest.param(
                taps, floor, threads,
                id=f"{taps}-{floor}" + (f"-{threads}threads" if threads > 1 else ""),
            )
            # 40 taps is the default filter length.
            for taps, floor, counts in [
                (1, False, (1, 2, 3, 8)), (6, False, (1, 2, 3, 8)),
                (6, True, (1, 2, 3, 8)), (40, False, (1, 2, 3)),
            ]
            for threads in counts
        ],
    )
    def test_fit_equals_divided_tile_reference(
        self, rng, taps, per_freq_floor, threads
    ):
        target, s_hat = _signed_zero_inputs(rng)
        config = FcpConfig(taps=taps, stft=GRID64, per_freq_floor=per_freq_floor)
        # Frequent thread switches, so a lost update between blocks shows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = estimate_fcp_filter(target, s_hat, config, threads)
        finally:
            sys.setswitchinterval(interval)
        want = divided_tile_fcp_filter(target, s_hat, config)
        assert np.array_equal(got, want)
        assert _same_bits(got, want)
        assert np.all(got[8] == 0)

    def test_apply_equals_einsum_form(self, rng):
        _, s_hat = _signed_zero_inputs(rng)
        taps = 6
        g = rng.standard_normal((GRID64.bins, taps)) + 1j * rng.standard_normal(
            (GRID64.bins, taps)
        )
        g.real[::4] = -0.0
        g[5] = 0.0
        got = apply_filter(g, s_hat).data
        stack = fcp_module._tap_stack(s_hat.data, taps)
        want = np.einsum("fat,fa->tf", stack, g.conj())
        assert np.array_equal(got, want)
        assert _same_bits(got, want)

    def test_apply_over_its_input_keeps_the_bits(self, rng):
        _, s_hat = _signed_zero_inputs(rng)
        g = rng.standard_normal((GRID64.bins, 6)) + 1j * rng.standard_normal(
            (GRID64.bins, 6)
        )
        g.real[::4] = -0.0
        want = apply_filter(g, s_hat).data
        image = apply_filter(g, s_hat, out=s_hat.data)
        assert image.data is s_hat.data
        assert _same_bits(image.data, want)

    @pytest.mark.parametrize(
        "shape, dtype", [((600, 32), complex), ((33, 600), complex), ((600, 33), float)]
    )
    def test_apply_rejects_an_output_off_its_input(self, rng, shape, dtype):
        _, s_hat = _signed_zero_inputs(rng)
        g = np.ones((GRID64.bins, 3), dtype=complex)
        with pytest.raises(ValueError, match="out is"):
            apply_filter(g, s_hat, out=np.zeros(shape, dtype=dtype))

    @pytest.mark.parametrize("failing_block", [0, 8, 32])
    def test_threaded_fit_joins_its_threads(self, rng, monkeypatch, failing_block):
        # Batch runners fork worker processes after a fit, so no helper
        # thread may outlive it, also when a block raises.
        target, s_hat = _signed_zero_inputs(rng)
        config = FcpConfig(taps=6, stft=GRID64)
        before = threading.active_count()
        estimate_fcp_filter(target, s_hat, config, 2)
        assert threading.active_count() == before

        tap_stack = fcp_module._tap_stack
        bad = s_hat.data[:, failing_block : failing_block + 8]

        def failing_tap_stack(data, taps):
            if np.array_equal(data, bad):
                raise RuntimeError("block failed")
            return tap_stack(data, taps)

        monkeypatch.setattr(fcp_module, "_tap_stack", failing_tap_stack)
        with pytest.raises(RuntimeError, match="block failed"):
            estimate_fcp_filter(target, s_hat, config, 2)
        assert threading.active_count() == before


class TestBoundedMemory:
    def test_weights_are_built_in_place(self):
        rng = np.random.default_rng(61)
        data = rng.standard_normal((2000, FILTER_STFT.bins)) + 0j
        data[:, 5] = 0.0
        for per_freq_floor in (False, True):
            config = FcpConfig(per_freq_floor=per_freq_floor)
            tracemalloc.start()
            try:
                floor = fcp_module._weight_floor(data, config)
                w = fcp_module._weights(data, floor)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The result plus a boolean mask; no (frames, bins) float
            # temporary, also not for the floor.
            assert peak <= 1.25 * w.nbytes
            power = np.abs(data) ** 2
            floor = config.epsilon * (
                power.max(axis=0, keepdims=True) if per_freq_floor else power.max()
            )
            want = np.where(floor + power > 0.0, floor + power, 1.0)
            assert np.array_equal(w, want.T)
            assert np.all(w[5] == 1.0) == per_freq_floor
            # A fit block's weights are those columns of the whole.
            block = fcp_module._weights(
                data[:, 8:16], fcp_module._weight_floor(data, config)[8:16]
            )
            assert np.array_equal(block, want[:, 8:16].T)
        silent = fcp_module._weights(np.zeros((3, 4), complex), np.zeros(4))
        assert np.array_equal(silent, np.ones((4, 3)))

    def test_sixty_second_fit_stays_under_bound(self):
        # One speaker, 60 s on the filter grid: 7515 frames x 513 bins
        # and 40 taps.  A whole (bins, frames, taps) regressor would be
        # 2.3 GiB on its own; the inputs are allocated before tracing.
        rng = np.random.default_rng(60)
        target = rand_spec(rng, 7515, FILTER_STFT)
        s_hat = rand_spec(rng, 7515, FILTER_STFT)
        for threads in (1, 2):
            # Each fit thread holds its own tiles.
            tracemalloc.start()
            try:
                g = estimate_fcp_filter(target, s_hat, FcpConfig(taps=40), threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert g.shape == (FILTER_STFT.bins, 40)
            assert np.all(np.isfinite(g))
            assert peak < 256 * 2**20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ten_second_fit_holds_no_gram_stack(self, threads):
        # 10 s on the filter grid: 1252 frames x 513 bins and 40 taps.
        # Beyond its filters, a fit holds per fit thread one block's
        # input rows, weights, conjugate target and (8, taps, taps) Gram,
        # and one bin's weighted tile and its conjugate: under five of one
        # bin's (taps, 512) tiles, 0.3 MiB each.  A (frames, bins) weight
        # array alone is 16 of them, and a (bins, taps, taps) Gram stack 40.
        rng = np.random.default_rng(10)
        target = rand_spec(rng, 1252, FILTER_STFT)
        s_hat = rand_spec(rng, 1252, FILTER_STFT)
        config = FcpConfig(taps=40)
        tile = config.taps * fcp_module._FRAME_BLOCK * 16
        tracemalloc.start()
        try:
            g = estimate_fcp_filter(target, s_hat, config, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(g))
        assert peak <= g.nbytes + threads * 5 * tile

    def test_apply_holds_one_output(self):
        # The output, the one-byte-per-unit finiteness check of its
        # spectrogram and one bin block's padded input and products; no
        # padded copy of the whole input and no transposed output.
        rng = np.random.default_rng(11)
        s_hat = rand_spec(rng, 1252, FILTER_STFT)
        g = rng.standard_normal((FILTER_STFT.bins, 40)) + 0j
        tracemalloc.start()
        try:
            out = apply_filter(g, s_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.data.nbytes
        # Written over its input, it holds no output of its own.
        tracemalloc.start()
        try:
            apply_filter(g, s_hat, out=s_hat.data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * out.data.nbytes


class TestOptimalityInvariants:
    def test_weighted_residual_orthogonality(self, rng):
        taps, frames = 4, 40
        target = rand_spec(rng, frames, GRID)
        s_hat = rand_spec(rng, frames, GRID)
        config = FcpConfig(taps=taps, stft=GRID, **EXACT)
        g = estimate_fcp_filter(target, s_hat, config)
        stack = naive_tap_stack(s_hat.data, taps)
        w = weights_of(target.data, config.epsilon)
        pred = np.einsum("tfa,fa->tf", stack, np.conj(g))
        residual = target.data - pred
        corr = np.einsum("tfa,tf->fa", stack, np.conj(residual) / w)
        assert np.max(np.abs(corr)) <= 1e-6

    def test_monotone_objective_in_taps(self, rng):
        frames = 50
        target = rand_spec(rng, frames, GRID)
        s_hat = rand_spec(rng, frames, GRID)
        w = weights_of(target.data, 1e-3)

        def objective(taps):
            config = FcpConfig(taps=taps, stft=GRID, **EXACT)
            g = estimate_fcp_filter(target, s_hat, config)
            pred = np.einsum(
                "tfa,fa->tf", naive_tap_stack(s_hat.data, taps), np.conj(g)
            )
            return float(np.sum(np.abs(target.data - pred) ** 2 / w))

        values = [objective(a) for a in (1, 2, 3, 5, 8)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-9

    def test_scale_equivariance_with_default_loading(self, rng):
        # Trace-scaled loading keeps the solve scale-equivariant even
        # with the default nonzero delta.
        target = rand_spec(rng, 30, GRID)
        s_hat = rand_spec(rng, 30, GRID)
        config = FcpConfig(taps=3, stft=GRID)
        alpha = 7.5
        g1 = estimate_fcp_filter(target, s_hat, config)
        g2 = estimate_fcp_filter(
            target, ComplexSpectrogram(alpha * s_hat.data, GRID), config
        )
        np.testing.assert_allclose(g2, g1 / alpha, rtol=1e-8, atol=1e-12)
        img1 = apply_filter(g1, s_hat)
        img2 = apply_filter(g2, ComplexSpectrogram(alpha * s_hat.data, GRID))
        err = np.linalg.norm(img2.data - img1.data) / np.linalg.norm(img1.data)
        assert err <= 1e-8


class TestApplyFilter:
    def test_zero_filter(self, rng):
        s_hat = rand_spec(rng, 10, GRID)
        out = apply_filter(np.zeros((GRID.bins, 3), complex), s_hat)
        assert np.all(out.data == 0)

    def test_identity_filter(self, rng):
        s_hat = rand_spec(rng, 10, GRID)
        g = np.zeros((GRID.bins, 4), dtype=complex)
        g[:, 0] = 1.0
        out = apply_filter(g, s_hat)
        np.testing.assert_array_equal(out.data, s_hat.data)

    def test_composition_recovers_target(self, rng):
        taps = 5
        s_hat = rand_spec(rng, 40, GRID)
        g0 = rng.standard_normal((GRID.bins, taps)) + 1j * rng.standard_normal(
            (GRID.bins, taps)
        )
        target = ComplexSpectrogram(synth_target(s_hat.data, g0), GRID)
        g = estimate_fcp_filter(
            target, s_hat, FcpConfig(taps=taps, stft=GRID, **EXACT)
        )
        out = apply_filter(g, s_hat)
        err = np.linalg.norm(out.data - target.data) / np.linalg.norm(target.data)
        assert err <= 1e-6

    def test_tap_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_filter(np.zeros((GRID.bins + 1, 3), complex), rand_spec(rng, 5, GRID))


class TestFcpSeparate:
    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            fcp_separate(rand_spec(rng, 5, GRID), [], FcpConfig(stft=GRID))

    def test_order_invariance(self, rng):
        mix = rand_spec(rng, 30, GRID)
        s_hats = [rand_spec(rng, 30, GRID) for _ in range(3)]
        config = FcpConfig(taps=3, stft=GRID)
        fwd = fcp_separate(mix, s_hats, config)
        rev = fcp_separate(mix, s_hats[::-1], config)
        for a, b in zip(fwd, rev[::-1]):
            np.testing.assert_array_equal(a.data, b.data)

    def test_restores_reverberation_single_scene(self, mono_scene):
        scene = mono_scene
        n = scene.num_samples
        mix = stft(scene.mixture, FILTER_STFT)
        s_hat = stft(scene.direct_path[0], FILTER_STFT)
        (image,) = fcp_separate(mix, [s_hat], FcpConfig())
        est = istft(image, output_length=n)
        gain = si_sdr(est, scene.reverberant_image[0]) - si_sdr(
            scene.direct_path[0], scene.reverberant_image[0]
        )
        assert gain >= 5.0

    def test_images_apply_the_fitted_filters(self, rng):
        mix = rand_spec(rng, 20, GRID)
        s_hats = [rand_spec(rng, 20, GRID) for _ in range(2)]
        config = FcpConfig(taps=3, stft=GRID)
        images = fcp_separate(mix, s_hats, config)
        for c in range(2):
            want = apply_filter(estimate_fcp_filter(mix, s_hats[c], config), s_hats[c])
            assert images[c].data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("separate", [fcp_separate, fcp_essu_separate])
def test_separate_leaves_its_arguments_unwritten(rng, separate):
    # The loop writes each image over the direct estimate it is handed;
    # the list drivers hand it copies.
    mixture = rand_spec(rng, 80, GRID64)
    s_hats = [rand_spec(rng, 80, GRID64) for _ in range(3)]
    before = [s.data.tobytes() for s in (mixture, *s_hats)]
    images = separate(mixture, s_hats, FcpConfig(taps=4, stft=GRID64))
    assert [s.data.tobytes() for s in (mixture, *s_hats)] == before
    assert not any(
        np.shares_memory(i.data, s.data) for i in images for s in (mixture, *s_hats)
    )


class TestEnergySort:
    def test_two_speakers(self, rng):
        specs = [
            ComplexSpectrogram(2.0 * np.ones((4, GRID.bins), complex), GRID),
            ComplexSpectrogram(1.0 * np.ones((4, GRID.bins), complex), GRID),
        ]
        assert energy_sort(specs) == [0, 1]
        assert energy_sort(specs[::-1]) == [1, 0]

    def test_tie_break_by_index(self, rng):
        spec = rand_spec(rng, 6, GRID)
        same = [ComplexSpectrogram(spec.data.copy(), GRID) for _ in range(3)]
        assert energy_sort(same) == [0, 1, 2]

    def test_three_way_sort(self):
        def with_energy(e):
            data = np.zeros((4, GRID.bins), dtype=complex)
            data[0, 0] = np.sqrt(e)
            return ComplexSpectrogram(data, GRID)

        specs = [with_energy(0.5), with_energy(2.0), with_energy(1.0)]
        assert energy_sort(specs) == [1, 2, 0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            energy_sort([])


class TestFcpEssu:
    def test_single_source_equals_plain(self, mono_scene):
        scene = mono_scene
        mix = stft(scene.mixture, FILTER_STFT)
        s_hat = stft(scene.direct_path[0], FILTER_STFT)
        config = FcpConfig(taps=8)
        (plain,) = fcp_separate(mix, [s_hat], config)
        (essu,) = fcp_essu_separate(mix, [s_hat], config)
        np.testing.assert_allclose(essu.data, plain.data, atol=1e-10)

    def test_two_speaker_update_order_semantics(self, rng):
        # Literal sequential check: the stronger speaker is fit against
        # the raw mixture, the weaker against the mixture minus the
        # stronger speaker's predicted image.
        mix = rand_spec(rng, 40, GRID)
        strong = ComplexSpectrogram(3.0 * rand_spec(rng, 40, GRID).data, GRID)
        weak = rand_spec(rng, 40, GRID)
        config = FcpConfig(taps=3, stft=GRID)
        images = fcp_essu_separate(mix, [weak, strong], config)

        g_strong = estimate_fcp_filter(mix, strong, config)
        img_strong = apply_filter(g_strong, strong)
        residual = ComplexSpectrogram(mix.data - img_strong.data, GRID)
        g_weak = estimate_fcp_filter(residual, weak, config)
        img_weak = apply_filter(g_weak, weak)

        np.testing.assert_allclose(images[1].data, img_strong.data, atol=1e-12)
        np.testing.assert_allclose(images[0].data, img_weak.data, atol=1e-12)

    def test_exact_recovery_invariant(self, rng):
        # A mixture synthesized as a causal filtering of the lone
        # speaker's estimate is reproduced by both variants.
        taps = 3
        config = FcpConfig(taps=taps, stft=GRID, **EXACT)
        s_hat = rand_spec(rng, 60, GRID)
        g0 = rng.standard_normal((GRID.bins, taps)) + 1j * rng.standard_normal(
            (GRID.bins, taps)
        )
        mix = ComplexSpectrogram(synth_target(s_hat.data, g0), GRID)
        for separate in (fcp_separate, fcp_essu_separate):
            (image,) = separate(mix, [s_hat], config)
            err = np.linalg.norm(image.data - mix.data) / np.linalg.norm(mix.data)
            assert err <= 1e-6

    def test_images_apply_the_fitted_filters(self, rng):
        # Each speaker's target is the mixture minus the images of the
        # speakers fitted before it, subtracted in fitting order.
        self._check_targets(rng, (1.0, 3.0, 2.0), [1, 2, 0])

    @pytest.mark.parametrize(
        "gains, order",
        [
            ((0.5, 2.0, 3.0), [2, 1, 0]),
            ((1.0, 2.0, 3.0, 0.5), [2, 1, 0, 3]),
            ((2.0, 0.5, 3.0, 1.0), [2, 0, 3, 1]),
            ((0.5, 3.0, 1.0, 2.0), [1, 3, 2, 0]),
        ],
    )
    def test_targets_subtract_in_fitting_order(self, rng, gains, order):
        # Energy orders that fit a speaker after one of a higher index:
        # images subtracted in index order would move the bits.
        self._check_targets(rng, gains, order)

    @staticmethod
    def _check_targets(rng, gains, order):
        mix = rand_spec(rng, 20, GRID)
        s_hats = [
            ComplexSpectrogram(gain * rand_spec(rng, 20, GRID).data, GRID)
            for gain in gains
        ]
        config = FcpConfig(taps=2, stft=GRID)
        before = [s.data.copy() for s in [mix, *s_hats]]
        images = fcp_essu_separate(mix, s_hats, config)
        assert all(np.array_equal(a.data, b) for a, b in zip([mix, *s_hats], before))
        assert energy_sort(s_hats) == order
        for i, c in enumerate(order):
            target = mix.data.copy()
            for other in order[:i]:
                target -= images[other].data
            g = estimate_fcp_filter(ComplexSpectrogram(target, GRID), s_hats[c], config)
            want = apply_filter(g, s_hats[c])
            assert images[c].data.tobytes() == want.data.tobytes()
