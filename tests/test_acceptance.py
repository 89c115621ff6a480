"""Acceptance gate: ten numbered end-to-end criteria with runtime budgets.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts both the criterion and its runtime budget.  Scene batches are
seeded, so every run measures the same fixtures.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from cxfilter import (
    ComplexSpectrogram,
    DegradationSpec,
    FILTER_STFT,
    FcpConfig,
    SEPARATOR_STFT,
    StftConfig,
    apply_filter,
    enh_loss,
    estimate_fcp_filter,
    fcp_essu_separate,
    fcp_separate,
    istft,
    low_energy_mask,
    mc_loss,
    pit_loss,
    si_sdr,
    si_sdr_le,
    simulate_scene,
    stft,
)
from cxfilter.experiment import ExperimentConfig, SceneRanges
from cxfilter.io import config_to_dict, write_json
from cxfilter.pipeline import oracle_separate, run_fcp_stage, run_pipeline

QUANTILES = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _finish(num, ok, detail, t0, budget):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} ({elapsed:.1f}s / {budget:.0f}s budget): {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f}s >= {budget}s"


def _ranges(**kw):
    base = dict(
        num_speakers=1,
        duration_s=2.0,
        t60_range_s=(0.2, 0.5),
        drr_range_db=(-5.0, 0.0),
        noise_snr_range_db=(20.0, 30.0),
    )
    base.update(kw)
    return SceneRanges(**base)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _loop_tap_stack(data, taps):
    frames, bins = data.shape
    out = np.zeros((frames, bins, taps), dtype=complex)
    for t in range(frames):
        for k in range(min(taps, t + 1)):
            out[t, :, k] = data[t - k, :]
    return out


def test_criterion_01_stft_round_trip():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = np.inf
    for _ in range(20):
        x = rng.standard_normal(16000)  # 2 s at 8 kHz
        for config in (SEPARATOR_STFT, FILTER_STFT):
            y = istft(stft(x, config), output_length=16000)
            worst = min(worst, si_sdr(y, x))
    _finish(1, worst >= 60.0, f"worst round-trip SI-SDR {worst:.1f} dB (>= 60)", t0, 10.0)


def test_criterion_02_wls_matches_pinv_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    grid = StftConfig(8, 2, 8, 8000)  # 5 bins
    worst = 0.0
    for _ in range(100):
        taps = int(rng.integers(1, 4))  # A <= 3
        frames = int(rng.integers(taps + 2, 9))  # T <= 8, overdetermined
        target = ComplexSpectrogram(_rand_complex(rng, (frames, grid.bins)), grid)
        s_hat = ComplexSpectrogram(_rand_complex(rng, (frames, grid.bins)), grid)
        config = FcpConfig(taps=taps, stft=grid, diag_load_delta=0.0)
        g = estimate_fcp_filter(target, s_hat, config)
        stack = _loop_tap_stack(s_hat.data, taps)
        power = np.abs(target.data) ** 2
        weights = config.epsilon * power.max() + power
        for f in range(grid.bins):
            d = 1.0 / np.sqrt(weights[:, f])
            oracle = np.conj(
                np.linalg.pinv(stack[:, f, :] * d[:, None]) @ (target.data[:, f] * d)
            )
            err = np.linalg.norm(g[f] - oracle) / max(np.linalg.norm(oracle), 1e-12)
            worst = max(worst, err)
    _finish(2, worst <= 1e-8, f"worst relative error {worst:.2e} (<= 1e-8)", t0, 5.0)


def test_criterion_03_exact_filter_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)
    grid = StftConfig(128, 32, 128, 8000)  # 65 bins
    worst_g, worst_img = 0.0, 0.0
    for taps in (1, 5, 40):
        frames = 4 * taps + 16
        s_hat = ComplexSpectrogram(_rand_complex(rng, (frames, grid.bins)), grid)
        g0 = _rand_complex(rng, (grid.bins, taps))
        stack = _loop_tap_stack(s_hat.data, taps)
        target = ComplexSpectrogram(
            np.einsum("tfa,fa->tf", stack, np.conj(g0)), grid
        )
        config = FcpConfig(taps=taps, stft=grid, diag_load_delta=0.0)
        g = estimate_fcp_filter(target, s_hat, config)
        worst_g = max(
            worst_g,
            max(
                np.linalg.norm(g[f] - g0[f]) / np.linalg.norm(g0[f])
                for f in range(grid.bins)
            ),
        )
        image = apply_filter(g, s_hat)
        worst_img = max(
            worst_img,
            np.linalg.norm(image.data - target.data) / np.linalg.norm(target.data),
        )
    ok = worst_g <= 1e-6 and worst_img <= 1e-6
    _finish(
        3,
        ok,
        f"worst filter error {worst_g:.2e}, worst image error {worst_img:.2e} (<= 1e-6)",
        t0,
        30.0,
    )


def test_criterion_04_essu_single_source_degeneracy():
    t0 = time.monotonic()
    ranges = _ranges(duration_s=1.0)
    config = FcpConfig(taps=16)
    worst = 0.0
    for i in range(10):
        scene = simulate_scene(ranges.draw_scene_spec(401, i))
        mix = stft(scene.mixture, config.stft)
        s_hat = stft(scene.direct_path[0], config.stft)
        plain = fcp_separate(mix, [s_hat], config)
        essu = fcp_essu_separate(mix, [s_hat], config)
        worst = max(worst, float(np.max(np.abs(plain[0].data - essu[0].data))))
    _finish(4, worst <= 1e-10, f"worst |plain - essu| {worst:.2e} (<= 1e-10)", t0, 20.0)


def test_criterion_05_fcp_restores_reverberation():
    t0 = time.monotonic()
    ranges = _ranges()
    gains = []
    for i in range(50):
        scene = simulate_scene(ranges.draw_scene_spec(501, i))
        sep = oracle_separate(scene, DegradationSpec())
        images = run_fcp_stage(scene.mixture, sep, ExperimentConfig())
        truth = scene.reverberant_image[0]
        before = si_sdr(scene.direct_path[0], truth)
        after = si_sdr(images[0], truth)
        gains.append(after - before)
    mean_gain = float(np.mean(gains))
    _finish(
        5,
        mean_gain >= 5.0,
        f"mean SI-SDR gain over direct-path baseline {mean_gain:.2f} dB (>= 5), "
        f"50 scenes",
        t0,
        120.0,
    )


def test_criterion_06_essu_beats_fcp_for_weak_speaker():
    t0 = time.monotonic()
    ranges = _ranges(num_speakers=2, speaker_gains_db=(0.0, -10.0))
    config = FcpConfig(taps=20)
    weak = {"fcp": [], "essu": []}
    for i in range(50):
        scene = simulate_scene(ranges.draw_scene_spec(601, i))
        sep = oracle_separate(scene, DegradationSpec(snr_db=10.0, seed=i))
        for variant, bucket in weak.items():
            images = run_fcp_stage(
                scene.mixture,
                sep,
                ExperimentConfig(fcp_mode=variant, fcp=config),
            )
            bucket.append(si_sdr(images[1], scene.reverberant_image[1]))
    mean_fcp = float(np.mean(weak["fcp"]))
    mean_essu = float(np.mean(weak["essu"]))
    _finish(
        6,
        mean_essu >= mean_fcp,
        f"weak-speaker mean SI-SDR: essu {mean_essu:.2f} dB vs fcp {mean_fcp:.2f} dB, "
        f"50 scenes",
        t0,
        300.0,
    )


def test_criterion_07_loss_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(1007)
    grid = StftConfig(16, 4, 16, 8000)

    def spec():
        return ComplexSpectrogram(_rand_complex(rng, (5, grid.bins)), grid)

    def ri_mag(est, ref):
        d = est.data - ref.data
        mag = np.abs(np.abs(est.data) - np.abs(ref.data))
        return float(
            (np.abs(d.real).sum() + np.abs(d.imag).sum() + mag.sum()) / (3 * d.size)
        )

    pit_exact = True
    for _ in range(100):
        ests = [spec() for _ in range(3)]
        refs = [spec() for _ in range(3)]
        best_perm, best_total = None, np.inf
        for perm in itertools.permutations(range(3)):
            total = sum(ri_mag(ests[perm[c]], refs[c]) for c in range(3))
            if total < best_total:
                best_perm, best_total = perm, total
        out = pit_loss(ests, refs)
        if out.permutation != best_perm or abs(out.total - best_total) > 1e-12:
            pit_exact = False
            break

    mc_ok = True
    for _ in range(10):
        parts = [spec() for _ in range(3)]
        mix = ComplexSpectrogram(parts[0].data + parts[1].data + parts[2].data, grid)
        if abs(mc_loss(parts, mix)) > 1e-12:
            mc_ok = False
            break

    bound_ok = True
    for _ in range(50):
        ests = [spec() for _ in range(3)]
        refs = [spec() for _ in range(3)]
        total = pit_loss(ests, refs).total
        for perm in itertools.permutations(range(3)):
            if total > enh_loss(ests, refs, perm) + 1e-12:
                bound_ok = False
    ok = pit_exact and mc_ok and bound_ok
    _finish(
        7,
        ok,
        f"pit==bruteforce: {pit_exact}, mc(consistent)==0: {mc_ok}, "
        f"pit<=enh: {bound_ok}",
        t0,
        30.0,
    )


def test_criterion_08_metric_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(1008)

    worst_scale = 0.0
    for _ in range(10):
        ref = rng.standard_normal(2000)
        est = ref + 0.2 * rng.standard_normal(2000)
        base = si_sdr(est, ref)
        for beta in (1e-3, 0.1, 10.0, 1e3):
            worst_scale = max(worst_scale, abs(si_sdr(beta * est, ref) - base))

    worst_le = 0.0
    for _ in range(10):
        ref = rng.standard_normal(8000)
        est = ref + 0.1 * rng.standard_normal(8000)
        worst_le = max(worst_le, abs(si_sdr_le(est, ref, 1.0) - si_sdr(est, ref)))

    cfg = StftConfig(2, 1, 2, 8000)
    energies = np.array([[0.0, 1.0], [1.0, 2.0], [3.0, 4.0]])
    fixture = ComplexSpectrogram(np.sqrt(energies).astype(complex), cfg)
    hand = np.array([[True, True], [True, False], [False, False]])
    mask_ok = np.array_equal(low_energy_mask(fixture, 0.5), hand)

    ok = worst_scale <= 1e-6 and worst_le <= 0.1 and mask_ok
    _finish(
        8,
        ok,
        f"scale drift {worst_scale:.2e} dB (<= 1e-6), |le(1.0)-si_sdr| "
        f"{worst_le:.3f} dB (<= 0.1), 6-unit mask exact: {mask_ok}",
        t0,
        10.0,
    )


def test_criterion_09_quantile_improvement_curve():
    t0 = time.monotonic()
    ranges = _ranges(num_speakers=2)
    improvements = {q: [] for q in QUANTILES}
    for i in range(8):
        scene = simulate_scene(ranges.draw_scene_spec(901, i))
        degradation = DegradationSpec(snr_db=10.0, seed=i)
        sep = oracle_separate(scene, degradation)
        # Without the prediction stage the pipeline has no image model;
        # its image estimates fall back to the direct-path estimates.
        baseline = sep.direct_estimates
        separator, _ = run_pipeline(
            scene,
            ExperimentConfig(
                degradation=degradation, fcp_mode="essu", refinement="fcp_substitute"
            ),
        )
        images = separator.image_estimates
        for c in range(2):
            ref = scene.reverberant_image[c]
            for q in QUANTILES:
                improvements[q].append(
                    si_sdr_le(images[c], ref, q)
                    - si_sdr_le(baseline[c], ref, q)
                )
    means = {q: float(np.mean(improvements[q])) for q in QUANTILES}
    ok = all(v > 0.0 for v in means.values())
    curve = " ".join(f"{q}:{means[q]:+.1f}" for q in QUANTILES)
    _finish(9, ok, f"mean improvement per quantile (dB): {curve}", t0, 300.0)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    config = config_to_dict(
        ExperimentConfig(
            num_scenes=1,
            scene=_ranges(duration_s=0.8),
            degradation=DegradationSpec(snr_db=15.0),
            fcp_mode="fcp",
        )
    )
    config["fcp"]["taps"] = 3
    config_path = tmp_path / "config.json"
    write_json(config_path, config)
    out = tmp_path / "out"
    argv = [
        sys.executable,
        "-m",
        "cxfilter",
        "separate",
        "--config",
        str(config_path),
        "--out",
        str(out),
    ]
    first = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    snapshot = (out / "report.json").read_bytes()
    second = subprocess.run(argv, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr
    identical = (out / "report.json").read_bytes() == snapshot
    _finish(
        10,
        identical,
        f"two `cxfilter separate` runs, report.json byte-identical: {identical}",
        t0,
        60.0,
    )
