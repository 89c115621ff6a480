"""Separator surrogate, prediction stage, feature exchange, full pipeline."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cxfilter import (
    ComplexSpectrogram,
    DegradationSpec,
    ExperimentConfig,
    FcpConfig,
    FeatureStack,
    SEPARATOR_STFT,
    SceneSpec,
    SeparatorOutput,
    convert_config,
    export_features,
    fcp_essu_separate,
    fcp_separate,
    import_estimates,
    istft,
    oracle_separate,
    predict,
    run_fcp_stage,
    run_pipeline,
    si_sdr,
    simulate_scene,
    stft,
)
from cxfilter import pipeline as pipeline_module
from cxfilter.pipeline import export_estimates, import_features
from cxfilter.io import read_json, write_json

IDENTITY = DegradationSpec()  # additive_noise at +inf SNR: no-op


def _time(spec, n):
    return istft(spec, output_length=n)


class TestOracleSeparate:
    def test_identity_degradation_is_exact(self, small_scene):
        out = oracle_separate(small_scene, IDENTITY)
        for c in range(2):
            want_d = stft(small_scene.direct_path[c], SEPARATOR_STFT)
            want_i = stft(small_scene.reverberant_image[c], SEPARATOR_STFT)
            assert np.array_equal(out.direct_estimates[c].data, want_d.data)
            assert np.array_equal(out.image_estimates[c].data, want_i.data)

    def test_additive_noise_snr_is_exact(self, small_scene):
        n = small_scene.num_samples
        out = oracle_separate(small_scene, DegradationSpec(snr_db=10.0))
        for c in range(2):
            deg = _time(out.direct_estimates[c], n)
            truth = small_scene.direct_path[c]
            noise = deg - truth
            measured = 10.0 * np.log10(
                np.dot(truth, truth) / np.dot(noise, noise)
            )
            assert measured == pytest.approx(10.0, abs=1e-6)

    def test_same_seed_bit_identical(self, small_scene):
        spec = DegradationSpec(snr_db=5.0, seed=7)
        a = oracle_separate(small_scene, spec)
        b = oracle_separate(small_scene, spec)
        for sa, sb in zip(a.image_estimates, b.image_estimates):
            assert np.array_equal(sa.data, sb.data)

    def test_seed_changes_noise(self, small_scene):
        a = oracle_separate(small_scene, DegradationSpec(snr_db=5.0, seed=0))
        b = oracle_separate(small_scene, DegradationSpec(snr_db=5.0, seed=1))
        assert not np.allclose(a.direct_estimates[0].data, b.direct_estimates[0].data)

    def test_cross_talk_formula(self, small_scene):
        n = small_scene.num_samples
        phi = 0.3
        out = oracle_separate(
            small_scene, DegradationSpec(mode="cross_talk", cross_talk_fraction=phi)
        )
        total = np.sum(small_scene.reverberant_image, axis=0)
        for c in range(2):
            truth = small_scene.reverberant_image[c]
            want = (1.0 - phi) * truth + phi * (total - truth)
            got = _time(out.image_estimates[c], n)
            assert np.allclose(got, want, atol=1e-9)

    def test_combined_mode_noise_relative_to_blend(self, small_scene):
        n = small_scene.num_samples
        spec = DegradationSpec(mode="combined", snr_db=12.0, cross_talk_fraction=0.2)
        out = oracle_separate(small_scene, spec)
        total = np.sum(small_scene.direct_path, axis=0)
        truth = small_scene.direct_path[0]
        blend = 0.8 * truth + 0.2 * (total - truth)
        noise = _time(out.direct_estimates[0], n) - blend
        measured = 10.0 * np.log10(np.dot(blend, blend) / np.dot(noise, noise))
        assert measured == pytest.approx(12.0, abs=1e-6)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DegradationSpec(mode="bitcrush")
        with pytest.raises(ValueError):
            DegradationSpec(snr_db=float("nan"))
        with pytest.raises(ValueError):
            DegradationSpec(snr_db=-np.inf)
        with pytest.raises(ValueError):
            DegradationSpec(cross_talk_fraction=1.0)


class TestRunFcpStage:
    def test_essu_matches_plain_for_one_speaker(self, mono_scene):
        sep = oracle_separate(mono_scene, IDENTITY)
        cfg = FcpConfig(taps=10)
        a = run_fcp_stage(
            mono_scene.mixture, sep, ExperimentConfig(fcp_mode="fcp", fcp=cfg)
        )
        b = run_fcp_stage(
            mono_scene.mixture, sep, ExperimentConfig(fcp_mode="essu", fcp=cfg)
        )
        assert np.allclose(a[0].data, b[0].data, atol=1e-8)

    def test_zero_mixture_gives_zero_images(self):
        n = 4000
        frames = SEPARATOR_STFT.num_frames(n)
        zero = ComplexSpectrogram(
            np.zeros((frames, SEPARATOR_STFT.bins), complex), SEPARATOR_STFT
        )
        sep = SeparatorOutput(direct_estimates=[zero], image_estimates=[zero])
        images = run_fcp_stage(np.zeros(n), sep, ExperimentConfig())
        assert np.max(np.abs(images[0].data)) == 0.0

    def test_restores_reverberation_from_direct_path(self, mono_scene):
        n = mono_scene.num_samples
        sep = oracle_separate(mono_scene, IDENTITY)
        images = run_fcp_stage(
            mono_scene.mixture, sep, ExperimentConfig(fcp=FcpConfig(taps=40))
        )
        truth = mono_scene.reverberant_image[0]
        baseline = si_sdr(mono_scene.direct_path[0], truth)
        predicted = si_sdr(_time(images[0], n), truth)
        assert predicted >= baseline + 3.0

    def test_rejects_non_1d_mixture(self, mono_scene):
        sep = oracle_separate(mono_scene, IDENTITY)
        with pytest.raises(ValueError):
            run_fcp_stage(np.zeros((2, 100)), sep, ExperimentConfig())

    def test_fcp_mode_selects_variant(self, small_scene):
        sep = oracle_separate(small_scene, DegradationSpec(snr_db=10.0))
        cfg = FcpConfig(taps=6, stft=SEPARATOR_STFT)
        for mode, separate in (("fcp", fcp_separate), ("essu", fcp_essu_separate)):
            got = run_fcp_stage(
                small_scene.mixture, sep, ExperimentConfig(fcp_mode=mode, fcp=cfg)
            )
            mix = stft(small_scene.mixture, SEPARATOR_STFT)
            want = separate(mix, sep.direct_estimates, cfg)
            for g, w in zip(got, want):
                assert np.array_equal(g.data, w.data)
        with pytest.raises(ValueError, match="off"):
            run_fcp_stage(
                small_scene.mixture, sep, ExperimentConfig(fcp_mode="off")
            )

    def test_ten_second_essu_stage_peak_is_bounded(self):
        # Two speakers for 10 s: the stage holds the filter-grid mixture,
        # direct estimates, ESSU residual and images, one weight array
        # and tiles at a time, then only the images while it converts
        # them back.  Inputs are allocated before tracing.
        config = ExperimentConfig(fcp_mode="essu")
        n = 10 * config.stft_dnn.sample_rate_hz
        rng = np.random.default_rng(10)
        signals = [rng.standard_normal(n) for _ in range(2)]
        specs = [stft(s, config.stft_dnn) for s in signals]
        sep = SeparatorOutput(direct_estimates=specs, image_estimates=specs)
        mixture = signals[0] + signals[1]
        grid = config.fcp.stft
        spectrogram = grid.num_frames(n) * grid.bins * 16
        tracemalloc.start()
        try:
            images = run_fcp_stage(mixture, sep, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(images) == 2
        assert peak <= 7 * spectrogram

    def test_fcp_grid_comes_from_fcp_config(self, mono_scene):
        n = mono_scene.num_samples
        sep = oracle_separate(mono_scene, IDENTITY)
        cfg = FcpConfig(taps=6)
        assert cfg.stft != SEPARATOR_STFT
        images = run_fcp_stage(mono_scene.mixture, sep, ExperimentConfig(fcp=cfg))
        s_hat = convert_config(sep.direct_estimates[0], cfg.stft, n)
        (image,) = fcp_separate(stft(mono_scene.mixture, cfg.stft), [s_hat], cfg)
        want = convert_config(image, SEPARATOR_STFT, n)
        assert np.array_equal(images[0].data, want.data)


class TestPipelineConfig:
    """The pipeline's fields of the run config it takes, ExperimentConfig."""

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(fcp_mode="wiener")
        for mode in ("off", "fcp"):
            with pytest.raises(ValueError, match="refinement"):
                ExperimentConfig(fcp_mode=mode, refinement="dnn")
        with pytest.raises(ValueError):
            ExperimentConfig(iterations=0)
        # external_dir is checked when the refinement runs, so a config
        # file may name it while a flag supplies the directory.
        ExperimentConfig(refinement="external")


class TestFeatureStack:
    def test_order_and_count(self, small_scene):
        sep = oracle_separate(small_scene, IDENTITY)
        mix = stft(small_scene.mixture, SEPARATOR_STFT)
        stack = FeatureStack(
            mixture=mix,
            stage1_direct=list(sep.direct_estimates),
            stage1_image=list(sep.image_estimates),
            fcp_images=list(sep.image_estimates),
            num_samples=small_scene.num_samples,
        )
        specs = stack.spectrograms()
        assert len(specs) == 1 + 3 * 2
        assert specs[0] is stack.mixture
        assert specs[1] is sep.direct_estimates[0]
        assert specs[2] is sep.image_estimates[0]
        assert specs[4] is sep.direct_estimates[1]

    def test_validation(self, small_scene):
        sep = oracle_separate(small_scene, IDENTITY)
        mix = stft(small_scene.mixture, SEPARATOR_STFT)
        with pytest.raises(ValueError):
            FeatureStack(
                mixture=mix,
                stage1_direct=list(sep.direct_estimates),
                stage1_image=list(sep.image_estimates),
                fcp_images=list(sep.image_estimates[:1]),
                num_samples=small_scene.num_samples,
            )
        with pytest.raises(ValueError):
            SeparatorOutput(direct_estimates=[], image_estimates=[])


class TestFeatureExchange:
    def _float32_scene_stack(self, scene):
        """Stack built from float32-quantized signals so WAVs are lossless."""
        n = scene.num_samples
        q = lambda x: x.astype(np.float32).astype(np.float64)
        directs = [stft(q(s), SEPARATOR_STFT) for s in scene.direct_path]
        images = [stft(q(s), SEPARATOR_STFT) for s in scene.reverberant_image]
        sep = SeparatorOutput(direct_estimates=directs, image_estimates=images)
        mix = stft(q(scene.mixture), SEPARATOR_STFT)
        stack = FeatureStack(
            mixture=mix,
            stage1_direct=directs,
            stage1_image=images,
            fcp_images=images,
            num_samples=n,
        )
        return stack, sep, n

    def test_features_round_trip(self, small_scene, tmp_path):
        stack, _, n = self._float32_scene_stack(small_scene)
        manifest = export_features(stack, tmp_path / "feat")
        assert manifest.name == "features.json"
        assert (tmp_path / "feat" / "mixture.wav").is_file()
        assert (tmp_path / "feat" / "s2_fcp_image.wav").is_file()
        back = import_features(tmp_path / "feat")
        assert back.num_speakers == 2
        assert back.num_samples == n
        for a, b in zip(stack.spectrograms(), back.spectrograms()):
            assert np.allclose(a.data, b.data, atol=1e-6)

    def test_features_manifest_contents(self, small_scene, tmp_path):
        stack, _, n = self._float32_scene_stack(small_scene)
        manifest = read_json(export_features(stack, tmp_path))
        assert manifest["format"] == "feature-stack"
        assert manifest["version"] == 1
        assert manifest["num_samples"] == n
        assert manifest["files"][0] == "mixture.wav"
        assert len(manifest["files"]) == 7

    @pytest.mark.parametrize("speakers", [1, 2, 3])
    def test_estimates_round_trip(self, tmp_path, speakers):
        scene = simulate_scene(
            SceneSpec(num_speakers=speakers, duration_s=0.8, t60_s=0.3, seed=903)
        )
        _, sep, n = self._float32_scene_stack(scene)
        export_estimates(sep, tmp_path / "est", n)
        for c in range(1, speakers + 1):
            assert (tmp_path / "est" / f"s{c}_direct.wav").is_file()
            assert (tmp_path / "est" / f"s{c}_image.wav").is_file()
        back, length = import_estimates(tmp_path / "est")
        assert length == n
        assert back.num_speakers == speakers
        # Every speaker's direct estimate and image return in their own slot.
        for want, got in (
            (sep.direct_estimates, back.direct_estimates),
            (sep.image_estimates, back.image_estimates),
        ):
            for a, b in zip(want, got, strict=True):
                assert np.allclose(a.data, b.data, atol=1e-6)

    def test_missing_manifest_is_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="features.json"):
            import_features(tmp_path)
        with pytest.raises(FileNotFoundError, match="estimates.json"):
            import_estimates(tmp_path)

    def test_version_mismatch_rejected(self, small_scene, tmp_path):
        stack, _, _ = self._float32_scene_stack(small_scene)
        export_features(stack, tmp_path)
        manifest = read_json(tmp_path / "features.json")
        manifest["version"] = 99
        write_json(tmp_path / "features.json", manifest)
        with pytest.raises(ValueError, match="version"):
            import_features(tmp_path)

    @pytest.mark.parametrize("key", ["num_samples", "stft", "num_speakers"])
    def test_missing_manifest_key_is_named(self, small_scene, tmp_path, key):
        stack, sep, n = self._float32_scene_stack(small_scene)
        export_features(stack, tmp_path / "feat")
        export_estimates(sep, tmp_path / "est", n)
        for directory, name, read in (
            (tmp_path / "feat", "features.json", import_features),
            (tmp_path / "est", "estimates.json", import_estimates),
        ):
            manifest = read_json(directory / name)
            del manifest[key]
            write_json(directory / name, manifest)
            with pytest.raises(ValueError, match=rf"missing required key\(s\) {key}"):
                read(directory)

    def test_missing_wav_is_named(self, small_scene, tmp_path):
        stack, _, _ = self._float32_scene_stack(small_scene)
        export_features(stack, tmp_path)
        (tmp_path / "s1_stage1_image.wav").unlink()
        with pytest.raises(FileNotFoundError, match="s1_stage1_image.wav"):
            import_features(tmp_path)


class TestRunPipeline:
    def test_oracle_passthrough_scores_at_top(self, small_scene):
        result = run_pipeline(small_scene, ExperimentConfig(fcp=FcpConfig(taps=10)))
        assert result.report.mean["si_sdr_db"] >= 60.0
        assert len(result.image_estimates) == 2
        assert result.features.num_speakers == 2

    def test_fcp_substitute_fixed_point(self, mono_scene):
        cfg = dict(
            refinement="fcp_substitute", fcp=FcpConfig(taps=10)
        )
        one = run_pipeline(mono_scene, ExperimentConfig(iterations=1, **cfg))
        two = run_pipeline(mono_scene, ExperimentConfig(iterations=2, **cfg))
        # Oracle direct estimates never change, so a second FCP pass
        # reproduces the first bit for bit.
        assert np.array_equal(one.image_estimates[0], two.image_estimates[0])

    def test_predict_is_the_pipeline_before_scoring(self, mono_scene):
        config = ExperimentConfig(
            refinement="fcp_substitute", iterations=2, fcp=FcpConfig(taps=10)
        )
        separator, stack = predict(mono_scene, config)
        result = run_pipeline(mono_scene, config)
        # predict returns the estimates its last stack was built from;
        # run_pipeline's last refinement substitutes that stack's images.
        assert separator.image_estimates == stack.stage1_image
        assert np.array_equal(
            result.image_estimates[0],
            istft(stack.fcp_images[0], output_length=mono_scene.num_samples),
        )
        assert predict(mono_scene, replace(config, fcp_mode="off"))[1] is None

    @pytest.mark.parametrize(
        "refinement, stage_calls",
        [("passthrough", 1), ("fcp_substitute", 1), ("external", 3)],
    )
    def test_prediction_stage_reruns_only_after_external(
        self, mono_scene, tmp_path, monkeypatch, refinement, stage_calls
    ):
        calls = []
        stage = pipeline_module.run_fcp_stage

        def counting_stage(*args):
            calls.append(1)
            return stage(*args)

        monkeypatch.setattr(pipeline_module, "run_fcp_stage", counting_stage)
        estimates = oracle_separate(mono_scene, DegradationSpec(snr_db=20.0))
        for iteration in (1, 2):
            directory = tmp_path / f"iteration_{iteration}" / "estimates"
            export_estimates(estimates, directory, mono_scene.num_samples)
        config = ExperimentConfig(
            refinement=refinement,
            iterations=3,
            external_dir=str(tmp_path),
            fcp=FcpConfig(taps=4),
        )
        separator, stack = predict(mono_scene, config)
        assert len(calls) == stage_calls
        # The last stack's images are those of its direct estimates.
        again = stage(mono_scene.mixture, separator, config)
        assert all(
            np.array_equal(a.data, b.data) for a, b in zip(stack.fcp_images, again)
        )

    def test_external_mode_two_phase(self, mono_scene, tmp_path):
        config = ExperimentConfig(
            refinement="external",
            external_dir=str(tmp_path),
            fcp=FcpConfig(taps=10),
        )
        with pytest.raises(FileNotFoundError) as err:
            run_pipeline(mono_scene, config)
        expected = tmp_path / "iteration_1" / "estimates" / "estimates.json"
        assert str(expected) in str(err.value)
        assert (tmp_path / "iteration_1" / "features" / "features.json").is_file()

        # Phase two: an external tool answers with refined estimates.
        sep = oracle_separate(mono_scene, IDENTITY)
        export_estimates(
            sep, tmp_path / "iteration_1" / "estimates", mono_scene.num_samples
        )
        result = run_pipeline(mono_scene, config)
        assert result.report.mean["si_sdr_db"] >= 60.0

    def test_external_estimates_of_another_length_rejected(self, mono_scene, tmp_path):
        config = ExperimentConfig(
            refinement="external", external_dir=str(tmp_path), fcp=FcpConfig(taps=4)
        )
        longer = simulate_scene(replace(mono_scene.spec, duration_s=3.0))
        export_estimates(
            oracle_separate(longer, IDENTITY),
            tmp_path / "iteration_1" / "estimates",
            longer.num_samples,
        )
        with pytest.raises(
            ValueError, match="carry 24000 samples but the scene has 12000"
        ):
            run_pipeline(mono_scene, config)

    def test_external_estimates_at_another_rate_rejected(self, mono_scene, tmp_path):
        # As many samples as the scene, declared and written at 16 kHz.
        config = ExperimentConfig(
            refinement="external", external_dir=str(tmp_path), fcp=FcpConfig(taps=4)
        )
        grid = replace(SEPARATOR_STFT, sample_rate_hz=16000)
        export_estimates(
            oracle_separate(mono_scene, IDENTITY, grid),
            tmp_path / "iteration_1" / "estimates",
            mono_scene.num_samples,
        )
        with pytest.raises(
            ValueError, match="sampled at 16000 Hz but the scene at 8000 Hz"
        ):
            run_pipeline(mono_scene, config)

    def test_external_estimates_of_another_speaker_count_rejected(
        self, mono_scene, small_scene, tmp_path
    ):
        config = ExperimentConfig(
            refinement="external", external_dir=str(tmp_path), fcp=FcpConfig(taps=4)
        )
        export_estimates(
            oracle_separate(small_scene, IDENTITY),
            tmp_path / "iteration_1" / "estimates",
            small_scene.num_samples,
        )
        with pytest.raises(
            ValueError,
            match="estimate speaker count 2 does not match scene speaker count 1",
        ):
            run_pipeline(mono_scene, config)

    def test_external_refinement_requires_external_dir(self, mono_scene):
        config = ExperimentConfig(refinement="external", fcp=FcpConfig(taps=4))
        with pytest.raises(ValueError, match="external_dir"):
            run_pipeline(mono_scene, config)
        # Without a prediction stage the refinement never runs.
        result = run_pipeline(mono_scene, replace(config, fcp_mode="off"))
        assert result.features is None

    def test_mean_score_monotone_in_degradation(self):
        from cxfilter import SceneSpec, simulate_scene

        scenes = [
            simulate_scene(SceneSpec(num_speakers=1, duration_s=0.8, seed=s))
            for s in range(5)
        ]
        means = []
        for snr in (np.inf, 20.0, 10.0, 0.0):
            scores = []
            for i, scene in enumerate(scenes):
                sep = oracle_separate(scene, DegradationSpec(snr_db=snr, seed=i))
                est = _time(sep.image_estimates[0], scene.num_samples)
                scores.append(si_sdr(est, scene.reverberant_image[0]))
            means.append(np.mean(scores))
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_degraded_then_substituted_beats_degraded(self, mono_scene):
        noisy = DegradationSpec(snr_db=5.0, seed=3)
        baseline = run_pipeline(
            mono_scene, ExperimentConfig(degradation=noisy, fcp=FcpConfig(taps=40))
        )
        substituted = run_pipeline(
            mono_scene,
            ExperimentConfig(
                degradation=noisy,
                refinement="fcp_substitute",
                fcp=FcpConfig(taps=40),
            ),
        )
        assert (
            substituted.report.mean["si_sdr_db"]
            > baseline.report.mean["si_sdr_db"]
        )
