"""Separator surrogate, prediction stage, feature exchange, full pipeline."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cxfilter import (
    DegradationSpec,
    ExperimentConfig,
    FILTER_STFT,
    FcpConfig,
    FeatureStack,
    SEPARATOR_STFT,
    SceneSpec,
    SeparatorOutput,
    evaluate_scene,
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


class TestOracleSeparate:
    def test_identity_degradation_is_exact(self, small_scene):
        out = oracle_separate(small_scene, IDENTITY)
        for c in range(2):
            assert np.array_equal(out.direct_estimates[c], small_scene.direct_path[c])
            assert np.array_equal(
                out.image_estimates[c], small_scene.reverberant_image[c]
            )

    def test_additive_noise_snr_is_exact(self, small_scene):
        out = oracle_separate(small_scene, DegradationSpec(snr_db=10.0))
        for c in range(2):
            deg = out.direct_estimates[c]
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
            assert np.array_equal(sa, sb)

    def test_seed_changes_noise(self, small_scene):
        a = oracle_separate(small_scene, DegradationSpec(snr_db=5.0, seed=0))
        b = oracle_separate(small_scene, DegradationSpec(snr_db=5.0, seed=1))
        assert not np.allclose(a.direct_estimates[0], b.direct_estimates[0])

    def test_cross_talk_formula(self, small_scene):
        phi = 0.3
        out = oracle_separate(
            small_scene, DegradationSpec(mode="cross_talk", cross_talk_fraction=phi)
        )
        total = np.sum(small_scene.reverberant_image, axis=0)
        for c in range(2):
            truth = small_scene.reverberant_image[c]
            want = (1.0 - phi) * truth + phi * (total - truth)
            got = out.image_estimates[c]
            assert np.allclose(got, want, atol=1e-9)

    def test_combined_mode_noise_relative_to_blend(self, small_scene):
        spec = DegradationSpec(mode="combined", snr_db=12.0, cross_talk_fraction=0.2)
        out = oracle_separate(small_scene, spec)
        total = np.sum(small_scene.direct_path, axis=0)
        truth = small_scene.direct_path[0]
        blend = 0.8 * truth + 0.2 * (total - truth)
        noise = out.direct_estimates[0] - blend
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
        assert np.allclose(a[0], b[0], atol=1e-8)

    def test_zero_mixture_gives_zero_images(self):
        n = 4000
        zero = np.zeros(n)
        sep = SeparatorOutput(direct_estimates=[zero], image_estimates=[zero])
        images = run_fcp_stage(np.zeros(n), sep, ExperimentConfig())
        assert np.max(np.abs(images[0])) == 0.0

    def test_restores_reverberation_from_direct_path(self, mono_scene):
        sep = oracle_separate(mono_scene, IDENTITY)
        images = run_fcp_stage(
            mono_scene.mixture, sep, ExperimentConfig(fcp=FcpConfig(taps=40))
        )
        truth = mono_scene.reverberant_image[0]
        baseline = si_sdr(mono_scene.direct_path[0], truth)
        predicted = si_sdr(images[0], truth)
        assert predicted >= baseline + 3.0

    def test_rejects_non_1d_mixture(self, mono_scene):
        sep = oracle_separate(mono_scene, IDENTITY)
        with pytest.raises(ValueError):
            run_fcp_stage(np.zeros((2, 100)), sep, ExperimentConfig())

    @pytest.mark.parametrize("mixture_len, frames", [(2000, 35), (6000, 97)])
    @pytest.mark.parametrize("equal_grids", [False, True], ids=["grids", "one_grid"])
    def test_rejects_a_mixture_off_the_estimates_frames(
        self, mixture_len, frames, equal_grids
    ):
        # Estimates of a 4000-sample signal have 66 frames on the 256/64
        # grid.  A shorter mixture, of 35 frames, once returned images of
        # its own length.  The stage compares lengths, so a mixture of the
        # estimates' 66 frames but one sample more is rejected too.
        grid = SEPARATOR_STFT if equal_grids else FILTER_STFT
        config = ExperimentConfig(fcp=FcpConfig(taps=4, stft=grid))
        rng = np.random.default_rng(66)
        signal = rng.standard_normal(4000)
        sep = SeparatorOutput(direct_estimates=[signal], image_estimates=[signal])
        assert SEPARATOR_STFT.num_frames(mixture_len) == frames
        assert SEPARATOR_STFT.num_frames(4001) == SEPARATOR_STFT.num_frames(4000)
        for length in (mixture_len, 4001):
            mixture = rng.standard_normal(length)
            with pytest.raises(ValueError, match=rf"\b{length} samples.*\b4000\b"):
                run_fcp_stage(mixture, sep, config)

    def test_fcp_mode_selects_variant(self, small_scene):
        sep = oracle_separate(small_scene, DegradationSpec(snr_db=10.0))
        cfg = FcpConfig(taps=6, stft=SEPARATOR_STFT)
        for mode, separate in (("fcp", fcp_separate), ("essu", fcp_essu_separate)):
            got = run_fcp_stage(
                small_scene.mixture, sep, ExperimentConfig(fcp_mode=mode, fcp=cfg)
            )
            mix = stft(small_scene.mixture, SEPARATOR_STFT)
            s_hats = [stft(s, SEPARATOR_STFT) for s in sep.direct_estimates]
            want = separate(mix, s_hats, cfg)
            for g, w in zip(got, want):
                assert np.array_equal(g, istft(w, small_scene.num_samples))
        with pytest.raises(ValueError, match="off"):
            run_fcp_stage(
                small_scene.mixture, sep, ExperimentConfig(fcp_mode="off")
            )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("equal_grids", [False, True], ids=["grids", "one_grid"])
    @pytest.mark.parametrize("mode", ["fcp", "essu"])
    @pytest.mark.parametrize(
        "gains",
        [(1.0,), (1.0, 2.0), (2.0, 1.0), (1.0, 3.0, 0.5), (3.0, 2.0, 1.0),
         (0.5, 1.0, 3.0), (1.0, 3.0, 0.5, 2.0), (0.5, 3.0, 1.0, 2.0),
         (1.0, 2.0, 3.0, 0.5)],
        ids=lambda gains: "-".join(f"{g:g}" for g in gains),
    )
    def test_bytes_equal_the_list_composition(self, gains, mode, equal_grids, threads):
        # The stage keeps the bits of analysing every direct estimate,
        # running fcp_*_separate on the lists and synthesising every image.
        # Speaker gains set the ESSU order, also to orders other
        # than the speaker order; the loop both sides share is checked
        # against the literal ESSU targets in TestFcpEssu.
        grid = SEPARATOR_STFT if equal_grids else FILTER_STFT
        config = ExperimentConfig(fcp_mode=mode, fcp=FcpConfig(taps=6, stft=grid))
        n = 3000
        rng = np.random.default_rng(len(gains))
        signals = [g * rng.standard_normal(n) for g in gains]
        sep = SeparatorOutput(direct_estimates=signals, image_estimates=signals)
        mixture = np.sum(signals, axis=0) + 0.1 * rng.standard_normal(n)

        s_hats = [stft(s, grid) for s in signals]
        separate = fcp_essu_separate if mode == "essu" else fcp_separate
        images = separate(stft(mixture, grid), s_hats, config.fcp)
        want = [istft(image, n) for image in images]

        got = run_fcp_stage(mixture, sep, config, threads)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert all(g.shape == (n,) for g in got)

    @pytest.mark.parametrize("equal_grids", [False, True], ids=["grids", "one_grid"])
    @pytest.mark.parametrize("mode", ["fcp", "essu"])
    def test_ten_second_stage_peak_is_bounded(self, mode, equal_grids):
        # 10 s scenes at 1 and 2 fit threads.  The stage holds the
        # prediction-grid mixture (under ESSU the residual, written in
        # place), one prediction-grid direct estimate with its image written
        # over it, each fit thread's tiles, and the image signals synthesised
        # so far (a sixteenth of a filter-grid spectrogram each, a quarter
        # of a 256/64 one).  On the filter grid that stays under 2.75
        # spectrograms with up to 3 speakers; on one grid, where a fit
        # thread's tiles are half of a spectrogram, under 4.  The gains
        # (1, 3, 2) fit speaker 0 after speakers 1 and 2 under ESSU.
        # Inputs are allocated before tracing.
        grid = SEPARATOR_STFT if equal_grids else FILTER_STFT
        config = ExperimentConfig(fcp_mode=mode, fcp=FcpConfig(stft=grid))
        n = 10 * config.stft_dnn.sample_rate_hz
        spectrogram = grid.num_frames(n) * grid.bins * 16
        rng = np.random.default_rng(10)
        speakers = [(1.0, 1.0), (1.0, 3.0, 2.0)]
        for threads, gains in itertools.product((1, 2), speakers):
            signals = [g * rng.standard_normal(n) for g in gains]
            sep = SeparatorOutput(direct_estimates=signals, image_estimates=signals)
            mixture = np.sum(signals, axis=0)
            tracemalloc.start()
            try:
                images = run_fcp_stage(mixture, sep, config, threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(images) == len(gains)
            bound = 4 if equal_grids else 2.75
            assert peak <= bound * spectrogram, (threads, gains, peak / spectrogram)

    @pytest.mark.parametrize("mode", ["fcp", "essu"])
    def test_one_grid_leaves_the_estimates_unwritten(self, mode):
        # The loop writes each image over the direct estimate it is
        # handed; the stage hands it an analysis of the estimate's signal.
        config = ExperimentConfig(
            fcp_mode=mode, fcp=FcpConfig(taps=6, stft=SEPARATOR_STFT)
        )
        rng = np.random.default_rng(7)
        directs = [g * rng.standard_normal(3000) for g in (1.0, 2.0)]
        images = [2 * s for s in directs]
        sep = SeparatorOutput(direct_estimates=directs, image_estimates=images)
        before = [s.tobytes() for s in (*directs, *images)]
        got = run_fcp_stage(np.sum(directs, axis=0), sep, config)
        assert [s.tobytes() for s in (*directs, *images)] == before
        assert not any(
            np.shares_memory(g, s) for g in got for s in (*directs, *images)
        )

    def test_fcp_grid_comes_from_fcp_config(self, mono_scene):
        n = mono_scene.num_samples
        sep = oracle_separate(mono_scene, IDENTITY)
        cfg = FcpConfig(taps=6)
        assert cfg.stft != SEPARATOR_STFT
        images = run_fcp_stage(mono_scene.mixture, sep, ExperimentConfig(fcp=cfg))
        s_hat = stft(sep.direct_estimates[0], cfg.stft)
        (image,) = fcp_separate(stft(mono_scene.mixture, cfg.stft), [s_hat], cfg)
        assert images[0].tobytes() == istft(image, n).tobytes()


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
        for mode in ("fcp", "essu"):
            with pytest.raises(
                ValueError, match="external refinement requires external_dir"
            ):
                ExperimentConfig(fcp_mode=mode, refinement="external")
        # Without a prediction stage the refinement never runs.
        ExperimentConfig(fcp_mode="off", refinement="external")


class TestFeatureStack:
    def test_order_and_count(self, small_scene):
        sep = oracle_separate(small_scene, IDENTITY)
        stack = FeatureStack(
            mixture=small_scene.mixture,
            stage1_direct=list(sep.direct_estimates),
            stage1_image=list(sep.image_estimates),
            fcp_images=list(sep.image_estimates),
        )
        signals = stack.signals()
        assert len(signals) == 1 + 3 * 2
        assert signals[0] is stack.mixture
        assert signals[1] is sep.direct_estimates[0]
        assert signals[2] is sep.image_estimates[0]
        assert signals[4] is sep.direct_estimates[1]
        assert stack.num_samples == small_scene.num_samples

    def test_validation(self, small_scene):
        sep = oracle_separate(small_scene, IDENTITY)
        with pytest.raises(ValueError):
            FeatureStack(
                mixture=small_scene.mixture,
                stage1_direct=list(sep.direct_estimates),
                stage1_image=list(sep.image_estimates),
                fcp_images=list(sep.image_estimates[:1]),
            )
        with pytest.raises(ValueError):
            SeparatorOutput(direct_estimates=[], image_estimates=[])

    def test_signals_are_1d_float64_of_one_length(self):
        a, b = np.zeros(100), np.zeros(101)
        with pytest.raises(ValueError, match=r"one length, got \[100, 101\]"):
            SeparatorOutput(direct_estimates=[a], image_estimates=[b])
        with pytest.raises(ValueError, match=r"one length, got \[100, 101\]"):
            FeatureStack(mixture=a, stage1_direct=[a], stage1_image=[a], fcp_images=[b])
        spectrogram = stft(a, SEPARATOR_STFT)
        for bad in (np.zeros((2, 50)), np.zeros(100, np.float32), spectrogram):
            with pytest.raises(ValueError, match="1-D float64"):
                SeparatorOutput(direct_estimates=[bad], image_estimates=[a])
            with pytest.raises(ValueError, match="1-D float64"):
                FeatureStack(
                    mixture=bad, stage1_direct=[a], stage1_image=[a], fcp_images=[a]
                )


class TestFeatureExchange:
    def _float32_scene_stack(self, scene):
        """Stack built from float32-quantized signals so WAVs are lossless."""
        n = scene.num_samples
        q = lambda x: x.astype(np.float32).astype(np.float64)
        directs = [q(s) for s in scene.direct_path]
        images = [q(s) for s in scene.reverberant_image]
        sep = SeparatorOutput(direct_estimates=directs, image_estimates=images)
        stack = FeatureStack(
            mixture=q(scene.mixture),
            stage1_direct=directs,
            stage1_image=images,
            fcp_images=images,
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
        for a, b in zip(stack.signals(), back.signals(), strict=True):
            assert np.array_equal(a, b)

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
        export_estimates(sep, tmp_path / "est")
        for c in range(1, speakers + 1):
            assert (tmp_path / "est" / f"s{c}_direct.wav").is_file()
            assert (tmp_path / "est" / f"s{c}_image.wav").is_file()
        back, grid = import_estimates(tmp_path / "est")
        assert grid == SEPARATOR_STFT
        assert back.num_samples == n
        assert back.num_speakers == speakers
        # Every speaker's direct estimate and image return in their own slot.
        for want, got in (
            (sep.direct_estimates, back.direct_estimates),
            (sep.image_estimates, back.image_estimates),
        ):
            for a, b in zip(want, got, strict=True):
                assert np.array_equal(a, b)

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
        stack, sep, _ = self._float32_scene_stack(small_scene)
        export_features(stack, tmp_path / "feat")
        export_estimates(sep, tmp_path / "est")
        for directory, name, read in (
            (tmp_path / "feat", "features.json", import_features),
            (tmp_path / "est", "estimates.json", import_estimates),
        ):
            manifest = read_json(directory / name)
            del manifest[key]
            write_json(directory / name, manifest)
            with pytest.raises(ValueError, match=rf"missing required key\(s\) {key}"):
                read(directory)

    def test_declared_speakers_are_read_until_a_wav_is_missing(
        self, mono_scene, tmp_path
    ):
        _, sep, _ = self._float32_scene_stack(mono_scene)
        path = export_estimates(sep, tmp_path)
        write_json(path, {**read_json(path), "num_speakers": 10**6})
        tracemalloc.start()
        try:
            with pytest.raises(FileNotFoundError, match="s2_direct.wav"):
                import_estimates(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_missing_wav_is_named(self, small_scene, tmp_path):
        stack, _, _ = self._float32_scene_stack(small_scene)
        export_features(stack, tmp_path)
        (tmp_path / "s1_stage1_image.wav").unlink()
        with pytest.raises(FileNotFoundError, match="s1_stage1_image.wav"):
            import_features(tmp_path)


class TestRunPipeline:
    def test_oracle_passthrough_scores_at_top(self, small_scene):
        config = ExperimentConfig(fcp=FcpConfig(taps=10))
        separator, report = run_pipeline(small_scene, config)
        assert report.mean["si_sdr_db"] >= 60.0
        assert len(separator.image_estimates) == 2
        assert predict(small_scene, config)[1].num_speakers == 2

    def test_rejects_a_thread_count_below_one(self, mono_scene):
        with pytest.raises(ValueError, match="threads must be an int >= 1, got 0"):
            run_pipeline(mono_scene, ExperimentConfig(fcp=FcpConfig(taps=2)), threads=0)

    def test_fcp_substitute_fixed_point(self, mono_scene):
        cfg = dict(
            refinement="fcp_substitute", fcp=FcpConfig(taps=10)
        )
        one, _ = run_pipeline(mono_scene, ExperimentConfig(iterations=1, **cfg))
        two, _ = run_pipeline(mono_scene, ExperimentConfig(iterations=2, **cfg))
        # Oracle direct estimates never change, so a second FCP pass
        # reproduces the first bit for bit.
        assert np.array_equal(one.image_estimates[0], two.image_estimates[0])

    def test_predict_is_the_pipeline_before_scoring(self, mono_scene):
        config = ExperimentConfig(
            refinement="fcp_substitute", iterations=2, fcp=FcpConfig(taps=10)
        )
        separator, stack = predict(mono_scene, config)
        refined, _ = run_pipeline(mono_scene, config)
        # predict returns the estimates its last stack was built from;
        # run_pipeline's last refinement substitutes that stack's images.
        assert separator.image_estimates == stack.stage1_image
        assert np.array_equal(refined.image_estimates[0], stack.fcp_images[0])
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
            export_estimates(estimates, directory)
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
        assert all(np.array_equal(a, b) for a, b in zip(stack.fcp_images, again))

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
        export_estimates(sep, tmp_path / "iteration_1" / "estimates")
        _, report = run_pipeline(mono_scene, config)
        assert report.mean["si_sdr_db"] >= 60.0

    def test_external_estimates_of_another_length_rejected(self, mono_scene, tmp_path):
        config = ExperimentConfig(
            refinement="external", external_dir=str(tmp_path), fcp=FcpConfig(taps=4)
        )
        longer = simulate_scene(replace(mono_scene.spec, duration_s=3.0))
        export_estimates(
            oracle_separate(longer, IDENTITY), tmp_path / "iteration_1" / "estimates"
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
            oracle_separate(mono_scene, IDENTITY),
            tmp_path / "iteration_1" / "estimates",
            grid,
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
        )
        with pytest.raises(
            ValueError,
            match="estimate speaker count 2 does not match scene speaker count 1",
        ):
            run_pipeline(mono_scene, config)

    def test_external_refinement_requires_external_dir(self, mono_scene):
        with pytest.raises(ValueError, match="external_dir"):
            ExperimentConfig(refinement="external", fcp=FcpConfig(taps=4))
        # Without a prediction stage the refinement never runs.
        off = ExperimentConfig(fcp_mode="off", refinement="external")
        run_pipeline(mono_scene, off)
        assert predict(mono_scene, off)[1] is None

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
                est = sep.image_estimates[0]
                scores.append(si_sdr(est, scene.reverberant_image[0]))
            means.append(np.mean(scores))
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_degraded_then_substituted_beats_degraded(self, mono_scene):
        noisy = DegradationSpec(snr_db=5.0, seed=3)
        _, baseline = run_pipeline(
            mono_scene, ExperimentConfig(degradation=noisy, fcp=FcpConfig(taps=40))
        )
        _, substituted = run_pipeline(
            mono_scene,
            ExperimentConfig(
                degradation=noisy,
                refinement="fcp_substitute",
                fcp=FcpConfig(taps=40),
            ),
        )
        assert substituted.mean["si_sdr_db"] > baseline.mean["si_sdr_db"]

    @pytest.mark.parametrize("mode", ["off", "essu"])
    def test_scores_match_those_of_the_separator_grid_round_trip(self, mode):
        # Stages hand each other signals where they once handed 256/64
        # spectrograms.  Scoring istft(stft(s)) in place of s moved no
        # report float by more than 7.1e-15 dB over four seeds (5.3e-15
        # off, 8.9e-16 essu at this seed), so 1e-12 dB bounds the change.
        scene = simulate_scene(SceneSpec(num_speakers=2, duration_s=3.0, seed=0))
        quantiles = (0.1, 0.3, 0.5, 0.7, 0.9)
        config = ExperimentConfig(
            fcp_mode=mode,
            refinement="passthrough" if mode == "off" else "fcp_substitute",
            degradation=DegradationSpec(
                mode="combined", snr_db=10.0, cross_talk_fraction=0.2
            ),
            quantiles=quantiles,
        )
        separator, report = run_pipeline(scene, config)
        n = scene.num_samples
        round_trip = [
            istft(stft(s, SEPARATOR_STFT), n) for s in separator.image_estimates
        ]
        again = evaluate_scene(round_trip, scene, quantiles=quantiles)
        assert again.permutation == report.permutation
        for got, want in zip(again.per_speaker, report.per_speaker, strict=True):
            assert got["si_sdr_db"] == pytest.approx(want["si_sdr_db"], abs=1e-12)
            for q in quantiles:
                assert got["si_sdr_le_db"][q] == pytest.approx(
                    want["si_sdr_le_db"][q], abs=1e-12
                )
