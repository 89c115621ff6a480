"""Batch experiment layer: configs, hashing, batch runs, sweeps."""

import json
from dataclasses import replace

import numpy as np
import pytest

from cxfilter import DegradationSpec, FcpConfig, SceneSpec, simulate_scene
from cxfilter import experiment, metrics, pipeline
from cxfilter import fcp as fcp_module
from cxfilter.experiment import (
    ExperimentConfig,
    SceneRanges,
    _map_jobs,
    apply_sweep_axis,
    discover_scene_dirs,
    evaluate_estimates,
    run_scene,
    run_separation,
    run_simulation,
    run_sweep,
)
from cxfilter.io import config_from_dict, config_to_dict, read_json
from cxfilter.metrics import evaluate_scene
from cxfilter.pipeline import (
    export_estimates,
    import_estimates,
    oracle_separate,
    run_fcp_stage,
)
from cxfilter.stft import istft
from cxfilter.scenes import save_scene
from conftest import count_calls


def _square(x):
    return x * x


def _missing_file(x):
    raise FileNotFoundError(f"payload {x}: no such file")


@pytest.fixture
def openblas():
    """OpenBLAS (get, set) pairs by package; thread counts restored after."""
    apis = experiment._openblas_thread_apis()
    before = [get() for get, _ in apis.values()]
    yield apis
    for (_, set_), count in zip(apis.values(), before):
        set_(count)


def _tiny_ranges(**kw):
    base = dict(
        num_speakers=1,
        duration_s=1.0,
        t60_range_s=(0.25, 0.25),
        drr_range_db=(0.0, 0.0),
        noise_snr_range_db=(25.0, 25.0),
    )
    base.update(kw)
    return SceneRanges(**base)


def _tiny_config(**kw):
    base = dict(
        seed=11,
        num_scenes=2,
        scene=_tiny_ranges(),
        degradation=DegradationSpec(snr_db=15.0),
        fcp_mode="off",
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSceneRanges:
    def test_dict_round_trip(self):
        ranges = _tiny_ranges(speaker_gains_db=(0.0, -10.0), num_speakers=2)
        back = config_from_dict(SceneRanges, config_to_dict(ranges))
        assert back == ranges

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            SceneRanges(t60_range_s=(0.5, 0.2))

    def test_draw_is_deterministic(self):
        ranges = SceneRanges(num_speakers=2)
        a = ranges.draw_scene_spec(3, 7)
        b = ranges.draw_scene_spec(3, 7)
        c = ranges.draw_scene_spec(3, 8)
        assert a == b
        assert a != c
        assert 0.2 <= a.t60_s <= 0.5
        assert -5.0 <= a.drr_db <= 0.0

    def test_degenerate_range_draws_exact_value(self):
        spec = _tiny_ranges().draw_scene_spec(0, 0)
        assert spec.t60_s == 0.25
        assert spec.drr_db == 0.0
        assert spec.noise_snr_db == 25.0

    def test_infinite_end_is_drawn_only_from_a_point_range(self):
        assert _tiny_ranges(
            noise_snr_range_db=(np.inf, np.inf)
        ).draw_scene_spec(0, 0).noise_snr_db == np.inf
        ranges = _tiny_ranges(noise_snr_range_db=(15.0, np.inf))
        with pytest.raises(ValueError, match="noise_snr_range_db"):
            ranges.draw_scene_spec(0, 0)
        with pytest.raises(ValueError, match="t60_s"):
            _tiny_ranges(t60_range_s=(np.inf, np.inf)).draw_scene_spec(0, 0)


class TestExperimentConfig:
    def test_dict_round_trip_with_infinite_snr(self):
        config = _tiny_config(
            degradation=DegradationSpec(snr_db=np.inf),
            quantiles=(0.25, 0.5),
            fcp_mode="essu",
            fcp=FcpConfig(taps=7),
        )
        blob = json.dumps(config_to_dict(config))  # must be valid strict JSON
        back = config_from_dict(ExperimentConfig, json.loads(blob))
        assert back == config
        assert back.degradation.snr_db == np.inf

    def test_hash_ignores_output_locations(self):
        config = _tiny_config()
        assert (
            config.config_hash()
            == replace(config, external_dir="/tmp/x").config_hash()
        )
        assert config.config_hash() != replace(config, seed=12).config_hash()
        assert (
            config.config_hash()
            != replace(config, fcp=FcpConfig(taps=13)).config_hash()
        )

    def test_hash_stable_across_round_trip(self):
        config = _tiny_config(quantiles=(0.5,))
        back = config_from_dict(ExperimentConfig, config_to_dict(config))
        assert back.config_hash() == config.config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(version=2)
        with pytest.raises(ValueError):
            ExperimentConfig(fcp_mode="always")
        with pytest.raises(ValueError):
            ExperimentConfig(num_scenes=0)
        for quantiles in ((0.5, 0.5), (0.9, 0.1), (0.0,), (1.5,)):
            with pytest.raises(ValueError, match="strictly ascending"):
                ExperimentConfig(quantiles=quantiles)


class TestRunScene:
    def test_off_mode_skips_prediction(self):
        scene = simulate_scene(SceneSpec(num_speakers=1, duration_s=1.0, seed=5))
        result = run_scene(scene, _tiny_config(degradation=DegradationSpec()))
        assert result.features is None
        assert result.report.mean["si_sdr_db"] >= 60.0

    def test_fcp_mode_runs_pipeline(self):
        scene = simulate_scene(SceneSpec(num_speakers=1, duration_s=1.0, seed=5))
        config = _tiny_config(
            fcp_mode="fcp",
            degradation=DegradationSpec(),
            fcp=FcpConfig(taps=5),
        )
        result = run_scene(scene, config)
        assert result.features is not None
        assert len(result.features.fcp_images) == 1


class TestSingleScoringPath:
    """``run_scene`` equals an explicit composition of the pipeline stages."""

    def _assert_same(self, result, scene, images, quantiles):
        n = scene.num_samples
        want_images = [istft(s, output_length=n) for s in images]
        report = evaluate_scene(want_images, scene, quantiles=quantiles)
        assert result.report.to_dict() == report.to_dict()
        assert len(result.image_estimates) == len(want_images)
        for got, want in zip(result.image_estimates, want_images):
            assert np.array_equal(got, want)

    def test_off_mode_scores_degraded_separator_output(self):
        scene = simulate_scene(SceneSpec(num_speakers=2, duration_s=1.0, seed=5))
        config = _tiny_config(
            degradation=DegradationSpec(
                mode="combined", snr_db=10.0, cross_talk_fraction=0.2, seed=3
            ),
            quantiles=(0.25, 0.5, 0.75),
        )
        result = run_scene(scene, config)
        sep = oracle_separate(scene, config.degradation, config.stft_dnn)
        self._assert_same(result, scene, sep.image_estimates, config.quantiles)

    def test_essu_substitute_scores_predicted_images(self):
        scene = simulate_scene(SceneSpec(num_speakers=2, duration_s=1.0, seed=5))
        config = _tiny_config(
            fcp_mode="essu",
            refinement="fcp_substitute",
            fcp=FcpConfig(taps=8),
            quantiles=(0.5,),
        )
        result = run_scene(scene, config)
        sep = oracle_separate(scene, config.degradation, config.stft_dnn)
        images = run_fcp_stage(scene.mixture, sep, config)
        self._assert_same(result, scene, images, config.quantiles)


class TestSceneDiscovery:
    def test_single_scene_root(self, tmp_path):
        scene = simulate_scene(SceneSpec(num_speakers=1, duration_s=0.5, seed=1))
        save_scene(scene, tmp_path)
        assert discover_scene_dirs(tmp_path) == [tmp_path]

    def test_children_sorted_by_name(self, tmp_path):
        scene = simulate_scene(SceneSpec(num_speakers=1, duration_s=0.5, seed=1))
        for name in ("b_scene", "a_scene", "not_a_scene"):
            if name != "not_a_scene":
                save_scene(scene, tmp_path / name)
            else:
                (tmp_path / name).mkdir()
        found = discover_scene_dirs(tmp_path)
        assert [p.name for p in found] == ["a_scene", "b_scene"]

    def test_empty_root(self, tmp_path):
        assert discover_scene_dirs(tmp_path) == []


class TestBatchRuns:
    def test_simulation_writes_scene_dirs(self, tmp_path):
        rows = run_simulation(_tiny_config(), tmp_path)
        assert [r["scene"] for r in rows] == ["scene_0001", "scene_0002"]
        assert (tmp_path / "scene_0001" / "scene.json").is_file()
        assert (tmp_path / "scene_0002" / "s1_image.wav").is_file()
        assert rows[0]["t60_s"] == 0.25

    def test_separation_over_generated_scenes(self, tmp_path):
        config = _tiny_config()
        report = run_separation(config, tmp_path / "out")
        assert report["num_scenes"] == 2
        assert sorted(report["scenes"]) == ["scene_0001", "scene_0002"]
        assert report["config_sha256"] == config.config_hash()
        assert np.isfinite(report["mean"]["si_sdr_db"])
        on_disk = read_json(tmp_path / "out" / "report.json")
        assert on_disk == json.loads(json.dumps(report))
        per_scene = tmp_path / "out" / "scene_0001"
        assert (per_scene / "report.json").is_file()
        _, length = import_estimates(per_scene / "estimates")  # round-trippable
        assert length == round(config.scene.duration_s * config.scene.sample_rate_hz)

    def test_separation_over_scene_directory(self, tmp_path):
        config = _tiny_config()
        run_simulation(config, tmp_path / "scenes")
        report = run_separation(
            config, tmp_path / "out", scenes_dir=tmp_path / "scenes"
        )
        assert sorted(report["scenes"]) == ["scene_0001", "scene_0002"]

    def test_byte_identical_reports(self, tmp_path):
        config = _tiny_config()
        run_separation(config, tmp_path / "a")
        run_separation(config, tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_parallel_matches_sequential(self, tmp_path):
        config = _tiny_config()
        run_separation(config, tmp_path / "seq", jobs=1)
        run_separation(config, tmp_path / "par", jobs=2)
        assert (tmp_path / "seq" / "report.json").read_bytes() == (
            tmp_path / "par" / "report.json"
        ).read_bytes()

    def test_missing_scenes_dir_is_an_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="scene.json"):
            run_separation(_tiny_config(), tmp_path / "out", scenes_dir=tmp_path / "empty")

    @pytest.mark.parametrize("run", ("separation", "sweep"))
    def test_external_without_directory_fails_before_any_scene(
        self, tmp_path, monkeypatch, run
    ):
        config = _tiny_config(
            fcp_mode="fcp", fcp=FcpConfig(taps=2), refinement="external"
        )
        stage_calls = count_calls(monkeypatch, pipeline, "run_fcp_stage")
        with pytest.raises(ValueError, match="external refinement requires external_dir"):
            if run == "separation":
                run_separation(config, tmp_path / "out")
            else:
                run_sweep(config, "taps", [2], tmp_path / "out")
        assert stage_calls == []
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _answer_external(config, ext, *parts):
        """Write each scene's true images as the external estimates of its
        first iteration under ``ext/<parts>/<scene>``."""
        for key, source in experiment._scene_jobs(config):
            scene = simulate_scene(source)
            export_estimates(
                oracle_separate(scene, DegradationSpec()),
                ext.joinpath(*parts, key, "iteration_1", "estimates"),
                scene.num_samples,
            )

    def test_external_refinement_exchanges_per_scene(self, tmp_path):
        ext = tmp_path / "ext"
        config = _tiny_config(
            fcp_mode="fcp",
            fcp=FcpConfig(taps=2),
            refinement="external",
            external_dir=str(ext),
        )
        self._answer_external(config, ext)
        aggregate = run_separation(config, tmp_path / "out")
        # Each scene is scored with its own true images, not the first's.
        for key in ("scene_0001", "scene_0002"):
            assert aggregate["scenes"][key]["mean"]["si_sdr_db"] >= 60.0
            assert (ext / key / "iteration_1" / "features" / "features.json").is_file()
        assert aggregate["config"]["external_dir"] == str(ext)

    def test_sweep_exchanges_per_value_and_scene(self, tmp_path):
        # Two iterations: the sweep refines after the first one only.
        ext = tmp_path / "ext"
        config = _tiny_config(
            num_scenes=1,
            fcp_mode="fcp",
            fcp=FcpConfig(taps=2),
            refinement="external",
            external_dir=str(ext),
            iterations=2,
        )
        for k in (1, 2):
            self._answer_external(config, ext, f"value_{k}")
        run_sweep(config, "degradation_snr", [5.0, 15.0], tmp_path / "out")
        features = [
            ext / f"value_{k}" / "scene_0001" / "iteration_1" / "features"
            for k in (1, 2)
        ]
        direct = [(d / "s1_stage1_direct.wav").read_bytes() for d in features]
        assert direct[0] != direct[1]

    def test_map_jobs_preserves_order(self):
        values = list(range(7))
        assert _map_jobs(_square, values, jobs=1) == [v * v for v in values]
        assert _map_jobs(_square, values, jobs=2) == [v * v for v in values]

    def test_worker_error_reaches_the_caller(self, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 2)
        with pytest.raises(FileNotFoundError, match="payload 0: no such file"):
            _map_jobs(_missing_file, [0, 1], jobs=2)
        assert "parallel execution unavailable" not in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["create", "submit"])
    def test_pool_that_cannot_start_runs_here(self, monkeypatch, capsys, stage):
        shutdowns = []

        class BrokenPool:
            def __init__(self, **kwargs):
                if stage == "create":
                    raise OSError("no semaphores")

            def map(self, func, payloads):
                raise OSError("no semaphores")

            def shutdown(self, cancel_futures=False):
                shutdowns.append(cancel_futures)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 2)
        values = list(range(5))
        assert _map_jobs(_square, values, jobs=2) == [v * v for v in values]
        assert capsys.readouterr().err.endswith(
            "warning: parallel execution unavailable (no semaphores); running "
            "sequentially\n"
        )
        assert shutdowns == ([True] if stage == "submit" else [])

    def test_map_jobs_clamps_workers(self, monkeypatch, openblas):
        started, initializers = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializers.append((initializer, initargs))
                initializer(*initargs)  # pins this process; restored below

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, payloads):
                return map(func, payloads)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 4)
        monkeypatch.setattr(fcp_module, "fit_threads", 1)
        blas_found = sorted(openblas) == ["numpy", "scipy"]
        values = list(range(7))
        for jobs, count, workers, fit_threads in (
            (10**6, 7, 4, 1),  # CPU count
            (10**6, 3, 3, 1),  # payload count
            (2, 7, 2, 2),  # jobs
        ):
            started.clear()
            assert _map_jobs(_square, values[:count], jobs) == [
                v * v for v in values[:count]
            ]
            assert started == [workers]
            share = fit_threads if blas_found else 1
            assert initializers == [(experiment._pin_blas_threads, (share,))]
            assert fcp_module.fit_threads == share
            initializers.clear()
        started.clear()
        assert _map_jobs(_square, values[:1], 10**6) == [0]
        assert started == []  # one payload runs in this process

    def test_serial_workers_run_on_one_blas_thread(self, openblas):
        if sorted(openblas) != ["numpy", "scipy"]:
            pytest.skip("numpy and scipy do not both bundle OpenBLAS here")

        def counts(_=None):
            return [get() for get, _ in openblas.values()] + [fcp_module.fit_threads]

        cpus = experiment._cpu_count()

        def fail(_):
            assert counts() == [1, 1, cpus]
            raise RuntimeError("worker failed")

        for _, set_ in openblas.values():
            set_(2)
        assert _map_jobs(counts, [0, 1, 2], jobs=1) == [[1, 1, cpus]] * 3
        assert counts() == [2, 2, 1]
        with pytest.raises(RuntimeError, match="worker failed"):
            _map_jobs(fail, [0], jobs=1)
        assert counts() == [2, 2, 1]

    def test_missing_openblas_warns_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "_openblas_thread_apis", dict)
        report = run_separation(_tiny_config(), tmp_path / "out", jobs=1)
        assert report["num_scenes"] == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no OpenBLAS thread control found for numpy, scipy" in err

    @pytest.mark.parametrize("jobs", [0, -7])
    def test_map_jobs_rejects_fewer_than_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            _map_jobs(_square, [1, 2], jobs)


class TestEvaluateEstimates:
    def _scene_and_truth(self, tmp_path):
        from cxfilter.pipeline import export_estimates, oracle_separate

        scene = simulate_scene(SceneSpec(num_speakers=1, duration_s=1.0, seed=9))
        sep = oracle_separate(scene, DegradationSpec())
        export_estimates(sep, tmp_path / "est", scene.num_samples)
        estimates, length = import_estimates(tmp_path / "est")
        assert length == scene.num_samples
        return scene, estimates

    def test_ground_truth_scores_at_cap(self, tmp_path):
        scene, estimates = self._scene_and_truth(tmp_path)
        payload = evaluate_estimates(
            scene, estimates, (0.25, 0.5), tmp_path / "out", scene.num_samples
        )
        assert payload["report"]["mean"]["si_sdr_db"] >= 60.0
        assert (tmp_path / "out" / "report.json").is_file()
        assert (tmp_path / "out" / "si_sdr_le_values.csv").is_file()
        assert (tmp_path / "out" / "si_sdr_le_improvements.csv").is_file()
        assert set(payload["sweep"]["values"]) == {"estimate", "unprocessed"}

    def test_speaker_count_mismatch(self, tmp_path):
        _, estimates = self._scene_and_truth(tmp_path)
        other = simulate_scene(SceneSpec(num_speakers=2, duration_s=1.0, seed=9))
        with pytest.raises(ValueError, match="speaker count"):
            evaluate_estimates(
                other, estimates, (), tmp_path / "out", other.num_samples
            )
        assert not (tmp_path / "out").exists()

    def test_length_mismatch(self, tmp_path):
        scene, estimates = self._scene_and_truth(tmp_path)
        with pytest.raises(ValueError, match="samples"):
            evaluate_estimates(scene, estimates, (), tmp_path / "out", 123)
        assert not (tmp_path / "out").exists()

    def test_each_pair_is_scored_once_per_quantile(self, tmp_path, monkeypatch):
        # The sweep takes the estimates' SI-SDR-LE from the report and
        # scores only the mixture again: 2 x speakers x quantiles calls.
        scene = simulate_scene(SceneSpec(num_speakers=3, duration_s=0.5, seed=9))
        estimates = oracle_separate(scene, DegradationSpec(snr_db=10.0))
        quantiles = (0.1, 0.3, 0.5, 0.7, 0.9)
        in_metrics = count_calls(monkeypatch, metrics, "si_sdr_le")
        in_experiment = count_calls(monkeypatch, experiment, "si_sdr_le")
        evaluate_estimates(
            scene, estimates, quantiles, tmp_path / "out", scene.num_samples
        )
        assert len(in_metrics) + len(in_experiment) == 2 * 3 * len(quantiles)


class TestSweep:
    def test_every_value_is_checked_before_any_scene(self, tmp_path, monkeypatch):
        config = _tiny_config(fcp_mode="fcp", fcp=FcpConfig(taps=2))
        stage_calls = count_calls(monkeypatch, pipeline, "run_fcp_stage")
        with pytest.raises(ValueError, match="taps must be >= 1"):
            run_sweep(config, "taps", [2, 0], tmp_path / "out")
        assert stage_calls == []
        assert not (tmp_path / "out").exists()

    def test_empty_value_list_is_rejected_before_any_write(self, tmp_path):
        config = _tiny_config(fcp_mode="fcp", fcp=FcpConfig(taps=2))
        with pytest.raises(ValueError, match="sweep needs at least one value"):
            run_sweep(config, "taps", [], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_axis_application(self):
        config = _tiny_config(fcp_mode="fcp")
        assert apply_sweep_axis(config, "taps", 9).fcp.taps == 9
        assert apply_sweep_axis(config, "epsilon", 0.5).fcp.epsilon == 0.5
        assert apply_sweep_axis(config, "degradation_snr", 3.0).degradation.snr_db == 3.0
        swept = apply_sweep_axis(config, "t60", 0.4)
        assert swept.scene.t60_range_s == (0.4, 0.4)
        assert swept.config_hash() != config.config_hash()
        with pytest.raises(ValueError):
            apply_sweep_axis(config, "phase_of_moon", 1.0)

    def test_run_sweep_writes_rows_and_csv(self, tmp_path):
        config = _tiny_config(
            num_scenes=1, fcp_mode="fcp", fcp=FcpConfig(taps=2)
        )
        rows = run_sweep(config, "taps", [2, 6], tmp_path)
        assert [r["value"] for r in rows] == [2.0, 6.0]
        assert all(np.isfinite(r["mean_fcp_image_si_sdr_db"]) for r in rows)
        assert rows[0]["config_sha256"] != rows[1]["config_sha256"]
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "axis,value,num_scenes,mean_fcp_image_si_sdr_db,config_sha256"
        assert len(lines) == 3

    def test_run_sweep_skips_the_discarded_low_energy_sweep(
        self, tmp_path, monkeypatch
    ):
        config = _tiny_config(
            num_scenes=1, fcp_mode="fcp", fcp=FcpConfig(taps=2),
            quantiles=(0.25, 0.5),
        )
        plain = run_sweep(replace(config, quantiles=()), "taps", [2], tmp_path / "a")
        le_calls = count_calls(monkeypatch, metrics, "si_sdr_le")
        rows = run_sweep(config, "taps", [2], tmp_path / "b")
        assert le_calls == []
        # The row keeps the hash of the config as given, quantiles included.
        assert rows[0]["config_sha256"] == apply_sweep_axis(
            config, "taps", 2
        ).config_hash()
        assert rows[0]["config_sha256"] != plain[0]["config_sha256"]
        assert (
            rows[0]["mean_fcp_image_si_sdr_db"]
            == plain[0]["mean_fcp_image_si_sdr_db"]
        )

    def test_each_scene_is_scored_once(self, tmp_path, monkeypatch):
        config = _tiny_config(num_scenes=2, fcp_mode="fcp", fcp=FcpConfig(taps=2))
        scored = count_calls(monkeypatch, pipeline, "evaluate_scene")
        scored_here = count_calls(monkeypatch, experiment, "evaluate_scene")
        run_sweep(config, "taps", [2, 6], tmp_path)
        assert len(scored) + len(scored_here) == 2 * 2

    def test_one_pool_per_sweep_warns_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "_openblas_thread_apis", dict)
        config = _tiny_config(num_scenes=1, fcp_mode="fcp", fcp=FcpConfig(taps=2))
        rows = run_sweep(config, "taps", [2, 3, 4], tmp_path)
        assert len(rows) == 3
        assert capsys.readouterr().err.count("no OpenBLAS thread control") == 1
        # Without OpenBLAS thread control the fits stay on one thread.
        assert _map_jobs(lambda _: fcp_module.fit_threads, [0], jobs=1) == [1]

    def test_pooled_sweep_groups_scores_by_value(self, tmp_path):
        config = _tiny_config(num_scenes=2, fcp_mode="fcp", fcp=FcpConfig(taps=2))
        rows = run_sweep(config, "taps", [2, 6], tmp_path / "all", jobs=2)
        for i, value in enumerate([2, 6]):
            alone = run_sweep(config, "taps", [value], tmp_path / f"v{value}")
            assert rows[i] == alone[0]

    def test_external_sweep_skips_the_last_refinement(self, tmp_path):
        # The swept score reads the prediction-stage images only, so the
        # last iteration's external estimates are never asked for.
        config = _tiny_config(num_scenes=1, fcp_mode="fcp", fcp=FcpConfig(taps=2))
        ext = tmp_path / "ext"
        external = replace(config, refinement="external", external_dir=str(ext))
        plain = run_sweep(config, "taps", [2, 3], tmp_path / "plain")
        rows = run_sweep(external, "taps", [2, 3], tmp_path / "external")
        assert [r["mean_fcp_image_si_sdr_db"] for r in rows] == [
            r["mean_fcp_image_si_sdr_db"] for r in plain
        ]
        assert not any(ext.glob("**/estimates"))

        # With two iterations only the first iteration's estimates are read.
        twice = replace(external, iterations=2, external_dir=str(tmp_path / "ext2"))
        for k in (1, 2):
            TestBatchRuns._answer_external(twice, tmp_path / "ext2", f"value_{k}")
        run_sweep(twice, "taps", [2, 3], tmp_path / "twice")
        scene = tmp_path / "ext2" / "value_2" / "scene_0001"
        assert (scene / "iteration_1" / "features" / "features.json").is_file()
        assert not (scene / "iteration_2").exists()

    def test_run_sweep_rejects_off_mode_and_bad_axis(self, tmp_path):
        with pytest.raises(ValueError, match="fcp_mode"):
            run_sweep(_tiny_config(fcp_mode="off"), "taps", [2], tmp_path)
        with pytest.raises(ValueError, match="axis"):
            run_sweep(_tiny_config(fcp_mode="fcp"), "gain", [2], tmp_path)
