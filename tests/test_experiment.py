"""Batch experiment layer: configs, hashing, batch runs, sweeps."""

import json
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cxfilter import DegradationSpec, FcpConfig, SceneSpec, simulate_scene
from cxfilter import cli, experiment, metrics, pipeline
from cxfilter import fcp as fcp_module
from cxfilter.experiment import (
    FCP_MODES,
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
from cxfilter.cli import main
from cxfilter.io import config_from_dict, config_to_dict, read_json, write_json
from cxfilter.metrics import evaluate_scene
from cxfilter.pipeline import (
    SeparatorOutput,
    export_estimates,
    import_estimates,
    oracle_separate,
    predict,
    run_fcp_stage,
)
from cxfilter.stft import SEPARATOR_STFT
from cxfilter.scenes import save_scene
from conftest import count_calls, tree_bytes


def _square(x, threads):
    return x * x


def _missing_file(x, threads):
    raise FileNotFoundError(f"payload {x}: no such file")


@pytest.fixture
def openblas():
    """numpy's OpenBLAS, or None; its thread count restored after."""
    lib = fcp_module.openblas()
    before = lib and lib.scipy_openblas_get_num_threads64_()
    yield lib
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(before)


SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize(
        "field, whole, float_value",
        [
            ("degradation", DegradationSpec(snr_db=10), DegradationSpec(snr_db=10.0)),
            ("scene", SceneRanges(duration_s=3), SceneRanges(duration_s=3.0)),
        ],
        ids=["snr_db", "duration_s"],
    )
    def test_equal_configs_hash_equal(self, field, whole, float_value):
        # An int in a float field is written as a float.
        a = ExperimentConfig(**{field: whole})
        b = ExperimentConfig(**{field: float_value})
        assert a == b
        assert json.dumps(config_to_dict(a)) == json.dumps(config_to_dict(b))
        assert a.config_hash() == b.config_hash()

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
        config = _tiny_config(degradation=DegradationSpec())
        _, report = run_scene(scene, config)
        assert predict(scene, config)[1] is None
        assert report.mean["si_sdr_db"] >= 60.0

    def test_fcp_mode_runs_pipeline(self):
        scene = simulate_scene(SceneSpec(num_speakers=1, duration_s=1.0, seed=5))
        config = _tiny_config(
            fcp_mode="fcp",
            degradation=DegradationSpec(),
            fcp=FcpConfig(taps=5),
        )
        separator, _ = run_scene(scene, config)
        features = predict(scene, config)[1]
        assert features is not None
        assert len(features.fcp_images) == separator.num_speakers == 1

    def test_scenes_on_two_threads_give_the_serial_bytes(self, openblas):
        # Each call takes its own fit-thread count, so two scenes that run
        # side by side in one process change nothing of each other.
        scenes = [
            simulate_scene(SceneSpec(num_speakers=c, duration_s=1.0, seed=c))
            for c in (2, 3)
        ]
        jobs = [
            (scene, _tiny_config(fcp_mode=mode, quantiles=(0.3, 0.7)))
            for mode in FCP_MODES
            for scene in scenes
        ]

        def run(job):
            separator, report = run_scene(*job)
            images = [s.tobytes() for s in separator.image_estimates]
            return json.dumps(report.to_dict(), sort_keys=True), images

        experiment._pin_blas_threads()  # the openblas fixture restores it
        serial = [run(job) for job in jobs]
        with ThreadPoolExecutor(2) as pool:
            assert list(pool.map(run, jobs, timeout=300)) == serial


class TestSingleScoringPath:
    """``run_scene`` equals an explicit composition of the pipeline stages."""

    def _assert_same(self, result, scene, images, quantiles):
        separator, report = result
        want = evaluate_scene(images, scene, quantiles=quantiles)
        assert report.to_dict() == want.to_dict()
        assert len(separator.image_estimates) == len(images)
        for got, image in zip(separator.image_estimates, images):
            assert np.array_equal(got, image)

    def test_off_mode_scores_degraded_separator_output(self):
        scene = simulate_scene(SceneSpec(num_speakers=2, duration_s=1.0, seed=5))
        config = _tiny_config(
            degradation=DegradationSpec(
                mode="combined", snr_db=10.0, cross_talk_fraction=0.2, seed=3
            ),
            quantiles=(0.25, 0.5, 0.75),
        )
        result = run_scene(scene, config)
        sep = oracle_separate(scene, config.degradation)
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
        sep = oracle_separate(scene, config.degradation)
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
        estimates, _ = import_estimates(per_scene / "estimates")  # round-trippable
        length = round(config.scene.duration_s * config.scene.sample_rate_hz)
        assert estimates.num_samples == length

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

    def test_unreadable_scene_makes_no_out_directory(self, tmp_path):
        # The scene fails before its first write, and a directory is made
        # only with a file in it.
        config = _tiny_config(num_scenes=1)
        run_simulation(config, tmp_path / "scenes")
        wav = tmp_path / "scenes" / "scene_0001" / "s1_image.wav"
        wav.write_bytes(wav.read_bytes()[:100])
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="s1_image.wav"):
            run_separation(config, out, scenes_dir=tmp_path / "scenes")
        assert not out.exists()

    def test_missing_scenes_dir_is_an_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="scene.json"):
            run_separation(_tiny_config(), tmp_path / "out", scenes_dir=tmp_path / "empty")

    @pytest.mark.parametrize("run", ("separation", "sweep"))
    def test_external_without_directory_fails_before_any_scene(
        self, tmp_path, monkeypatch, capsys, run
    ):
        # The config is rejected when it is built, so no batch starts.
        config = config_to_dict(_tiny_config(fcp_mode="fcp", fcp=FcpConfig(taps=2)))
        path, out = tmp_path / "config.json", tmp_path / "out"
        write_json(path, {**config, "refinement": "external"})
        stage_calls = count_calls(monkeypatch, pipeline, "run_fcp_stage")
        sweep = ["sweep", "--axis", "taps", "--values", "2"]
        command = ["separate"] if run == "separation" else sweep
        assert main([*command, "--out", str(out), "--config", str(path)]) == 5
        err = capsys.readouterr().err
        assert err == "bad arguments: external refinement requires external_dir\n"
        assert stage_calls == []
        assert not out.exists()

    @staticmethod
    def _answer_external(config, ext, *parts):
        """Write each scene's true images as the external estimates of its
        first iteration under ``ext/<parts>/<scene>``."""
        for key, source in experiment._scene_jobs(config):
            scene = simulate_scene(source)
            export_estimates(
                oracle_separate(scene, DegradationSpec()),
                ext.joinpath(*parts, key, "iteration_1", "estimates"),
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
            def __init__(self, max_workers, initializer):
                started.append(max_workers)
                initializers.append(initializer)
                initializer()  # pins this process; restored below

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, payloads):
                shares.append(func.keywords["threads"])
                return map(func, payloads)

        shares = []
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 4)
        blas_found = openblas is not None
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
            assert initializers == [experiment._start_worker]
            assert shares == [share]
            initializers.clear()
            shares.clear()
        started.clear()
        assert _map_jobs(_square, values[:1], 10**6) == [0]
        assert started == []  # one payload runs in this process

    def test_serial_workers_run_on_one_blas_thread(self, openblas):
        if openblas is None:
            pytest.skip("numpy bundles no OpenBLAS here")

        def counts(_=None, threads=1):
            return [openblas.scipy_openblas_get_num_threads64_(), threads]

        cpus = experiment._cpu_count()

        def fail(_, threads):
            assert counts(threads=threads) == [1, cpus]
            raise RuntimeError("worker failed")

        openblas.scipy_openblas_set_num_threads64_(2)
        assert _map_jobs(counts, [0, 1, 2], jobs=1) == [[1, cpus]] * 3
        assert counts() == [2, 1]
        with pytest.raises(RuntimeError, match="worker failed"):
            _map_jobs(fail, [0], jobs=1)
        assert counts() == [2, 1]

    def test_missing_openblas_warns_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fcp_module, "openblas", lambda: None)
        report = run_separation(_tiny_config(), tmp_path / "out", jobs=1)
        assert report["num_scenes"] == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no OpenBLAS thread control found for numpy;" in err

    def test_missing_openblas_eval_warns_once_on_one_thread(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(fcp_module, "openblas", lambda: None)
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 4)
        counts = []
        run_on_threads = metrics.run_on_threads

        def recorded(task, items, threads):
            counts.append(threads)
            run_on_threads(task, items, threads)

        monkeypatch.setattr(metrics, "run_on_threads", recorded)
        scene = simulate_scene(SceneSpec(num_speakers=2, duration_s=0.5, seed=9))
        estimates = oracle_separate(scene, DegradationSpec(snr_db=10.0))
        evaluate_estimates(scene, estimates, (0.5,), tmp_path / "out", SEPARATOR_STFT)
        assert counts == [1, 1]  # the estimates, then the unprocessed mixture
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no OpenBLAS thread control found for numpy;" in err

    @pytest.mark.parametrize("jobs", [0, -7])
    def test_map_jobs_rejects_fewer_than_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            _map_jobs(_square, [1, 2], jobs)


class TestEvaluateEstimates:
    def _scene_and_truth(self, tmp_path):
        from cxfilter.pipeline import export_estimates, oracle_separate

        scene = simulate_scene(SceneSpec(num_speakers=1, duration_s=1.0, seed=9))
        sep = oracle_separate(scene, DegradationSpec())
        export_estimates(sep, tmp_path / "est")
        estimates, grid = import_estimates(tmp_path / "est")
        assert (estimates.num_samples, grid) == (scene.num_samples, SEPARATOR_STFT)
        return scene, estimates

    def test_ground_truth_scores_at_cap(self, tmp_path):
        scene, estimates = self._scene_and_truth(tmp_path)
        payload = evaluate_estimates(
            scene, estimates, (0.25, 0.5), tmp_path / "out", SEPARATOR_STFT
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
            evaluate_estimates(other, estimates, (), tmp_path / "out", SEPARATOR_STFT)
        assert not (tmp_path / "out").exists()

    def test_length_mismatch(self, tmp_path):
        scene, estimates = self._scene_and_truth(tmp_path)
        short = SeparatorOutput(
            [s[:123] for s in estimates.direct_estimates],
            [s[:123] for s in estimates.image_estimates],
        )
        with pytest.raises(ValueError, match="samples"):
            evaluate_estimates(scene, short, (), tmp_path / "out", SEPARATOR_STFT)
        assert not (tmp_path / "out").exists()

    def test_silent_speaker_makes_no_out_directory(self, tmp_path):
        spec = SceneSpec(
            num_speakers=2, duration_s=0.5, seed=9, speaker_gains_db=(0.0, -np.inf)
        )
        scene = simulate_scene(spec)
        estimates = oracle_separate(scene, DegradationSpec())
        with pytest.raises(ValueError, match="identically zero"):
            evaluate_estimates(scene, estimates, (), tmp_path / "out", SEPARATOR_STFT)
        assert not (tmp_path / "out").exists()

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, openblas):
        # OpenBLAS splits a dot product over its threads above about 10^4
        # samples, so a 3 s scene is scored on one thread, as a batch is.
        if openblas is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        scene = simulate_scene(SceneSpec(num_speakers=2, duration_s=3.0, seed=9))
        estimates = oracle_separate(scene, DegradationSpec(snr_db=10.0))
        quantiles = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        trees = []
        for count in (2, 1):
            openblas.scipy_openblas_set_num_threads64_(count)
            out = tmp_path / f"threads_{count}"
            evaluate_estimates(scene, estimates, quantiles, out, SEPARATOR_STFT)
            assert openblas.scipy_openblas_get_num_threads64_() == count
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_each_pair_is_scored_once_per_quantile(self, tmp_path, monkeypatch):
        # The estimates and the unprocessed mixture are each scored once
        # by evaluate_scene: 2 x speakers x quantiles calls.
        scene = simulate_scene(SceneSpec(num_speakers=3, duration_s=0.5, seed=9))
        estimates = oracle_separate(scene, DegradationSpec(snr_db=10.0))
        quantiles = (0.1, 0.3, 0.5, 0.7, 0.9)
        le_calls = count_calls(monkeypatch, metrics, "si_sdr_le")
        evaluate_estimates(
            scene, estimates, quantiles, tmp_path / "out", SEPARATOR_STFT
        )
        assert len(le_calls) == 2 * 3 * len(quantiles)

    @pytest.mark.parametrize("cpus", (1, 2))
    def test_scoring_leaves_no_analyses_behind(self, tmp_path, monkeypatch, cpus):
        # The estimates' and the mixture's sweeps each forget their
        # thread's analyses as they end.
        scene = simulate_scene(SceneSpec(num_speakers=3, duration_s=0.5, seed=9))
        estimates = oracle_separate(scene, DegradationSpec(snr_db=10.0))
        left = []
        run_on_threads = metrics.run_on_threads

        def checked(task, items, count):
            def sweep(item):
                task(item)
                left.append(len(metrics._ANALYSES.entries))

            run_on_threads(sweep, items, count)

        monkeypatch.setattr(metrics, "run_on_threads", checked)
        monkeypatch.setattr(experiment, "_cpu_count", lambda: cpus)
        evaluate_estimates(
            scene, estimates, (0.25, 0.75), tmp_path / "out", SEPARATOR_STFT
        )
        assert left == [0] * 6
        assert metrics._ANALYSES.entries == []


class TestSweep:
    def test_every_value_is_checked_before_any_scene(self, tmp_path, monkeypatch):
        config = _tiny_config(fcp_mode="fcp", fcp=FcpConfig(taps=2))
        stage_calls = count_calls(monkeypatch, pipeline, "run_fcp_stage")
        with pytest.raises(ValueError, match="taps must be >= 1"):
            run_sweep(config, "taps", [2, 0], tmp_path / "out")
        assert stage_calls == []
        assert not (tmp_path / "out").exists()

    def test_every_scene_is_checked_before_any_is_rendered(
        self, tmp_path, monkeypatch
    ):
        config = _tiny_config(fcp_mode="fcp", scene=_tiny_ranges(num_speakers=9))
        rendered = count_calls(monkeypatch, experiment, "simulate_scene")
        with pytest.raises(ValueError, match="scene_0001: scene: 9 speakers"):
            run_sweep(config, "taps", [2], tmp_path / "out")
        assert rendered == []
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
        monkeypatch.setattr(fcp_module, "openblas", lambda: None)
        config = _tiny_config(num_scenes=1, fcp_mode="fcp", fcp=FcpConfig(taps=2))
        rows = run_sweep(config, "taps", [2, 3, 4], tmp_path)
        assert len(rows) == 3
        assert capsys.readouterr().err.count("no OpenBLAS thread control") == 1
        # Without OpenBLAS thread control the fits stay on one thread.
        assert _map_jobs(lambda _, threads: threads, [0], jobs=1) == [1]

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


# Prints the minor page faults of the batch call, as the benchmark
# times it: around run_separation, in a fresh process.
COUNTED_BATCH = """
import resource
import cxfilter.cli as cli
from cxfilter.experiment import ExperimentConfig, run_separation
from cxfilter.io import config_from_dict, read_json

def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        return run_separation(*args, **kwargs)
    finally:
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

"""


class TestHeapPolicy:
    class _Libc:
        def __init__(self):
            self.calls = []

        def mallopt(self, param, value):
            self.calls.append((param, value))
            return 1

    def test_sets_the_two_thresholds(self, monkeypatch):
        libc, opened = self._Libc(), []
        monkeypatch.setattr(
            experiment.ctypes, "CDLL", lambda name: opened.append(name) or libc
        )
        experiment.set_heap_policy()
        assert opened == [None]  # the process's own C library
        assert libc.calls == [(-3, 4 << 20), (-1, 8 << 20)]

    @pytest.mark.parametrize("missing", ["mallopt", "library"])
    def test_does_nothing_without_mallopt(self, monkeypatch, missing):
        def cdll(name):
            if missing == "library":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(experiment.ctypes, "CDLL", cdll)
        assert experiment.set_heap_policy() is None

    @pytest.mark.parametrize("command", ["simulate", "separate", "eval", "sweep"])
    def test_cli_sets_it_before_every_subcommand(self, monkeypatch, command):
        events = []
        monkeypatch.setattr(cli, "set_heap_policy", lambda: events.append("policy"))
        monkeypatch.setattr(
            cli, f"cmd_{command}", lambda args: events.append(args.command) or 0
        )
        argv = {
            "simulate": ["simulate"],
            "separate": ["separate"],
            "eval": ["eval", "--scene", "s", "--estimates", "e"],
            "sweep": ["sweep", "--axis", "taps", "--values", "2"],
        }[command]
        assert cli.main([*argv, "--out", "out"]) == 0
        assert events == ["policy", command]

    def test_a_library_batch_leaves_it_unset(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment, "set_heap_policy", lambda: calls.append(1))
        run_separation(_tiny_config(num_scenes=1), tmp_path / "out", jobs=1)
        assert calls == []

    def test_pool_workers_set_it(self, monkeypatch):
        # _map_jobs starts every pool worker with _start_worker.
        events = []
        monkeypatch.setattr(
            experiment, "set_heap_policy", lambda: events.append("heap")
        )
        monkeypatch.setattr(
            experiment, "_pin_blas_threads", lambda count=1: events.append(count)
        )
        experiment._start_worker()
        assert events == ["heap", 1]

    def test_cli_batch_keeps_its_temporaries(self, tmp_path):
        # Without the policy glibc gives the scoring temporaries back to
        # the kernel and faults them in again, call after call.
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("the policy is set through glibc's mallopt")
        config = _tiny_config(
            num_scenes=2,
            scene=_tiny_ranges(num_speakers=4, duration_s=3.0),
            degradation=DegradationSpec(
                mode="combined", snr_db=10.0, cross_talk_fraction=0.2
            ),
            quantiles=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        )
        write_json(tmp_path / "batch.json", config_to_dict(config))
        runs = {
            "cli": "cli.run_separation = counted; cli.main(['separate', "
            "'--config', 'batch.json', '--out', 'cli', '--jobs', '1'])",
            "library": "counted(config_from_dict(ExperimentConfig, "
            "read_json('batch.json')), 'library', jobs=1)",
        }
        faults = {}
        for name, run in runs.items():
            done = subprocess.run(
                [sys.executable, "-c", COUNTED_BATCH + run],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            faults[name] = int(done.stdout.splitlines()[0])
        assert tree_bytes(tmp_path / "cli") == tree_bytes(tmp_path / "library")
        # Measured on 2-vCPU x86-64 Linux: about 3.0k faults against 38k
        # (0.078 of them); the bound leaves a margin of 3.2x.
        assert faults["cli"] < faults["library"] / 4
