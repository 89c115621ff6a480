"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.io import wavfile

import cxfilter.cli
import cxfilter.experiment
import cxfilter.pipeline
from cxfilter import DegradationSpec, SceneSpec, simulate_scene
from cxfilter.cli import build_parser, main
from cxfilter.experiment import ExperimentConfig, NoScenesError, SceneRanges
from cxfilter.io import config_to_dict, read_json, read_wav, write_json, write_wav
from cxfilter.pipeline import export_estimates, oracle_separate
from cxfilter.scenes import load_scene, save_scene
from cxfilter.stft import SEPARATOR_STFT, StftConfig
from conftest import count_calls, tree_bytes


def _simulate(out, count=1, speakers=1, duration=0.8, seed=4, extra=()):
    argv = [
        "simulate",
        "--out", str(out),
        "--count", str(count),
        "--speakers", str(speakers),
        "--duration", str(duration),
        "--seed", str(seed),
        *extra,
    ]
    return main(argv)


# Quantile lists that are not strictly ascending within (0, 1].
BAD_QUANTILES = ["0.5,0.5", "0.9,0.1", "0", "1.5"]


class TestSimulate:
    def test_writes_scene_directories(self, tmp_path, capsys):
        assert _simulate(tmp_path / "scenes", count=2) == 0
        out = capsys.readouterr().out
        assert "scene_0001" in out and "scene_0002" in out
        assert (tmp_path / "scenes" / "scene_0002" / "scene.json").is_file()

    def test_reruns_are_byte_identical(self, tmp_path):
        assert _simulate(tmp_path / "a") == 0
        assert _simulate(tmp_path / "b") == 0
        name = "scene_0001/s1_image.wav"
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()

    def test_gains_flag(self, tmp_path):
        code = _simulate(
            tmp_path, speakers=2, extra=("--gains", "0,-10")
        )
        assert code == 0
        manifest = read_json(tmp_path / "scene_0001" / "scene.json")
        assert manifest["speaker_gains_db"] == [0.0, -10.0]

    def test_jobs_is_not_a_simulate_flag(self, tmp_path):
        assert _simulate(tmp_path / "scenes", extra=("--jobs", "2")) == 5

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 5

    @pytest.mark.parametrize(
        "text, name",
        [("[1, 2]", "ExperimentConfig"), ('{"scene": [1]}', "SceneRanges")],
        ids=["top_level", "nested"],
    )
    def test_config_that_is_not_an_object_is_exit_5(
        self, tmp_path, capsys, text, name
    ):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert _simulate(tmp_path / "scenes", extra=("--config", str(path))) == 5
        assert name in capsys.readouterr().err
        assert not (tmp_path / "scenes").exists()

    @pytest.mark.parametrize(
        "flag, name",
        [
            (("--t60-range", "inf,inf"), "t60_s"),
            (("--snr-range", "15,inf"), "noise_snr_range_db"),
            (("--snr-range", "-inf,-inf"), "noise_snr_db"),
            (("--gains", "nan,0"), "speaker_gains_db"),
        ],
        ids=["t60_inf", "snr_range_to_inf", "noise_minus_inf", "gain_nan"],
    )
    def test_non_finite_scene_input_is_exit_5(self, tmp_path, capsys, flag, name):
        assert _simulate(tmp_path / "scenes", speakers=2, extra=flag) == 5
        err = capsys.readouterr().err
        assert name in err
        assert err.count("\n") == 1

    def test_rejected_value_makes_no_out_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--t60-range", "inf,inf"]) == 5
        assert capsys.readouterr().err.startswith("bad arguments: t60_s ")
        assert not out.exists()

    def test_out_under_a_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        assert _simulate(blocker / "sub") == 2

    def test_range_of_three_values_is_exit_5(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--t60-range", "0.2,0.3,0.4"]) == 5
        err = capsys.readouterr().err
        assert err == (
            "bad arguments: t60_range_s must be a (lo, hi) pair, got 3 values\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "name", ["t60_range_s", "drr_range_db", "noise_snr_range_db"]
    )
    @pytest.mark.parametrize("values", [[0.2, 0.3, 0.4], [1]], ids=["three", "one"])
    def test_config_range_of_another_length_is_exit_5(
        self, tmp_path, capsys, name, values
    ):
        path = tmp_path / "config.json"
        write_json(path, {"scene": {name: values}})
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--config", str(path)]) == 5
        err = capsys.readouterr().err
        assert f"{name} must be a (lo, hi) pair, got {len(values)} values" in err
        assert not out.exists()


class TestSeparate:
    def test_off_mode_over_simulated_scenes(self, tmp_path, capsys):
        assert _simulate(tmp_path / "scenes", count=2) == 0
        code = main(
            [
                "separate",
                "--scenes", str(tmp_path / "scenes"),
                "--out", str(tmp_path / "out"),
                "--fcp", "off",
                "--iterations", "2",
            ]
        )
        assert code == 0
        report = read_json(tmp_path / "out" / "report.json")
        assert report["num_scenes"] == 2
        assert report["config"]["iterations"] == 2
        assert report["config"]["fcp_mode"] == "off"
        assert "mean SI-SDR" in capsys.readouterr().out

    def test_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        # At --jobs 1 a scene's speakers are scored on every CPU.
        assert _simulate(tmp_path / "scenes", count=2, speakers=3) == 0
        trees = []
        for cpus in (1, 2):
            monkeypatch.setattr(cxfilter.experiment, "_cpu_count", lambda: cpus)
            out = tmp_path / f"cpus_{cpus}"
            argv = ["separate", "--scenes", str(tmp_path / "scenes"),
                    "--out", str(out), "--fcp", "off", "--degradation-snr", "10",
                    "--quantiles", "0.1,0.5,0.9", "--jobs", "1"]
            assert main(argv) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_generates_scenes_when_none_given(self, tmp_path):
        path = tmp_path / "config.json"
        write_json(
            path,
            config_to_dict(
                ExperimentConfig(scene=SceneRanges(num_speakers=1, duration_s=0.8))
            ),
        )
        code = main(
            [
                "separate",
                "--config", str(path),
                "--out", str(tmp_path / "out"),
                "--count", "1",
                "--fcp", "off",
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "scene_0001" / "report.json").is_file()

    def test_full_pipeline_via_config_file(self, tmp_path):
        config = ExperimentConfig(
            num_scenes=1,
            scene=SceneRanges(num_speakers=1, duration_s=0.8),
            degradation=DegradationSpec(snr_db=15.0),
            fcp_mode="fcp",
        )
        d = config_to_dict(config)
        d["fcp"]["taps"] = 3
        path = tmp_path / "config.json"
        write_json(path, d)
        code = main(
            ["separate", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        report = read_json(tmp_path / "out" / "report.json")
        assert report["config"]["fcp"]["taps"] == 3

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        write_json(
            path,
            config_to_dict(
                ExperimentConfig(
                    num_scenes=5, scene=SceneRanges(num_speakers=1, duration_s=0.8)
                )
            ),
        )
        code = main(
            [
                "separate",
                "--config", str(path),
                "--out", str(tmp_path / "out"),
                "--count", "1",
                "--fcp", "off",
            ]
        )
        assert code == 0
        assert read_json(tmp_path / "out" / "report.json")["num_scenes"] == 1

    def test_nan_config_value_is_exit_5(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"fcp": {"epsilon": NaN}}')
        code = main(
            ["separate", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert code == 5
        assert "epsilon" in capsys.readouterr().err

    def test_taps_above_the_ceiling_are_exit_5(self, tmp_path, capsys):
        # One (8, taps, taps) block Gram of 100000 taps would be 1.16 TiB.
        path = tmp_path / "config.json"
        write_json(path, {"fcp": {"taps": 100000}})
        out = tmp_path / "out"
        assert main(["separate", "--config", str(path), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "taps" in err and "724" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, name",
        [
            ({"external_dir": 5, "refinement": "external", "fcp_mode": "fcp"},
             "ExperimentConfig.external_dir"),
            ({"fcp": {"taps": 40.5}}, "FcpConfig.taps"),
            ({"fcp": {"per_freq_floor": "false"}}, "FcpConfig.per_freq_floor"),
            ({"fcp": {"epsilon": True}}, "FcpConfig.epsilon"),
            ({"scene": {"t60_range_s": "12"}}, "SceneRanges.t60_range_s"),
        ],
        ids=[
            "number_for_str", "fraction_for_int", "string_for_bool",
            "bool_for_float", "string_for_tuple",
        ],
    )
    def test_config_value_of_the_wrong_type_is_exit_5(
        self, tmp_path, capsys, config, name
    ):
        path = tmp_path / "config.json"
        write_json(path, config)
        out = tmp_path / "out"
        assert main(["separate", "--config", str(path), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-7"])
    def test_jobs_below_one_is_exit_5(self, tmp_path, capsys, jobs):
        code = main(
            [
                "separate",
                "--out", str(tmp_path / "out"),
                "--fcp", "off",
                "--jobs", jobs,
            ]
        )
        assert code == 5
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_external_refinement_without_directory_is_exit_5(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "separate",
                "--out", str(tmp_path / "out"),
                "--refinement", "external",
            ]
        )
        assert code == 5
        assert "external refinement requires external_dir" in capsys.readouterr().err

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        config, out = tmp_path / "missing.json", tmp_path / "out"
        assert main(["separate", "--config", str(config), "--out", str(out)]) == 2
        assert f"config file not found: {config}" in capsys.readouterr().err
        assert not out.exists()

    def test_scene_files_without_noise_is_exit_2(self, tmp_path, capsys):
        _simulate(tmp_path / "scenes")
        path = tmp_path / "scenes" / "scene_0001" / "scene.json"
        manifest = read_json(path)
        del manifest["files"]["noise"]
        write_json(path, manifest)
        out = tmp_path / "out"
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off",
                "--out", str(out)]
        assert main(argv) == 2
        assert "lists no 'noise' component" in capsys.readouterr().err
        assert not out.exists()

    def test_speakers_past_the_enumeration_cap_are_exit_5(self, tmp_path, capsys):
        assert _simulate(tmp_path / "scenes", speakers=9, duration=0.5) == 0
        out = tmp_path / "out"
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off",
                "--out", str(out)]
        assert main(argv) == 5
        assert "9 speakers exceeds the enumeration cap" in capsys.readouterr().err
        assert not out.exists()

    def test_speakers_past_the_cap_are_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        assert _simulate(tmp_path / "scenes", speakers=9, duration=0.5) == 0
        separated = count_calls(monkeypatch, cxfilter.pipeline, "oracle_separate")
        staged = count_calls(monkeypatch, cxfilter.pipeline, "run_fcp_stage")
        out = tmp_path / "out"
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "fcp",
                "--out", str(out)]
        assert main(argv) == 5
        assert "9 speakers exceeds the enumeration cap" in capsys.readouterr().err
        assert (len(separated), len(staged)) == (0, 0)
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            (
                {"sample_rate_hz": 16000},
                "scene sample rate 16000 Hz does not match the stft_dnn sample "
                "rate 8000 Hz",
            ),
            (
                {"num_speakers": 9, "rir_direct_delays_samples": None},
                "9 speakers exceeds the enumeration cap of 8",
            ),
            ({"seed": None}, "missing required key(s) seed"),
            (
                {"num_speakers": 0, "rir_direct_delays_samples": None},
                "num_speakers must be >= 1",
            ),
        ],
        ids=["rate", "speakers", "missing_key", "bad_value"],
    )
    def test_a_bad_later_scene_fails_the_batch_before_its_first_scene(
        self, tmp_path, capsys, monkeypatch, fault, message
    ):
        # The second of three manifests; None deletes the key.
        assert _simulate(tmp_path / "scenes", count=3, duration=0.5) == 0
        path = tmp_path / "scenes" / "scene_0002" / "scene.json"
        manifest = {**read_json(path), **fault}
        write_json(path, {k: v for k, v in manifest.items() if v is not None})
        separated = count_calls(monkeypatch, cxfilter.pipeline, "oracle_separate")
        out = tmp_path / "out"
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "essu",
                "--out", str(out)]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err
        assert separated == []
        assert not out.exists()

    def test_a_later_scene_without_a_component_fails_before_the_first(
        self, tmp_path, capsys, monkeypatch
    ):
        # The second of three manifests lists no s1_image.
        assert _simulate(tmp_path / "scenes", count=3, duration=0.5) == 0
        path = tmp_path / "scenes" / "scene_0002" / "scene.json"
        manifest = read_json(path)
        del manifest["files"]["s1_image"]
        write_json(path, manifest)
        separated = count_calls(monkeypatch, cxfilter.pipeline, "oracle_separate")
        out = tmp_path / "out"
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "essu",
                "--out", str(out)]
        assert main(argv) == 2
        assert f"{path}: lists no 's1_image' component" in capsys.readouterr().err
        assert separated == []
        assert not out.exists()

    def test_external_estimates_at_another_rate_are_exit_5(self, tmp_path, capsys):
        # A 1 s, 8 kHz, 2-speaker scene answered by estimates with as many
        # samples, declared and written at 16 kHz.
        assert _simulate(tmp_path / "scenes", speakers=2, duration=1.0) == 0
        scene = load_scene(tmp_path / "scenes" / "scene_0001")
        ext = tmp_path / "ext"
        export_estimates(
            oracle_separate(scene, DegradationSpec()),
            ext / "scene_0001" / "iteration_1" / "estimates",
            replace(SEPARATOR_STFT, sample_rate_hz=16000),
        )
        out = tmp_path / "out"
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "fcp",
                "--refinement", "external", "--external-dir", str(ext),
                "--out", str(out)]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert "estimates are sampled at 16000 Hz but the scene at 8000 Hz" in err
        assert not out.exists()

    @pytest.mark.parametrize("iterations", ["1", "2"])
    def test_external_estimates_on_another_grid_are_exit_5(
        self, tmp_path, capsys, iterations
    ):
        # The scene's rate and length on a 512/128/512 grid.
        assert _simulate(tmp_path / "scenes", duration=0.5) == 0
        scene = load_scene(tmp_path / "scenes" / "scene_0001")
        estimates = tmp_path / "ext" / "scene_0001" / "iteration_1" / "estimates"
        grid = StftConfig(512, 128, 512, 8000)
        export_estimates(oracle_separate(scene, DegradationSpec()), estimates, grid)
        out = tmp_path / "out"
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "fcp",
                "--refinement", "external", "--external-dir", str(tmp_path / "ext"),
                "--iterations", iterations, "--out", str(out)]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert f"{estimates}: estimates on the STFT grid {grid}" in err
        assert f"but the features on {SEPARATOR_STFT}" in err
        assert not out.exists()

    def test_scene_manifest_without_files_is_exit_5(self, tmp_path, capsys):
        _simulate(tmp_path / "scenes", count=2)
        path = tmp_path / "scenes" / "scene_0002" / "scene.json"
        manifest = read_json(path)
        del manifest["files"]
        write_json(path, manifest)
        code = main(
            [
                "separate",
                "--scenes", str(tmp_path / "scenes"),
                "--out", str(tmp_path / "out"),
                "--fcp", "off",
            ]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert f"{path}: key files must be an object" in err
        assert "Traceback" not in err

    def test_worker_error_is_not_a_pool_failure(self, tmp_path, capsys, monkeypatch):
        # A scene that fails in a pool worker fails the run with its own
        # error, once: the pool is not reported unavailable and rerun.
        monkeypatch.setattr(cxfilter.experiment, "_cpu_count", lambda: 2)
        assert _simulate(tmp_path / "scenes", count=2) == 0
        (tmp_path / "scenes" / "scene_0002" / "s1_image.wav").unlink()
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off",
                "--jobs", "2", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "lists a missing file" in err
        assert "parallel execution unavailable" not in err

    @pytest.mark.parametrize(
        "fcp, config, grid",
        [
            ("essu", {}, "stft_dnn"),
            ("off", {}, "stft_dnn"),
            ("essu", {"stft_dnn": {**config_to_dict(SEPARATOR_STFT),
                                   "sample_rate_hz": 16000}}, "fcp.stft"),
        ],
        ids=["essu", "off", "filter_grid"],
    )
    def test_scene_rate_other_than_a_grid_is_exit_5(
        self, tmp_path, capsys, fcp, config, grid
    ):
        write_json(tmp_path / "sim.json", {"scene": {"sample_rate_hz": 16000}})
        sim = ("--config", str(tmp_path / "sim.json"))
        assert _simulate(tmp_path / "scenes", extra=sim) == 0
        write_json(tmp_path / "run.json", config)
        out = tmp_path / "out"
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", fcp,
                "--config", str(tmp_path / "run.json"), "--out", str(out)]
        assert main(argv) == 5
        assert (
            f"scene sample rate 16000 Hz does not match the {grid} sample rate "
            "8000 Hz"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_off_mode_checks_only_the_separator_grid(self, tmp_path):
        write_json(tmp_path / "sim.json", {"scene": {"sample_rate_hz": 16000}})
        sim = ("--config", str(tmp_path / "sim.json"))
        assert _simulate(tmp_path / "scenes", extra=sim) == 0
        grid = {**config_to_dict(SEPARATOR_STFT), "sample_rate_hz": 16000}
        write_json(tmp_path / "run.json", {"stft_dnn": grid})
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off",
                "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        rate, _ = wavfile.read(tmp_path / "out/scene_0001/estimates/s1_image.wav")
        assert rate == 16000

    def test_missing_scene_directory_is_exit_3(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(
            [
                "separate",
                "--scenes", str(tmp_path / "empty"),
                "--out", str(tmp_path / "out"),
                "--fcp", "off",
            ]
        )
        assert code == 3
        assert "scene.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scene_tree_is_walked_once(self, tmp_path, monkeypatch):
        assert _simulate(tmp_path / "scenes", count=2) == 0
        calls = count_calls(monkeypatch, cxfilter.experiment, "discover_scene_dirs")
        # A module that imported the name itself calls the same counter.
        monkeypatch.setattr(
            cxfilter.cli,
            "discover_scene_dirs",
            cxfilter.experiment.discover_scene_dirs,
            raising=False,
        )
        code = main(
            [
                "separate",
                "--scenes", str(tmp_path / "scenes"),
                "--out", str(tmp_path / "out"),
                "--fcp", "off",
            ]
        )
        assert code == 0
        assert len(calls) == 1

    def test_identical_runs_identical_reports(self, tmp_path):
        path = tmp_path / "config.json"
        write_json(
            path,
            config_to_dict(
                ExperimentConfig(scene=SceneRanges(num_speakers=1, duration_s=0.8))
            ),
        )
        argv = [
            "separate",
            "--config", str(path),
            "--count", "1",
            "--fcp", "off",
            "--degradation-snr", "12",
            "--out", str(tmp_path / "out"),
        ]
        # The report embeds its own output location, so "identical
        # config" means rerunning into the same directory.
        assert main(argv) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_rejected_value_makes_no_out_directory(self, tmp_path, capsys):
        config = config_to_dict(ExperimentConfig())
        config["scene"]["t60_range_s"] = [float("inf")] * 2
        write_json(tmp_path / "config.json", config)
        out = tmp_path / "o"
        argv = ["separate", "--config", str(tmp_path / "config.json"), "--out", str(out)]
        assert main(argv) == 5
        assert "t60_s" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("quantiles", BAD_QUANTILES)
    def test_bad_quantiles_are_exit_5(self, tmp_path, capsys, quantiles):
        out = tmp_path / "o"
        argv = ["separate", "--out", str(out), "--quantiles", quantiles]
        assert main(argv) == 5
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_output_bytes_do_not_depend_on_jobs(self, tmp_path):
        # At 1.5 s the FCP fit's products are large enough for OpenBLAS
        # to split them over threads, so a process left unpinned rounds
        # differently; at 0.8 s they are not.
        scenes = tmp_path / "scenes"
        assert _simulate(scenes, count=4, speakers=2, duration=1.5) == 0
        runs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            argv = ["separate", "--scenes", str(scenes), "--out", str(out),
                    "--fcp", "fcp", "--refinement", "fcp_substitute",
                    "--jobs", str(jobs)]
            assert main(argv) == 0
            runs[jobs] = tree_bytes(out)
        assert sum(name.suffix == ".wav" for name in runs[1]) == 4 * 4
        assert runs[1] == runs[2]


class TestEval:
    def _fixture(self, tmp_path, speakers=1):
        scene = simulate_scene(
            SceneSpec(num_speakers=speakers, duration_s=0.8, seed=6)
        )
        save_scene(scene, tmp_path / "scene")
        sep = oracle_separate(scene, DegradationSpec())
        export_estimates(sep, tmp_path / "est")
        return scene

    def test_ground_truth_hits_cap(self, tmp_path, capsys):
        self._fixture(tmp_path)
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "scene"),
                "--estimates", str(tmp_path / "est"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean SI-SDR 100.000 dB" in out
        values = (tmp_path / "out" / "si_sdr_le_values.csv").read_text()
        assert len(values.strip().splitlines()) == 1 + 2 * 9  # default grid

    def test_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        # The estimates' and the mixture's sweeps are scored on every CPU.
        scene = simulate_scene(SceneSpec(num_speakers=4, duration_s=0.8, seed=6))
        save_scene(scene, tmp_path / "scene")
        separated = oracle_separate(scene, DegradationSpec(snr_db=10.0))
        export_estimates(separated, tmp_path / "est")
        trees = []
        for cpus in (1, 3):
            monkeypatch.setattr(cxfilter.experiment, "_cpu_count", lambda: cpus)
            out = tmp_path / f"cpus_{cpus}"
            argv = ["eval", "--scene", str(tmp_path / "scene"),
                    "--estimates", str(tmp_path / "est"), "--out", str(out)]
            assert main(argv) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    @pytest.mark.parametrize(
        "flag",
        [("--config", "does_not_exist.json"), ("--seed", "1"), ("--jobs", "-4")],
        ids=["config", "seed", "jobs"],
    )
    def test_unused_common_flags_are_usage_errors(self, tmp_path, capsys, flag):
        self._fixture(tmp_path)
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "scene"),
                "--estimates", str(tmp_path / "est"),
                "--out", str(tmp_path / "out"),
                *flag,
            ]
        )
        assert code == 5
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_scene_is_exit_3(self, tmp_path, capsys):
        self._fixture(tmp_path)
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "nope"),
                "--estimates", str(tmp_path / "est"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 3
        manifest = tmp_path / "nope" / "scene.json"
        assert capsys.readouterr().err == f"no scene manifest at {manifest}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_estimates_is_exit_2(self, tmp_path, capsys):
        self._fixture(tmp_path)
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "scene"),
                "--estimates", str(tmp_path / "nope"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert str(tmp_path / "nope" / "estimates.json") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_speaker_count_mismatch_is_exit_4(self, tmp_path):
        self._fixture(tmp_path)  # writes 1-speaker estimates
        other = simulate_scene(SceneSpec(num_speakers=2, duration_s=0.8, seed=6))
        save_scene(other, tmp_path / "scene2")
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "scene2"),
                "--estimates", str(tmp_path / "est"),
                "--out", str(tmp_path / "out"),
                "--quantiles", "0.5",
            ]
        )
        assert code == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scene_s, estimates_s", [(1.0, 2.0), (2.0, 1.0)], ids=["longer", "shorter"]
    )
    def test_length_mismatch_is_exit_4(self, tmp_path, capsys, scene_s, estimates_s):
        spec = SceneSpec(num_speakers=1, duration_s=scene_s, seed=6)
        save_scene(simulate_scene(spec), tmp_path / "scene")
        other = simulate_scene(replace(spec, duration_s=estimates_s))
        export_estimates(oracle_separate(other, DegradationSpec()), tmp_path / "est")
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "scene"),
                "--estimates", str(tmp_path / "est"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 4
        assert (
            f"estimates carry {int(estimates_s * 8000)} samples but the scene "
            f"has {int(scene_s * 8000)}"
        ) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rate_mismatch_is_exit_4(self, tmp_path, capsys):
        # As many samples as the scene, at half its rate.
        spec = SceneSpec(num_speakers=1, duration_s=0.5, sample_rate_hz=16000, seed=6)
        save_scene(simulate_scene(spec), tmp_path / "scene")
        other = simulate_scene(replace(spec, duration_s=1.0, sample_rate_hz=8000))
        export_estimates(oracle_separate(other, DegradationSpec()), tmp_path / "est")
        assert _eval(tmp_path) == 4
        assert (
            "estimates are sampled at 8000 Hz but the scene at 16000 Hz"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("quantiles", BAD_QUANTILES)
    def test_bad_quantiles_are_exit_5(self, tmp_path, capsys, quantiles):
        self._fixture(tmp_path)
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "scene"),
                "--estimates", str(tmp_path / "est"),
                "--out", str(tmp_path / "out"),
                "--quantiles", quantiles,
            ]
        )
        assert code == 5
        assert "strictly ascending" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scene_manifest_without_files_is_exit_2(self, tmp_path, capsys):
        self._fixture(tmp_path)
        path = tmp_path / "scene" / "scene.json"
        manifest = read_json(path)
        del manifest["files"]
        write_json(path, manifest)
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "scene"),
                "--estimates", str(tmp_path / "est"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "key files must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["num_samples", "stft", "num_speakers"])
    def test_manifest_missing_a_key_is_exit_2(self, tmp_path, capsys, key):
        self._fixture(tmp_path)
        manifest = read_json(tmp_path / "est" / "estimates.json")
        del manifest[key]
        write_json(tmp_path / "est" / "estimates.json", manifest)
        code = main(
            [
                "eval",
                "--scene", str(tmp_path / "scene"),
                "--estimates", str(tmp_path / "est"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"missing required key(s) {key}" in err
        assert not (tmp_path / "out").exists()


def _eval_inputs(tmp_path, speakers=1):
    """A scene directory and its exact estimates under ``tmp_path``."""
    scene = simulate_scene(SceneSpec(num_speakers=speakers, duration_s=0.8, seed=6))
    save_scene(scene, tmp_path / "scene")
    separated = oracle_separate(scene, DegradationSpec())
    export_estimates(separated, tmp_path / "est")


def _eval(tmp_path):
    """Exit code of ``eval`` over the inputs of :func:`_eval_inputs`."""
    return main(
        [
            "eval",
            "--scene", str(tmp_path / "scene"),
            "--estimates", str(tmp_path / "est"),
            "--out", str(tmp_path / "out"),
        ]
    )


def _break_directory(directory, manifest_name, fault):
    """Break a scene or exchange directory in one way: its manifest's
    version or a required key, its listed ``s1_image.wav``, or, for
    ``non_finite_mixture``, a scene's ``mixture.wav``."""
    manifest_path = directory / manifest_name
    name = "mixture.wav" if fault == "non_finite_mixture" else "s1_image.wav"
    wav = directory / name
    if fault in ("version", "missing_key"):
        manifest = read_json(manifest_path)
        if fault == "version":
            manifest["version"] = 2
        else:
            del manifest["num_speakers"]
        write_json(manifest_path, manifest)
    elif fault == "missing_wav":
        wav.unlink()
    elif fault == "wrong_rate":
        write_wav(wav, read_wav(wav), 16000)
    elif fault == "stereo":
        wavfile.write(wav, 8000, np.stack([read_wav(wav)] * 2, axis=1))
    elif fault == "pcm8":
        wavfile.write(wav, 8000, np.full(read_wav(wav).size, 128, dtype=np.uint8))
    elif fault == "not_wav":
        wav.write_bytes(b"garbage")
    elif fault in _CHUNK_FAULTS:
        raw = wav.read_bytes()  # RIFF header, fmt chunk to 38, fact to 50, data
        wav.write_bytes(
            {"rf64": b"RF64" + raw[4:], "no_fmt": raw[:12] + raw[38:],
             "no_data": raw[:50], "truncated": raw[:-8]}[fault]
        )
    elif fault in ("non_finite", "non_finite_mixture"):
        samples = read_wav(wav)
        samples[100] = np.nan
        write_wav(wav, samples, 8000)
    else:
        write_wav(wav, read_wav(wav)[:-1], 8000)


# A WAV broken at its chunks: RF64 (not read), no fmt or data chunk, or a
# data chunk cut short.
_CHUNK_FAULTS = ("rf64", "no_fmt", "no_data", "truncated")
_WAV_FAULTS = ("stereo", "pcm8", "not_wav", *_CHUNK_FAULTS)

_DIRECTORY_FAULTS = ("version", "missing_key", "missing_wav", "wrong_rate",
                     "wrong_length")


class TestDirectoryRejections:
    """Every directory kind rejects each fault with its command's exit
    code: ``separate`` maps a missing file to 2 and a bad value to 5,
    ``eval`` maps both to 2."""

    @pytest.mark.parametrize(
        "fault, code", zip(_DIRECTORY_FAULTS, (5, 5, 2, 5, 5)), ids=_DIRECTORY_FAULTS
    )
    def test_separate_scenes(self, tmp_path, capsys, fault, code):
        assert _simulate(tmp_path / "scenes", count=2) == 0
        _break_directory(tmp_path / "scenes" / "scene_0002", "scene.json", fault)
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("fault", _DIRECTORY_FAULTS)
    @pytest.mark.parametrize(
        "directory, manifest_name",
        [("scene", "scene.json"), ("est", "estimates.json")],
        ids=["scene", "estimates"],
    )
    def test_eval(self, tmp_path, capsys, directory, manifest_name, fault):
        _eval_inputs(tmp_path)
        _break_directory(tmp_path / directory, manifest_name, fault)
        assert _eval(tmp_path) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWavFormatRejections:
    """A stereo or 8-bit PCM WAV, a file that is not RIFF WAV, one without
    a fmt or data chunk or with its data cut short, and one with a
    non-finite sample are rejected naming the file: exit 5 from
    ``separate``, 2 from ``eval``."""

    @pytest.mark.parametrize(
        "fault", [*_WAV_FAULTS, "non_finite", "non_finite_mixture"]
    )
    def test_separate_scenes_is_exit_5(self, tmp_path, capsys, fault):
        assert _simulate(tmp_path / "scenes", count=2) == 0
        _break_directory(tmp_path / "scenes" / "scene_0002", "scene.json", fault)
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        wav = "mixture.wav" if fault == "non_finite_mixture" else "s1_image.wav"
        assert f"scene_0002/{wav}" in err and "Traceback" not in err

    @pytest.mark.parametrize("fault", _WAV_FAULTS)
    @pytest.mark.parametrize("directory", ["scene", "est"])
    def test_eval_is_exit_2(self, tmp_path, capsys, directory, fault):
        _eval_inputs(tmp_path)
        manifest_name = "scene.json" if directory == "scene" else "estimates.json"
        _break_directory(tmp_path / directory, manifest_name, fault)
        assert _eval(tmp_path) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / directory / "s1_image.wav") in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_estimate_is_exit_2(self, tmp_path, capsys):
        _eval_inputs(tmp_path)
        _break_directory(tmp_path / "est", "estimates.json", "non_finite")
        assert _eval(tmp_path) == 2
        assert "signal contains non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_mixture_is_exit_2(self, tmp_path, capsys):
        _eval_inputs(tmp_path)
        _break_directory(tmp_path / "scene", "scene.json", "non_finite_mixture")
        assert _eval(tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'scene' / 'mixture.wav'}: signal contains" in err
        assert not (tmp_path / "out").exists()


class TestInvalidJson:
    """A manifest or config file that is not valid JSON is rejected,
    naming the file once."""

    def test_scene_manifest_is_exit_5(self, tmp_path, capsys):
        assert _simulate(tmp_path / "scenes", count=2) == 0
        path = tmp_path / "scenes" / "scene_0002" / "scene.json"
        path.write_text("{")
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert err.count(str(path)) == 1 and "Traceback" not in err

    def test_estimates_manifest_is_exit_2(self, tmp_path, capsys):
        _eval_inputs(tmp_path)
        path = tmp_path / "est" / "estimates.json"
        path.write_text("{")
        assert _eval(tmp_path) == 2
        assert capsys.readouterr().err.count(str(path)) == 1
        assert not (tmp_path / "out").exists()

    def test_config_file_is_exit_5(self, tmp_path, capsys):
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text("{")
        assert main(["separate", "--config", str(path), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"bad arguments: {path}: ") and err.count(str(path)) == 1
        assert not out.exists()


# A manifest value of the wrong JSON type in a 2-speaker directory:
# (manifest, key, value, what the message names).
_WRONG_TYPES = [
    ("scene.json", "num_speakers", None, "SceneSpec.num_speakers"),
    ("scene.json", "rir_direct_delays_samples", [None, None],
     "rir_direct_delays_samples"),
    ("scene.json", "num_speakers", 2.9, "SceneSpec.num_speakers"),
    ("estimates.json", "stft", {"window_length_samples": 256}, "StftConfig"),
    ("estimates.json", "num_samples", None, "num_samples"),
    ("estimates.json", "num_speakers", None, "num_speakers"),
    ("estimates.json", "num_speakers", 2.9, "num_speakers"),
]
_WRONG_TYPE_IDS = [
    "scene_speakers", "scene_delays", "scene_fractional_speakers", "stft",
    "samples", "speakers", "fractional_speakers",
]


def _set_manifest_value(path, key, value):
    manifest = read_json(path)
    manifest[key] = value
    write_json(path, manifest)


class TestWrongJsonTypes:
    """A manifest value of the wrong JSON type is a bad input, not a crash."""

    @pytest.mark.parametrize(
        "key, value, name", [t[1:] for t in _WRONG_TYPES[:3]], ids=_WRONG_TYPE_IDS[:3]
    )
    def test_separate_scenes_is_exit_5(self, tmp_path, capsys, key, value, name):
        assert _simulate(tmp_path / "scenes", speakers=2) == 0
        path = tmp_path / "scenes" / "scene_0001" / "scene.json"
        _set_manifest_value(path, key, value)
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "manifest, key, value, name", _WRONG_TYPES, ids=_WRONG_TYPE_IDS
    )
    def test_eval_is_exit_2(self, tmp_path, capsys, manifest, key, value, name):
        _eval_inputs(tmp_path, speakers=2)
        directory = "scene" if manifest == "scene.json" else "est"
        _set_manifest_value(tmp_path / directory / manifest, key, value)
        assert _eval(tmp_path) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


# Ways for a 1-speaker scene directory to hold no samples.
_EMPTY_FAULTS = ("rate", "duration", "mixture", "rir")


def _empty_scene(directory, fault) -> str:
    """Make the scene at ``directory`` hold no samples: a ``scene.json``
    rate below 1 Hz or duration under one sample, every signal WAV
    emptied, or an emptied impulse response that cannot hold its listed
    direct delay.  Returns what the rejection must name."""
    if fault == "rate":
        _set_manifest_value(directory / "scene.json", "sample_rate_hz", 0)
        return "sample_rate_hz must be >= 1"
    if fault == "duration":
        _set_manifest_value(directory / "scene.json", "duration_s", 1e-5)
        return "duration_s 1e-05 is under one sample at 8000 Hz"
    if fault == "rir":
        names = ["s1_rir.wav"]
    else:
        names = ["mixture.wav", "noise.wav", "s1_direct.wav", "s1_image.wav"]
    for name in names:
        write_wav(directory / name, np.zeros(0), 8000)
    return str(directory / names[0])


class TestEmptyScenes:
    """A scene that holds no samples is rejected where it enters, naming
    the field or the WAV: exit 5 from ``simulate`` and ``separate``, 2
    from ``eval``, and no ``--out`` is left."""

    @pytest.mark.parametrize(
        "duration, name",
        [
            ("0.00001", "duration_s 1e-05 is under one sample at 8000 Hz"),
            ("inf", "duration_s must be positive and finite"),
        ],
        ids=["under_one_sample", "inf"],
    )
    def test_simulate_duration_is_exit_5(self, tmp_path, capsys, duration, name):
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--duration", duration]) == 5
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("rate", [0, -8000])
    def test_config_rate_below_one_is_exit_5(self, tmp_path, capsys, rate):
        path = tmp_path / "config.json"
        write_json(path, {"scene": {"sample_rate_hz": rate}})
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--config", str(path)]) == 5
        assert "sample_rate_hz must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault", _EMPTY_FAULTS)
    def test_separate_scenes_is_exit_5(self, tmp_path, capsys, fault):
        assert _simulate(tmp_path / "scenes") == 0
        name = _empty_scene(tmp_path / "scenes" / "scene_0001", fault)
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault", _EMPTY_FAULTS)
    def test_eval_is_exit_2(self, tmp_path, capsys, fault):
        _eval_inputs(tmp_path)
        name = _empty_scene(tmp_path / "scene", fault)
        assert _eval(tmp_path) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestNegativeSeeds:
    """A negative seed is rejected where it enters, naming the field:
    exit 5, and no ``--out`` is left."""

    def _check(self, argv, out, capsys):
        assert main([*argv, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_seed_flag(self, tmp_path, capsys):
        self._check(["simulate", "--seed", "-1"], tmp_path / "o", capsys)

    def test_degradation_seed(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        write_json(path, {"degradation": {"seed": -1}})
        argv = ["separate", "--config", str(path), "--count", "1"]
        self._check(argv, tmp_path / "o", capsys)

    def test_scene_manifest_seed(self, tmp_path, capsys):
        assert _simulate(tmp_path / "scenes") == 0
        _set_manifest_value(tmp_path / "scenes" / "scene_0001" / "scene.json", "seed", -1)
        argv = ["separate", "--scenes", str(tmp_path / "scenes"), "--fcp", "off"]
        self._check(argv, tmp_path / "o", capsys)


class TestSweep:
    def test_taps_axis_via_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        write_json(
            path,
            config_to_dict(
                ExperimentConfig(
                    num_scenes=1,
                    scene=SceneRanges(num_speakers=1, duration_s=0.8),
                    degradation=DegradationSpec(snr_db=15.0),
                    fcp_mode="fcp",
                )
            ),
        )
        code = main(
            [
                "sweep",
                "--config", str(path),
                "--axis", "taps",
                "--values", "2,4",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert "wrote" in capsys.readouterr().out

    def test_rejected_value_makes_no_out_directory(self, tmp_path, capsys):
        out = tmp_path / "o2"
        argv = ["sweep", "--out", str(out), "--axis", "taps", "--values", "0"]
        assert main(argv) == 5
        assert capsys.readouterr().err == "bad arguments: taps must be >= 1\n"
        assert not out.exists()

    def test_fractional_taps_are_exit_5(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["sweep", "--out", str(out), "--axis", "taps", "--values", "4.5,4"]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err == "bad arguments: taps: expected an integer, not 4.5\n"
        assert not out.exists()

    def test_value_that_is_not_a_number_is_exit_5(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["sweep", "--out", str(out), "--axis", "taps", "--values", "4,x"]
        assert main(argv) == 5
        assert "could not convert string to float: 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_value_list_is_exit_5(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["sweep", "--out", str(out), "--axis", "taps", "--values", ""]
        assert main(argv) == 5
        assert capsys.readouterr().err == (
            "bad arguments: sweep needs at least one value\n"
        )
        assert not out.exists()

    def test_bad_axis_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--axis", "reverb_color",
                "--values", "1",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 5


class TestOutDirectory:
    """What a run writes depends on its config and inputs, not on where
    ``--out`` puts it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["separate", "--fcp", "off", "--quantiles", "0.5"],
            ["separate", "--fcp", "essu", "--quantiles", "0.5"],
            ["eval", "--scene", "scene", "--estimates", "est"],
            ["sweep", "--axis", "taps", "--values", "2,4"],
        ],
        ids=["simulate", "separate_off", "separate_essu", "eval", "sweep"],
    )
    def test_output_bytes_do_not_depend_on_out(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        config = ExperimentConfig(scene=SceneRanges(num_speakers=2, duration_s=0.8))
        write_json(tmp_path / "config.json", config_to_dict(config))
        if argv[0] == "eval":
            _eval_inputs(tmp_path, speakers=2)
        else:
            argv = [*argv, "--config", "config.json"]
        trees = []
        for out in ("a", "b"):
            assert main([*argv, "--out", out]) == 0
            trees.append(tree_bytes(tmp_path / out))
        assert trees[0] and trees[0] == trees[1]

    def test_config_file_out_key_is_ignored(self, tmp_path):
        config = ExperimentConfig(
            scene=SceneRanges(num_speakers=1, duration_s=0.8), fcp_mode="off"
        )
        write_json(tmp_path / "config.json", {**config_to_dict(config), "out": "x"})
        argv = ["separate", "--config", str(tmp_path / "config.json")]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        report = read_json(tmp_path / "out" / "report.json")
        assert report["config"] == config_to_dict(config)
        assert report["config_sha256"] == config.config_hash()


# Flag -> (argument, dotted config path, value in ``config_to_dict`` form).
_CONFIG_FLAGS = {
    "--seed": ("7", "seed", 7),
    "--count": ("3", "num_scenes", 3),
    "--speakers": ("3", "scene.num_speakers", 3),
    "--duration": ("1.5", "scene.duration_s", 1.5),
    "--t60-range": ("0.3,0.6", "scene.t60_range_s", [0.3, 0.6]),
    "--drr-range": ("1,4", "scene.drr_range_db", [1.0, 4.0]),
    "--snr-range": ("10,12.5", "scene.noise_snr_range_db", [10.0, 12.5]),
    "--gains": ("0,-6", "scene.speaker_gains_db", [0.0, -6.0]),
    "--fcp": ("essu", "fcp_mode", "essu"),
    "--iterations": ("3", "iterations", 3),
    "--refinement": ("fcp_substitute", "refinement", "fcp_substitute"),
    "--external-dir": ("ext", "external_dir", "ext"),
    "--degradation-snr": ("12.5", "degradation.snr_db", 12.5),
    "--degradation-mode": ("cross_talk", "degradation.mode", "cross_talk"),
    "--cross-talk-fraction": ("0.25", "degradation.cross_talk_fraction", 0.25),
    "--quantiles": ("0.25,0.5", "quantiles", [0.25, 0.5]),
}
_SUBCOMMAND_CONFIG_FLAGS = {
    "simulate": (
        "--seed", "--count", "--speakers", "--duration", "--t60-range",
        "--drr-range", "--snr-range", "--gains",
    ),
    "separate": (
        "--seed", "--count", "--fcp", "--iterations", "--refinement",
        "--external-dir", "--degradation-snr", "--degradation-mode",
        "--cross-talk-fraction", "--quantiles",
    ),
    "sweep": ("--seed", "--count", "--fcp", "--degradation-snr"),
}
_REQUIRED_ARGS = {
    "simulate": (),
    "separate": (),
    "eval": ("--scene", "scene", "--estimates", "est"),
    "sweep": ("--axis", "taps", "--values", "2"),
}
# A config file in which every flag-mapped field differs from both its
# default and the flag's value above.
_FILE_CONFIG = ExperimentConfig(
    seed=2,
    num_scenes=2,
    scene=SceneRanges(
        num_speakers=1,
        duration_s=0.8,
        t60_range_s=(0.25, 0.25),
        drr_range_db=(-2.0, -1.0),
        noise_snr_range_db=(30.0, 40.0),
        speaker_gains_db=(1.0,),
    ),
    degradation=DegradationSpec(mode="combined", snr_db=20.0, cross_talk_fraction=0.1),
    iterations=2,
    external_dir="base_ext",
    quantiles=(0.1,),
)
_CONFIG_CASES = [
    (command, flag, with_file)
    for command, flags in _SUBCOMMAND_CONFIG_FLAGS.items()
    for flag in (None, *flags)
    for with_file in (False, True)
]
_HELP = (("-h", "--help"), None, None, False, argparse.SUPPRESS)
_RANGE = "LO,HI"
# Subcommand -> sorted (option strings, choices, metavar, required, default).
_SURFACE = {
    "simulate": [
        (("--config",), None, None, False, None),
        (("--count",), None, None, False, None),
        (("--drr-range",), None, _RANGE, False, None),
        (("--duration",), None, None, False, None),
        (("--gains",), None, "DB,...", False, None),
        (("--out",), None, None, True, None),
        (("--seed",), None, None, False, None),
        (("--snr-range",), None, _RANGE, False, None),
        (("--speakers",), None, None, False, None),
        (("--t60-range",), None, _RANGE, False, None),
        _HELP,
    ],
    "separate": [
        (("--config",), None, None, False, None),
        (("--count",), None, None, False, None),
        (("--cross-talk-fraction",), None, None, False, None),
        (
            ("--degradation-mode",),
            ("additive_noise", "cross_talk", "combined"),
            None, False, None,
        ),
        (("--degradation-snr",), None, "DB", False, None),
        (("--external-dir",), None, None, False, None),
        (("--fcp",), ("off", "fcp", "essu"), None, False, None),
        (("--iterations",), None, None, False, None),
        (("--jobs",), None, None, False, 1),
        (("--out",), None, None, True, None),
        (("--quantiles",), None, "Q,...", False, None),
        (
            ("--refinement",),
            ("passthrough", "fcp_substitute", "external"),
            None, False, None,
        ),
        (("--scenes",), None, None, False, None),
        (("--seed",), None, None, False, None),
        _HELP,
    ],
    "eval": [
        (("--estimates",), None, None, True, None),
        (("--out",), None, None, True, None),
        (
            ("--quantiles",), None, "Q,...", False,
            (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        ),
        (("--scene",), None, None, True, None),
        _HELP,
    ],
    "sweep": [
        (
            ("--axis",), ("taps", "epsilon", "degradation_snr", "t60"),
            None, True, None,
        ),
        (("--config",), None, None, False, None),
        (("--count",), None, None, False, None),
        (("--degradation-snr",), None, "DB", False, None),
        (("--fcp",), ("fcp", "essu"), None, False, None),
        (("--jobs",), None, None, False, 1),
        (("--out",), None, None, True, None),
        (("--seed",), None, None, False, None),
        (("--values",), None, "V,...", True, None),
        _HELP,
    ],
}


@pytest.fixture
def recorded(monkeypatch):
    """Stand-ins for the batch runners: each call is recorded, no scene runs."""
    calls = []

    def recorder(result):
        def record(config, *args, **kwargs):
            calls.append((config_to_dict(config), args, kwargs))
            return result

        return record

    monkeypatch.setattr(cxfilter.cli, "run_simulation", recorder([]))
    monkeypatch.setattr(
        cxfilter.cli,
        "run_separation",
        recorder({"num_scenes": 0, "mean": {"si_sdr_db": 0.0}}),
    )
    monkeypatch.setattr(cxfilter.cli, "run_sweep", recorder([]))
    return calls


_RUNNERS = {
    "simulate": "run_simulation",
    "separate": "run_separation",
    "sweep": "run_sweep",
}
# (subcommand, error its batch runner raises, exit code, message prefix).
_RUNNER_FAILURES = [
    (command, error, code, prefix)
    for command in _RUNNERS
    for error, code, prefix in (
        (ValueError, 5, "bad arguments: "),
        (FileNotFoundError, 2, "I/O error: "),
        (OSError, 2, "I/O error: "),
    )
] + [("separate", NoScenesError, 3, "")]


class TestExitCodes:
    """``main`` turns what a batch runner raises into the documented code."""

    @pytest.mark.parametrize(
        "command, error, code, prefix",
        _RUNNER_FAILURES,
        ids=[f"{c}-{e.__name__}" for c, e, _, _ in _RUNNER_FAILURES],
    )
    def test_runner_error_gives_its_exit_code(
        self, tmp_path, capsys, monkeypatch, command, error, code, prefix
    ):
        def fail(*args, **kwargs):
            raise error("runner failed")

        monkeypatch.setattr(cxfilter.cli, _RUNNERS[command], fail)
        out = tmp_path / "out"
        assert main([command, "--out", str(out), *_REQUIRED_ARGS[command]]) == code
        assert capsys.readouterr().err == f"{prefix}runner failed\n"
        assert not out.exists()


class TestOutChecks:
    """``--out`` is made by the first file written into it, and one that
    cannot be written into is exit 2 before any work."""

    def test_interrupted_run_makes_no_out_directory(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cxfilter.cli, "run_separation", interrupt)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["separate", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "separate", "eval", "sweep"])
    @pytest.mark.parametrize(
        "fault", ["file", "under_a_file", "not_writable", "under_not_writable"]
    )
    def test_out_not_writable_is_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, recorded, command, fault
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        out = {
            "file": blocker,
            "under_a_file": blocker / "sub",
            "not_writable": tmp_path,
            "under_not_writable": tmp_path / "out" / "sub",
        }[fault]
        if fault.endswith("not_writable"):  # as a user without write access
            monkeypatch.setattr(cxfilter.cli.os, "access", lambda path, mode: False)
        loaded = count_calls(monkeypatch, cxfilter.cli, "load_scene")
        assert main([command, "--out", str(out), *_REQUIRED_ARGS[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: output directory not writable: {out} ")
        assert (recorded, loaded) == ([], [])
        assert tree_bytes(tmp_path) == {blocker.relative_to(tmp_path): b"x"}


class TestSurface:
    """What each flag sets, and what each subcommand takes."""

    @pytest.mark.parametrize("command, flag, with_file", _CONFIG_CASES)
    def test_flag_sets_its_config_field(
        self, tmp_path, capsys, recorded, command, flag, with_file
    ):
        out = str(tmp_path / "out")
        argv = [command, "--out", out, *_REQUIRED_ARGS[command]]
        base = _FILE_CONFIG if with_file else ExperimentConfig()
        if with_file:
            write_json(tmp_path / "config.json", config_to_dict(base))
            argv += ["--config", str(tmp_path / "config.json")]
        expected = config_to_dict(base)
        if flag is not None:
            text, path, value = _CONFIG_FLAGS[flag]
            argv += [flag, text]
            *parents, name = path.split(".")
            node = expected
            for key in parents:
                node = node[key]
            node[name] = value
        assert main(argv) == 0, capsys.readouterr().err
        [(config, _, _)] = recorded
        assert config == expected

    def test_run_arguments(self, tmp_path, recorded):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "scene.json").write_text("{}")
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out)]) == 0
        assert main(
            ["separate", "--out", str(out), "--scenes", str(scenes), "--jobs", "3"]
        ) == 0
        assert main(
            [
                "sweep", "--out", str(out), "--axis", "epsilon",
                "--values", "0.5,1e-2", "--jobs", "2",
            ]
        ) == 0
        assert [(args, kwargs) for _, args, kwargs in recorded] == [
            ((out,), {}),
            ((out,), {"scenes_dir": scenes, "jobs": 3}),
            (("epsilon", (0.5, 0.01), out), {"jobs": 2}),
        ]

    def test_config_file_and_flags_are_checked_together(
        self, tmp_path, capsys, recorded
    ):
        path = tmp_path / "config.json"
        write_json(path, {"refinement": "external"})
        argv = ["separate", "--config", str(path), "--out"]
        assert main([*argv, str(tmp_path / "a"), "--external-dir", "ext"]) == 0
        [(config, _, _)] = recorded
        assert (config["refinement"], config["external_dir"]) == ("external", "ext")
        assert main([*argv, str(tmp_path / "b")]) == 5
        assert "external_dir" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()
        assert len(recorded) == 1

    def test_options_of_each_subcommand(self):
        parser = build_parser()
        [sub] = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        surface = {
            name: sorted(
                (
                    tuple(a.option_strings),
                    None if a.choices is None else tuple(a.choices),
                    a.metavar,
                    a.required,
                    a.default,
                )
                for a in subparser._actions
            )
            for name, subparser in sub.choices.items()
        }
        assert surface == _SURFACE

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("simulate", ("--fcp", "fcp")),
            ("separate", ("--speakers", "2")),
            ("eval", ("--seed", "1")),
            ("sweep", ("--fcp", "off")),
        ],
    )
    def test_flag_not_taken_is_usage_error(
        self, tmp_path, capsys, recorded, command, flag
    ):
        out = tmp_path / "out"
        argv = [command, "--out", str(out), *_REQUIRED_ARGS[command], *flag]
        assert main(argv) == 5
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()
        assert recorded == []


class TestNegativeValues:
    @pytest.mark.parametrize(
        "argv, section, name, expected",
        [
            (["simulate", "--drr-range", "-5,0"], "scene", "drr_range_db", [-5.0, 0.0]),
            (["simulate", "--gains", "-3,0"], "scene", "speaker_gains_db", [-3.0, 0.0]),
            (
                ["simulate", "--gains", "-inf,.5"],
                "scene", "speaker_gains_db", ["-inf", 0.5],
            ),
            (["separate", "--degradation-snr", "-.5"], "degradation", "snr_db", -0.5),
        ],
        ids=["drr_range", "gains", "gains_inf", "degradation_snr"],
    )
    def test_list_and_pair_flags_take_negative_values(
        self, tmp_path, recorded, argv, section, name, expected
    ):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        [(config, _, _)] = recorded
        assert config[section][name] == expected

    def test_sweep_takes_negative_values(self, tmp_path, recorded):
        argv = ["sweep", "--axis", "degradation_snr", "--values", "-5,0"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        [(_, args, _)] = recorded
        assert args[:2] == ("degradation_snr", (-5.0, 0.0))

    def test_an_option_is_still_no_value(self, tmp_path, capsys, recorded):
        argv = ["simulate", "--out", str(tmp_path), "--drr-range", "--gains", "0"]
        assert main(argv) == 5
        assert "--drr-range: expected one argument" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "cxfilter",
                "simulate",
                "--out", str(tmp_path / "scenes"),
                "--count", "1",
                "--speakers", "1",
                "--duration", "0.6",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "scenes" / "scene_0001" / "scene.json").is_file()

    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cxfilter", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("simulate", "separate", "eval", "sweep"):
            assert name in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cxfilter", "separate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 5  # --out is required
