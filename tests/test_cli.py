"""Command-line interface: subcommands, exit codes, determinism."""

import subprocess
import sys

import pytest

from cxfilter import DegradationSpec, SceneSpec, simulate_scene
from cxfilter.cli import main
from cxfilter.experiment import ExperimentConfig, SceneRanges
from cxfilter.io import config_to_dict, read_json, write_json
from cxfilter.pipeline import export_estimates, oracle_separate
from cxfilter.scenes import save_scene


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

    def test_out_under_a_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        assert _simulate(blocker / "sub") == 2


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


class TestEval:
    def _fixture(self, tmp_path, speakers=1):
        scene = simulate_scene(
            SceneSpec(num_speakers=speakers, duration_s=0.8, seed=6)
        )
        save_scene(scene, tmp_path / "scene")
        sep = oracle_separate(scene, DegradationSpec())
        export_estimates(sep, tmp_path / "est", scene.num_samples)
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

    def test_missing_estimates_is_exit_2(self, tmp_path):
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
