"""Golden config hashes and manifest bytes.

Reports embed the config and its SHA-256, and reruns must be
byte-identical, so the serialized form of a config is part of the
output format.  These values are pinned literally: any change to the
config (de)serializer that moves a byte fails here.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from cxfilter.experiment import ExperimentConfig, SceneRanges
from cxfilter.fcp import FcpConfig
from cxfilter.pipeline import DegradationSpec
from cxfilter.scenes import SceneSpec, load_scene, save_scene, simulate_scene
from cxfilter.stft import StftConfig

try:
    from cxfilter.io import config_from_dict, config_to_dict
except ImportError:
    # The pinned values were computed with the per-class to_dict/from_dict
    # methods that the generic pair replaced; this lets the same test run
    # against code that still has them.
    def config_to_dict(obj):
        return obj.to_dict()

    def config_from_dict(cls, d):
        return cls.from_dict(d)


INF = float("inf")


def _default():
    return ExperimentConfig()


def _criterion_10():
    return ExperimentConfig(
        num_scenes=1,
        scene=SceneRanges(
            num_speakers=1,
            duration_s=0.8,
            t60_range_s=(0.2, 0.5),
            drr_range_db=(-5.0, 0.0),
            noise_snr_range_db=(20.0, 30.0),
        ),
        degradation=DegradationSpec(snr_db=15.0),
        fcp_mode="fcp",
        fcp=FcpConfig(taps=3),
    )


def _all_fields():
    return ExperimentConfig(
        seed=123,
        num_scenes=4,
        scene=SceneRanges(
            num_speakers=3,
            duration_s=1.5,
            t60_range_s=(0.3, 0.3),
            drr_range_db=(-2.5, 4.0),
            noise_snr_range_db=(15.0, INF),
            sample_rate_hz=16000,
            speaker_gains_db=(0.0, -6.5, -INF),
        ),
        degradation=DegradationSpec(
            mode="combined", snr_db=INF, cross_talk_fraction=0.125, seed=9
        ),
        fcp_mode="essu",
        fcp=FcpConfig(
            taps=np.int64(12),
            epsilon=np.float64(2.5e-3),
            diag_load_delta=1e-5,
            stft=StftConfig(512, 128, 1024, 16000),
            per_freq_floor=True,
        ),
        iterations=2,
        refinement="fcp_substitute",
        stft_dnn=StftConfig(512, 128, 512, 16000),
        quantiles=(0.1, 0.5, 0.9),
        external_dir="ext",
    )


GOLDEN = [
    (
        _default,
        "5c0e0f9b842ea0d6f57d4d8bf45b1a0bbb9de01ed0daf84bc7a19476d8f4698b",
        '{"degradation": {"cross_talk_fraction": 0.0, "mode": "additive_noise", '
        '"seed": 0, "snr_db": "inf"}, "external_dir": null, "fcp": '
        '{"diag_load_delta": 1e-06, "epsilon": 0.001, "per_freq_floor": false, '
        '"stft": {"dft_size": 1024, "hop_samples": 64, "sample_rate_hz": 8000, '
        '"window_length_samples": 1024}, "taps": 40}, "fcp_mode": "fcp", '
        '"iterations": 1, "num_scenes": 1, "quantiles": [], '
        '"refinement": "passthrough", "scene": {"drr_range_db": [-5.0, 0.0], '
        '"duration_s": 3.0, "noise_snr_range_db": [20.0, 30.0], '
        '"num_speakers": 2, "sample_rate_hz": 8000, "speaker_gains_db": null, '
        '"t60_range_s": [0.2, 0.5]}, "seed": 0, "stft_dnn": {"dft_size": 256, '
        '"hop_samples": 64, "sample_rate_hz": 8000, '
        '"window_length_samples": 256}, "version": 1}',
    ),
    (
        _criterion_10,
        "e0f2ee55db141a3e76890ef24232f5bc3259d58c33a012c4ad1c6881787bf80e",
        '{"degradation": {"cross_talk_fraction": 0.0, "mode": "additive_noise", '
        '"seed": 0, "snr_db": 15.0}, "external_dir": null, "fcp": '
        '{"diag_load_delta": 1e-06, "epsilon": 0.001, "per_freq_floor": false, '
        '"stft": {"dft_size": 1024, "hop_samples": 64, "sample_rate_hz": 8000, '
        '"window_length_samples": 1024}, "taps": 3}, "fcp_mode": "fcp", '
        '"iterations": 1, "num_scenes": 1, "quantiles": [], '
        '"refinement": "passthrough", "scene": {"drr_range_db": [-5.0, 0.0], '
        '"duration_s": 0.8, "noise_snr_range_db": [20.0, 30.0], '
        '"num_speakers": 1, "sample_rate_hz": 8000, "speaker_gains_db": null, '
        '"t60_range_s": [0.2, 0.5]}, "seed": 0, "stft_dnn": {"dft_size": 256, '
        '"hop_samples": 64, "sample_rate_hz": 8000, '
        '"window_length_samples": 256}, "version": 1}',
    ),
    (
        _all_fields,
        "4583667cbdea1e74007b6647d7d788d393d601f3805ef8ad98017c6107116e13",
        '{"degradation": {"cross_talk_fraction": 0.125, "mode": "combined", '
        '"seed": 9, "snr_db": "inf"}, "external_dir": "ext", "fcp": '
        '{"diag_load_delta": 1e-05, "epsilon": 0.0025, "per_freq_floor": true, '
        '"stft": {"dft_size": 1024, "hop_samples": 128, "sample_rate_hz": 16000, '
        '"window_length_samples": 512}, "taps": 12}, "fcp_mode": "essu", '
        '"iterations": 2, "num_scenes": 4, '
        '"quantiles": [0.1, 0.5, 0.9], "refinement": "fcp_substitute", '
        '"scene": {"drr_range_db": [-2.5, 4.0], "duration_s": 1.5, '
        '"noise_snr_range_db": [15.0, "inf"], "num_speakers": 3, '
        '"sample_rate_hz": 16000, "speaker_gains_db": [0.0, -6.5, "-inf"], '
        '"t60_range_s": [0.3, 0.3]}, "seed": 123, "stft_dnn": '
        '{"dft_size": 512, "hop_samples": 128, "sample_rate_hz": 16000, '
        '"window_length_samples": 512}, "version": 1}',
    ),
]


@pytest.mark.parametrize(
    "make, sha256, blob", GOLDEN, ids=["default", "criterion_10", "all_fields"]
)
def test_config_bytes_and_hash_are_pinned(make, sha256, blob):
    config = make()
    assert config.config_hash() == sha256
    assert json.dumps(config_to_dict(config), sort_keys=True) == blob
    back = config_from_dict(ExperimentConfig, json.loads(blob))
    assert back == config
    assert back.config_hash() == sha256


SCENE_JSON = """\
{
  "drr_db": -3.0,
  "duration_s": 0.1,
  "files": {
    "mixture": "mixture.wav",
    "noise": "noise.wav",
    "s1_direct": "s1_direct.wav",
    "s1_image": "s1_image.wav",
    "s1_rir": "s1_rir.wav",
    "s2_direct": "s2_direct.wav",
    "s2_image": "s2_image.wav",
    "s2_rir": "s2_rir.wav"
  },
  "noise_snr_db": "inf",
  "num_speakers": 2,
  "rir_direct_delays_samples": [
    42,
    32
  ],
  "sample_rate_hz": 8000,
  "seed": 7,
  "speaker_gains_db": [
    0.0,
    -6.0
  ],
  "t60_s": 0.2,
  "version": 1
}
"""


def test_scene_manifest_bytes_are_pinned(tmp_path):
    spec = SceneSpec(
        num_speakers=2,
        duration_s=0.1,
        t60_s=0.2,
        drr_db=-3.0,
        noise_snr_db=INF,
        seed=7,
        speaker_gains_db=(0.0, -6.0),
    )
    path = save_scene(simulate_scene(spec), tmp_path)
    assert path.read_bytes() == SCENE_JSON.encode("utf-8")
    assert load_scene(tmp_path).spec == spec


def _eval_outputs(tmp_path) -> dict:
    """``cxfilter eval`` of degraded oracle estimates of one fixed scene."""
    from cxfilter.cli import main
    from cxfilter.pipeline import export_estimates, oracle_separate

    scene = simulate_scene(
        SceneSpec(num_speakers=2, duration_s=0.8, t60_s=0.3, seed=31)
    )
    save_scene(scene, tmp_path / "scene")
    separator = oracle_separate(scene, DegradationSpec(snr_db=10.0, seed=3))
    export_estimates(separator, tmp_path / "est")
    code = main(
        [
            "eval",
            "--scene", str(tmp_path / "scene"),
            "--estimates", str(tmp_path / "est"),
            "--out", str(tmp_path / "out"),
            "--quantiles", "0.1,0.3,0.5,0.7,0.9",
        ]
    )
    assert code == 0
    return {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in EVAL_SHA256
    }


EVAL_SHA256 = {
    "report.json": "4fba3b21ae34624cbb0126a5234aa15ce88bc72a03470cbbf139eb304e8b617c",
    "si_sdr_le_values.csv": (
        "08455829339d486ec3fcb20beb32f5ab78886ead05e6d566189f9f4d2fa31670"
    ),
    "si_sdr_le_improvements.csv": (
        "e681d303279470669139a94ab948fd5fddd90c5b3d9ab3218dc062864767aff9"
    ),
}


def test_eval_output_bytes_are_pinned(tmp_path):
    assert _eval_outputs(tmp_path) == EVAL_SHA256


def _small_batch_config(tmp_path):
    """A ``--config`` file for short 2-speaker batches."""
    from cxfilter.io import write_json

    path = tmp_path / "config.json"
    config = ExperimentConfig(
        seed=5,
        scene=SceneRanges(duration_s=0.8),
        degradation=DegradationSpec(snr_db=10.0),
        fcp=FcpConfig(taps=4),
    )
    write_json(path, config_to_dict(config))
    return path


def _file_digests(root) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _sweep_outputs(tmp_path) -> dict:
    """``cxfilter sweep`` of 2 taps values x 2 generated scenes on 2 jobs."""
    from cxfilter.cli import main

    code = main(
        [
            "sweep",
            "--config", str(_small_batch_config(tmp_path)),
            "--axis", "taps",
            "--values", "3,6",
            "--count", "2",
            "--jobs", "2",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    return _file_digests(tmp_path / "out")


SWEEP_SHA256 = {
    "sweep.csv": "1bfc6ed9f71b765e843db47b66def71342704d9259e2ccad318ade2df3995d2c",
}


def test_sweep_output_bytes_are_pinned(tmp_path):
    assert _sweep_outputs(tmp_path) == SWEEP_SHA256


def _separate_outputs(tmp_path) -> dict:
    """``cxfilter separate`` of 2 generated scenes with ESSU, two
    ``fcp_substitute`` iterations and two quantiles.

    The batch report is hashed as its JSON re-encoded without the
    file's trailing newline.
    """
    from cxfilter.cli import main
    from cxfilter.io import read_json

    out = tmp_path / "out"
    code = main(
        [
            "separate",
            "--config", str(_small_batch_config(tmp_path)),
            "--count", "2",
            "--fcp", "essu",
            "--iterations", "2",
            "--refinement", "fcp_substitute",
            "--quantiles", "0.25,0.75",
            "--out", str(out),
        ]
    )
    assert code == 0
    digests = _file_digests(out)
    report = read_json(out / "report.json")
    blob = json.dumps(report, indent=2, sort_keys=True).encode("utf-8")
    digests["report.json"] = hashlib.sha256(blob).hexdigest()
    return digests


SEPARATE_SHA256 = {
    "report.json": (
        "450b12291551e33b9354216c941630d2b62c5ea7817912a3e0043c72bd0f5fe9"
    ),
    "scene_0001/estimates/estimates.json": (
        "a5f5097176a91ba933e124127c1848d9202a3992c080b14bbdd8f699000289e1"
    ),
    "scene_0001/estimates/s1_direct.wav": (
        "fe1ab46b0cfca949826f836179f33311e60879b285b6a91b47c65d7bcf313238"
    ),
    "scene_0001/estimates/s1_image.wav": (
        "9a82a38741751e7c2d1dba62d569fe20e142c477cbefc479caf0067e636f169a"
    ),
    "scene_0001/estimates/s2_direct.wav": (
        "4bf26059111ae4f8ccf9a7e4dd78908d2e9b2cfc29d6ab94ed8813f9bf932360"
    ),
    "scene_0001/estimates/s2_image.wav": (
        "73728453e52cf3d305810b3760968432038eb5a1a0c23621d7fd25604bfa6f11"
    ),
    "scene_0001/report.json": (
        "758e0bf69a7dc28f05e23a464c9db9777bae5d6a32a7ee64d3403d383225ece8"
    ),
    "scene_0002/estimates/estimates.json": (
        "a5f5097176a91ba933e124127c1848d9202a3992c080b14bbdd8f699000289e1"
    ),
    "scene_0002/estimates/s1_direct.wav": (
        "b7983955287946df680056a707e6ab59b8c4145b87a777309608d546cda993be"
    ),
    "scene_0002/estimates/s1_image.wav": (
        "795ec5329c49fe8ba2db8c89f55a32307d5afe65e9fe0fbb772ed568a0b9e8f0"
    ),
    "scene_0002/estimates/s2_direct.wav": (
        "330b7098c8a955d621a9d11b64e91d7ed3863d531ed38ed5590b1ee517eebe21"
    ),
    "scene_0002/estimates/s2_image.wav": (
        "18d470d6bb17237061d30804f548c117fc1afe0117eecd8b3cb43f97b7f75cfa"
    ),
    "scene_0002/report.json": (
        "17b04c002a1a8345e4e1457db448a68e2fc1d50a81c3a8ff3986c73c8a9f0ec4"
    ),
}


def test_separate_output_bytes_are_pinned(tmp_path):
    assert _separate_outputs(tmp_path) == SEPARATE_SHA256


def _feature_export_outputs(tmp_path) -> dict:
    """``export_features`` of the stack ``predict`` builds for one fixed,
    seeded 2-speaker scene."""
    from cxfilter.pipeline import export_features, predict

    scene = simulate_scene(
        SceneSpec(num_speakers=2, duration_s=0.8, t60_s=0.3, seed=31)
    )
    config = ExperimentConfig(
        degradation=DegradationSpec(snr_db=10.0, seed=3), fcp=FcpConfig(taps=4)
    )
    _, stack = predict(scene, config)
    export_features(stack, tmp_path / "feat")
    return _file_digests(tmp_path / "feat")


FEATURES_SHA256 = {
    "features.json": (
        "6c98e394ef1e2cf3bf7418a73f5598dd2ccb9aaba6e99e16ce77734cfc9a8f3a"
    ),
    "mixture.wav": (
        "86db94b32a53a113432bb88e0c68a78f66b1d7ddfdad20e08a8bcb2aa70896b9"
    ),
    "s1_fcp_image.wav": (
        "7d24a538f7d15f4453e933e0088d9f7241b92991c0bc59f0f986a65e719e8377"
    ),
    "s1_stage1_direct.wav": (
        "676f1e3130c86f18cd1fa37558c5f85aaf0a6a748e7175e9e06830fcbb9b525e"
    ),
    "s1_stage1_image.wav": (
        "ea5037ff83c8641efda71e4a6c1bf5abfabf77a68770e2faed3e6fb6e2c204ef"
    ),
    "s2_fcp_image.wav": (
        "a4bc8c03fea9979c255dbeaa36dc76836c9a1867a49c1bcf7d4f350ad962c48d"
    ),
    "s2_stage1_direct.wav": (
        "23a946c270b538d56fc4b8ea6d5c67498564d0635435505825abb6667cf04004"
    ),
    "s2_stage1_image.wav": (
        "0897485d2174ee69ae94d2933d92b6246401bc8cd05ce410f448d35c31761eb7"
    ),
}


def test_feature_export_bytes_are_pinned(tmp_path):
    assert _feature_export_outputs(tmp_path) == FEATURES_SHA256
