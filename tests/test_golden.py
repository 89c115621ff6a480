"""Golden config hashes and manifest bytes.

Reports embed the config and its SHA-256, and reruns must be
byte-identical, so the serialized form of a config is part of the
output format.  These values are pinned literally: any change to the
config (de)serializer that moves a byte fails here.
"""

from __future__ import annotations

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
        out="runs/a",
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
        '"iterations": 1, "num_scenes": 1, "out": null, "quantiles": [], '
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
        '"iterations": 1, "num_scenes": 1, "out": null, "quantiles": [], '
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
        '"iterations": 2, "num_scenes": 4, "out": "runs/a", '
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
