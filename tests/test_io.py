"""WAV and JSON helpers: precision, rejection paths, manifest safety."""

import numpy as np
import pytest

from cxfilter.experiment import ExperimentConfig
from cxfilter.io import (
    config_from_dict,
    config_to_dict,
    jsonify,
    read_json,
    read_wav,
    write_json,
    write_wav,
)


class TestWav:
    def test_float32_round_trip_exact(self, tmp_path, rng):
        x = rng.standard_normal(1000)
        path = tmp_path / "x.wav"
        write_wav(path, x, 8000)
        y = read_wav(path, expected_rate=8000)
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y, x.astype(np.float32).astype(np.float64))

    def test_second_trip_idempotent(self, tmp_path, rng):
        x = rng.standard_normal(500)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(p1, x, 8000)
        y = read_wav(p1)
        write_wav(p2, y, 8000)
        np.testing.assert_array_equal(read_wav(p2), y)

    def test_rate_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "x.wav"
        write_wav(path, rng.standard_normal(100), 8000)
        with pytest.raises(ValueError):
            read_wav(path, expected_rate=16000)


class TestJson:
    def test_round_trip(self, tmp_path):
        obj = {"a": 1, "b": [1.5, 2.5], "c": {"nested": "x"}}
        path = tmp_path / "m.json"
        write_json(path, obj)
        assert read_json(path) == obj

    def test_infinity_encoding(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"snr_db": np.inf})
        raw = path.read_text()
        assert "Infinity" not in raw
        assert float(read_json(path)["snr_db"]) == np.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            jsonify({"x": np.nan})

    def test_numpy_scalars_coerced(self):
        out = jsonify({"i": np.int64(3), "f": np.float64(1.5)})
        assert out == {"i": 3, "f": 1.5}
        assert isinstance(out["i"], int) and isinstance(out["f"], float)

    def test_deterministic_bytes(self, tmp_path):
        obj = {"b": 2, "a": 1, "list": [3, 2, 1]}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        write_json(p1, obj)
        write_json(p2, {"list": [3, 2, 1], "a": 1, "b": 2})
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigDict:
    def test_missing_keys_take_defaults_and_unknown_keys_are_ignored(self):
        config = config_from_dict(
            ExperimentConfig, {"fcp": {"taps": 7}, "scene": {}, "extra": 1}
        )
        assert config.fcp.taps == 7
        assert config.fcp.epsilon == ExperimentConfig().fcp.epsilon
        assert config.scene == ExperimentConfig().scene

    def test_encoded_values_are_coerced_back(self):
        d = config_to_dict(ExperimentConfig(quantiles=(0.5,)))
        d["degradation"]["snr_db"] = "-inf"
        d["scene"]["speaker_gains_db"] = [0, "-inf"]
        with pytest.raises(ValueError, match="snr_db"):
            config_from_dict(ExperimentConfig, d)
        d["degradation"]["snr_db"] = "inf"
        config = config_from_dict(ExperimentConfig, d)
        assert config.degradation.snr_db == np.inf
        assert config.scene.speaker_gains_db == (0.0, -np.inf)
        assert config.quantiles == (0.5,)
        assert config.out is None

    def test_non_object_is_rejected(self):
        with pytest.raises(ValueError, match="ExperimentConfig.*list"):
            config_from_dict(ExperimentConfig, [1])
        with pytest.raises(ValueError, match="SceneRanges.*list"):
            config_from_dict(ExperimentConfig, {"scene": [1]})
