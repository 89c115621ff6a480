"""WAV and JSON helpers: precision, rejection paths, manifest safety."""

import types
from pathlib import Path

import numpy as np
import pytest

from cxfilter import io as io_module
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


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", ["wav", "json"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / f"out.{kind}"
        if kind == "wav":
            write_wav(path, np.ones(100), 8000)

            def torn_wav(filename, rate, data):
                Path(filename).write_bytes(b"RIFF\0\0")
                raise OSError("disk full")

            fake = types.SimpleNamespace(write=torn_wav)
            monkeypatch.setattr(io_module, "wavfile", fake)

            def write():
                write_wav(path, np.zeros(50), 8000)

        else:
            write_json(path, {"a": 1})

            def torn_text(self, text, encoding=None):
                with open(self, "w", encoding=encoding) as fh:
                    fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_text", torn_text)

            def write():
                write_json(path, {"a": 2, "b": [1, 2, 3]})

        old = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            write()
        assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == [path]

    def test_write_replaces_the_old_file(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"a": 1})
        write_json(path, {"a": 2})
        assert read_json(path) == {"a": 2}
        assert sorted(tmp_path.iterdir()) == [path]


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
