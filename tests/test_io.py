"""WAV, JSON and CSV helpers: precision, rejection paths, manifest safety."""

import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from cxfilter.experiment import ExperimentConfig
from cxfilter.io import (
    config_from_dict,
    config_to_dict,
    jsonify,
    read_json,
    read_listed_wav,
    read_manifest,
    read_wav,
    write_csv,
    write_json,
    write_wav,
    write_wav_dir,
)
from cxfilter.scenes import SceneSpec
from cxfilter.stft import SEPARATOR_STFT, StftConfig


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


def _wav_file(order, tag, bits, width, payload, extensible=False) -> bytes:
    """A mono 8 kHz WAV: RIFF (``order`` ``<``) or RIFX (``>``), a ``fmt ``
    chunk (plain, or extensible naming ``tag`` by its sub-format GUID),
    an odd-sized ``LIST`` chunk with its pad byte, then ``data``."""
    head = (1, 8000, 8000 * width, width, bits)
    if extensible:
        tail = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
        guid = struct.pack(order + "IHH8s", tag, 0, 0x10, tail)
        fmt = struct.pack(order + "HHIIHHHHI", 0xFFFE, *head, 22, bits, 4) + guid
    else:
        fmt = struct.pack(order + "HHIIHH", tag, *head)
    chunks = [(b"fmt ", fmt), (b"LIST", b"abc"), (b"data", payload)]
    body = b"WAVE" + b"".join(
        name + struct.pack(order + "I", len(data)) + data + b"\0" * (len(data) % 2)
        for name, data in chunks
    )
    magic = b"RIFF" if order == "<" else b"RIFX"
    return magic + struct.pack(order + "I", len(body)) + body


def _scipy_read_wav(path) -> np.ndarray:
    """The oracle: ``scipy.io.wavfile.read``, with 16 and 32-bit PCM
    scaled by 2^-15 and 2^-31 and floats widened to float64."""
    data = wavfile.read(path)[1]
    scale = {np.int16: 2.0**-15, np.int32: 2.0**-31}.get(data.dtype.type, 1.0)
    return data.astype(np.float64) * scale


# (format tag, bits, bytes per sample) of every sample format read_wav takes.
_ACCEPTED = [(1, 16, 2), (1, 24, 3), (1, 32, 4), (3, 32, 4), (3, 64, 8)]


class TestWavOracle:
    """The codec against ``scipy.io.wavfile``: the writer's bytes, and
    every accepted format read as scipy reads it."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        length=st.integers(0, 3000),
        rate=st.integers(1, (2**32 - 1) // 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_write_wav_bytes_are_scipys(self, length, rate, seed):
        samples = np.random.default_rng(seed).standard_normal(length)
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp, "ours.wav"), Path(tmp, "theirs.wav")
            write_wav(ours, samples, rate)
            wavfile.write(theirs, rate, samples.astype(np.float32))
            assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
    @pytest.mark.parametrize("order", ["<", ">"], ids=["riff", "rifx"])
    @pytest.mark.parametrize(
        "tag, bits, width", _ACCEPTED,
        ids=["pcm16", "pcm24", "pcm32", "float32", "float64"],
    )
    def test_read_wav_equals_scipys(
        self, tmp_path, rng, tag, bits, width, order, extensible
    ):
        count = 257  # an odd data chunk for 3-byte samples
        if tag == 1:
            payload = rng.integers(0, 256, count * width, dtype=np.uint8).tobytes()
        else:
            payload = rng.standard_normal(count).astype(f"{order}f{width}").tobytes()
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_file(order, tag, bits, width, payload, extensible))
        got = read_wav(path, expected_rate=8000)
        want = _scipy_read_wav(path)
        assert got.dtype == np.float64 and got.shape == (count,)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "fault",
        ["pcm8", "alaw", "rf64", "not_wav", "no_fmt", "no_data", "truncated"],
    )
    def test_rejection_names_the_file(self, tmp_path, fault):
        path = tmp_path / "x.wav"
        write_wav(path, np.zeros(64), 8000)
        raw = path.read_bytes()  # RIFF header, fmt to 38, fact to 50, data
        broken = {
            "pcm8": _wav_file("<", 1, 8, 1, bytes(64)),
            "alaw": _wav_file("<", 6, 8, 1, bytes(64)),
            "rf64": b"RF64" + raw[4:],
            "not_wav": b"garbage",
            "no_fmt": raw[:12] + raw[38:],
            "no_data": raw[:50],
            "truncated": raw[:-8],
        }[fault]
        path.write_bytes(broken)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            read_wav(path)


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
    @pytest.mark.parametrize("kind", ["wav", "json", "csv"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / f"out.{kind}"
        if kind == "wav":
            write_wav(path, np.ones(100), 8000)

            def torn_bytes(self, data):
                with open(self, "wb") as fh:
                    fh.write(data[: len(data) // 2])
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_bytes", torn_bytes)

            def write():
                write_wav(path, np.zeros(50), 8000)

        elif kind == "json":
            write_json(path, {"a": 1})

            def torn_text(self, text, encoding=None):
                with open(self, "w", encoding=encoding) as fh:
                    fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_text", torn_text)

            def write():
                write_json(path, {"a": 2, "b": [1, 2, 3]})

        else:
            write_csv(path, ("a",), [[1.5]])

            def torn_rows():
                yield [2.5, 3.5]
                raise OSError("disk full")

            def write():
                write_csv(path, ("a", "b"), torn_rows())

        old = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            write()
        assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind", ["wav", "json", "csv"])
    def test_write_makes_the_missing_directories(self, tmp_path, kind):
        path = tmp_path / "a" / "b" / f"out.{kind}"
        {
            "wav": lambda: write_wav(path, np.ones(100), 8000),
            "json": lambda: write_json(path, {"a": 1}),
            "csv": lambda: write_csv(path, ("a",), [[1.5]]),
        }[kind]()
        assert [p.relative_to(tmp_path) for p in sorted(tmp_path.rglob("*"))] == [
            Path("a"), Path("a/b"), Path("a/b") / path.name
        ]

    def test_json_that_does_not_encode_makes_no_directory(self, tmp_path):
        with pytest.raises(ValueError, match="NaN"):
            write_json(tmp_path / "a" / "m.json", {"x": np.nan})
        assert list(tmp_path.iterdir()) == []

    def test_csv_rows_that_raise_make_no_directory(self, tmp_path):
        def rows():
            yield [1.5]
            raise OSError("unreadable row")

        with pytest.raises(OSError, match="unreadable row"):
            write_csv(tmp_path / "a" / "m.csv", ("a",), rows())
        assert list(tmp_path.iterdir()) == []

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

    def test_non_object_is_rejected(self):
        with pytest.raises(ValueError, match="ExperimentConfig.*list"):
            config_from_dict(ExperimentConfig, [1])
        with pytest.raises(ValueError, match="SceneRanges.*list"):
            config_from_dict(ExperimentConfig, {"scene": [1]})

    @pytest.mark.parametrize(
        "cls, d, name",
        [
            (StftConfig, {"window_length_samples": 256}, "StftConfig"),
            (StftConfig, {**config_to_dict(SEPARATOR_STFT), "dft_size": "x"},
             "StftConfig.dft_size"),
            (SceneSpec, {"num_speakers": None}, "SceneSpec.num_speakers"),
            (ExperimentConfig, {"quantiles": 5}, "ExperimentConfig.quantiles"),
            (ExperimentConfig, {"scene": {"t60_range_s": None}},
             "SceneRanges.t60_range_s"),
            (SceneSpec, {"num_speakers": 2.9}, "SceneSpec.num_speakers"),
            (ExperimentConfig, {"fcp": {"taps": 40.5}}, "FcpConfig.taps"),
            (ExperimentConfig, {"num_scenes": True}, "ExperimentConfig.num_scenes"),
            (ExperimentConfig, {"seed": "3"}, "ExperimentConfig.seed"),
            (ExperimentConfig, {"fcp": {"per_freq_floor": "false"}},
             "FcpConfig.per_freq_floor"),
            (ExperimentConfig, {"fcp": {"per_freq_floor": 0}},
             "FcpConfig.per_freq_floor"),
            (ExperimentConfig, {"external_dir": 5}, "ExperimentConfig.external_dir"),
            (ExperimentConfig, {"fcp_mode": ["essu"]}, "ExperimentConfig.fcp_mode"),
            (ExperimentConfig, {"fcp": {"epsilon": True}}, "FcpConfig.epsilon"),
            (ExperimentConfig, {"fcp": {"diag_load_delta": "0.5"}},
             "FcpConfig.diag_load_delta"),
            (ExperimentConfig, {"degradation": {"snr_db": "Infinity"}},
             "DegradationSpec.snr_db"),
            (ExperimentConfig, {"scene": {"t60_range_s": "12"}},
             "SceneRanges.t60_range_s"),
            (ExperimentConfig, {"scene": {"drr_range_db": ["-5", "0"]}},
             "SceneRanges.drr_range_db[0]"),
            (ExperimentConfig, {"quantiles": {"0.5": 1}}, "ExperimentConfig.quantiles"),
            (SceneSpec, {"num_speakers": 2, "speaker_gains_db": [0, False]},
             "SceneSpec.speaker_gains_db[1]"),
        ],
        ids=[
            "missing_field", "string", "null", "number_for_list", "nested",
            "fraction_for_int", "fraction_for_int_nested", "bool_for_int",
            "string_for_int", "string_for_bool", "number_for_bool",
            "number_for_optional_str", "list_for_str", "bool_for_float",
            "string_for_float", "unencoded_infinity", "string_for_tuple",
            "strings_in_tuple", "object_for_tuple", "bool_in_tuple",
        ],
    )
    def test_value_of_the_wrong_type_is_named(self, cls, d, name):
        with pytest.raises(ValueError, match=re.escape(name)):
            config_from_dict(cls, d)

    def test_tuple_items_decode_as_floats(self):
        config = config_from_dict(
            ExperimentConfig,
            {"scene": {"t60_range_s": [1, 2], "speaker_gains_db": [0, "-inf"]}},
        )
        assert config.scene.t60_range_s == (1.0, 2.0)
        assert config.scene.speaker_gains_db == (0.0, -np.inf)
        assert all(type(v) is float for v in config.scene.t60_range_s)
        # A flag gives a tuple where a JSON file gives a list.
        flags = {"scene": {"t60_range_s": (1, 2), "speaker_gains_db": (0, "-inf")}}
        assert config_from_dict(ExperimentConfig, flags) == config

    def test_integral_number_decodes_as_int(self):
        config = config_from_dict(ExperimentConfig, {"fcp": {"taps": 7.0}, "seed": 3})
        assert (config.fcp.taps, config.seed) == (7, 3)
        assert type(config.fcp.taps) is int


class TestWavDir:
    @pytest.fixture
    def manifest(self, tmp_path):
        wavs = [("a.wav", np.zeros(10)), ("b.wav", np.ones(10))]
        header = {"version": 1, "n": 10, "files": ["a.wav", "b.wav"]}
        return write_wav_dir(tmp_path / "d", "m.json", header, wavs, 8000)

    def test_round_trip(self, manifest):
        assert manifest.name == "m.json"
        assert read_manifest(manifest, 1, ["n"])["files"] == ["a.wav", "b.wav"]
        assert np.array_equal(read_listed_wav(manifest, "b.wav", 8000, 10), np.ones(10))

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"version": 2, "n": 10}, "version 2 unsupported (expected 1)"),
            ({"version": 1}, "missing required key(s) n"),
            ([1], "not a JSON object"),
        ],
        ids=["version", "key", "list"],
    )
    def test_manifest_rejected(self, manifest, header, message):
        write_json(manifest, header)
        with pytest.raises(ValueError, match=re.escape(f"{manifest}: {message}")):
            read_manifest(manifest, 1, ["n"])

    def test_listed_wav_rejected(self, manifest):
        with pytest.raises(FileNotFoundError, match="lists a missing file"):
            read_listed_wav(manifest, "c.wav", 8000)
        with pytest.raises(ValueError, match="sample rate 8000 != expected 16000"):
            read_listed_wav(manifest, "a.wav", 16000)
        with pytest.raises(ValueError, match=r"a\.wav: 10 samples, expected 11$"):
            read_listed_wav(manifest, "a.wav", 8000, 11)
