"""WAV, JSON and CSV helpers shared by scene, pipeline and report writers.

A WAV directory (scene, features, estimates) is written by
:func:`write_wav_dir` and checked by :func:`read_manifest` and
:func:`read_listed_wav`.

Config dataclasses serialize through one pair, :func:`config_to_dict`
and :func:`config_from_dict`; report hashes are taken over that form.

Audio is stored as mono 32-bit float little-endian WAV.  Arrays are
float64 in memory; writing quantizes to float32, so one write/read trip
is exact at float32 precision and idempotent afterwards.

Writers are atomic: a file is written whole under a temporary name in
its directory and then renamed over the target, so an interrupted run
leaves either the old file or the new one, never a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import types
import typing
from pathlib import Path

import numpy as np
from scipy.io import wavfile


@contextlib.contextmanager
def _replacing(path):
    """Yield a temporary path beside ``path``, renamed over it on success.

    If the body raises, the temporary file is removed and ``path`` keeps
    its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_wav(path, samples, sample_rate_hz: int) -> None:
    """Write a mono float32 WAV file."""
    data = np.asarray(samples, dtype=np.float32)
    if data.ndim != 1:
        raise ValueError("only mono signals are written")
    with _replacing(path) as tmp:
        wavfile.write(str(tmp), int(sample_rate_hz), data)


def read_wav(path, expected_rate: int | None = None) -> np.ndarray:
    """Read a mono WAV file as float64 samples.

    Float formats are passed through, and a non-finite sample raises
    ValueError naming the file; 16/32-bit PCM is rescaled to [-1, 1) so
    externally produced scenes are accepted.
    """
    rate, data = wavfile.read(str(path))
    if expected_rate is not None and rate != expected_rate:
        raise ValueError(f"{path}: sample rate {rate} != expected {expected_rate}")
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got shape {data.shape}")
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:
        return data.astype(np.float64) / 2147483648.0
    if data.dtype not in (np.float32, np.float64):
        raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: signal contains non-finite values")
    return data.astype(np.float64)


def _encode_value(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            raise ValueError("NaN is not storable in a manifest")
    return v


def jsonify(obj):
    """Recursively make an object JSON-safe (inf -> 'inf' strings)."""
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _encode_value(float(obj))
    return _encode_value(obj)


def config_to_dict(obj) -> dict:
    """JSON-safe dict of a (nested) config dataclass, read back through
    :func:`config_from_dict` first so that each field takes its declared
    type (a ``3`` in a float field is written ``3.0``) and equal configs
    encode, and hash, equal."""
    decoded = config_from_dict(type(obj), jsonify(dataclasses.asdict(obj)))
    return jsonify(dataclasses.asdict(decoded))


def decode_value(hint, value, name: str):
    """``value`` decoded as a config field of type ``hint``; a value that
    does not decode raises ValueError naming ``name``."""
    if isinstance(hint, types.UnionType):  # ``X | None``
        if value is None:
            return None
        (hint,) = [h for h in typing.get_args(hint) if h is not type(None)]
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(
                f"{name}: {hint.__name__} must be a JSON object, "
                f"not {type(value).__name__}"
            )
        return config_from_dict(hint, value)
    if hint is int:
        # An integral number; JSON's true and false are not numbers here.
        integral = isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not (isinstance(value, int) or integral):
            raise ValueError(f"{name}: expected an integer, not {value!r}")
        return int(value)
    if hint is bool and not isinstance(value, bool):
        raise ValueError(f"{name}: expected true or false, not {value!r}")
    if hint is str and not isinstance(value, str):
        raise ValueError(f"{name}: expected a string, not {value!r}")
    if hint is float:
        # A number, or an infinity as config_to_dict encodes it.
        if value in ("inf", "-inf"):
            return float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name}: expected a number, not {value!r}")
        return float(value)
    if typing.get_origin(hint) is tuple:  # ``tuple[X, ...]``; a flag gives a tuple
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name}: expected a list, not {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(
            decode_value(item, v, f"{name}[{i}]") for i, v in enumerate(value)
        )
    return value


def config_from_dict(cls, d: dict):
    """Inverse of :func:`config_to_dict`.

    Unknown keys are ignored and missing keys take the dataclass
    defaults.  A value of the wrong type, or a missing key without a
    default, raises ValueError naming the key or the class.
    """
    if not isinstance(d, dict):
        raise ValueError(
            f"{cls.__name__} must be a JSON object, not {type(d).__name__}"
        )
    hints = typing.get_type_hints(cls)
    values = {
        f.name: decode_value(hints[f.name], d[f.name], f"{cls.__name__}.{f.name}")
        for f in dataclasses.fields(cls)
        if f.name in d
    }
    try:
        return cls(**values)
    except TypeError as err:  # a required field absent, or of the wrong type
        raise ValueError(f"{cls.__name__}: {err}") from None


def write_json(path, obj) -> None:
    with _replacing(path) as tmp:
        tmp.write_text(
            json.dumps(jsonify(obj), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def write_csv(path, header, rows) -> None:
    """Write a CSV file: the header row, then each row."""
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_wav_dir(directory, name: str, manifest: dict, wavs, rate: int) -> Path:
    """Write a WAV directory: each ``(file name, samples)`` of ``wavs`` at
    ``rate``, then the manifest file ``name`` last, so a directory with a
    manifest is complete.  Returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for file, samples in wavs:
        write_wav(directory / file, samples, rate)
    path = directory / name
    write_json(path, manifest)
    return path


def read_manifest(path, version: int, keys) -> dict:
    """Read a manifest object, checking its ``version`` and that it has
    every one of ``keys``; either fault raises ValueError naming it."""
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a JSON object")
    if manifest.get("version") != version:
        raise ValueError(
            f"{path}: version {manifest.get('version')!r} unsupported "
            f"(expected {version})"
        )
    missing = [key for key in keys if key not in manifest]
    if missing:
        raise ValueError(f"{path}: missing required key(s) {', '.join(missing)}")
    return manifest


def read_listed_wav(path, name: str, rate: int, length=None) -> np.ndarray:
    """Read the WAV ``name`` listed by the manifest at ``path``:
    FileNotFoundError if it is missing, ValueError if its rate or (given)
    ``length`` differs."""
    wav = Path(path).parent / name
    if not wav.is_file():
        raise FileNotFoundError(f"{path} lists a missing file: {wav}")
    signal = read_wav(wav, expected_rate=rate)
    if length is not None and signal.shape[0] != length:
        raise ValueError(f"{wav}: {signal.shape[0]} samples, expected {length}")
    return signal
