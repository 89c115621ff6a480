"""WAV and JSON manifest helpers shared by scene and pipeline serialization.

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

    Float formats are passed through; 16/32-bit PCM is rescaled to
    [-1, 1) so externally produced scenes are accepted.
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
    if data.dtype in (np.float32, np.float64):
        return data.astype(np.float64)
    raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")


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
    """JSON-safe dict of a (nested) config dataclass."""
    return jsonify(dataclasses.asdict(obj))


def _decode(hint, value):
    if isinstance(hint, types.UnionType):  # ``X | None``
        if value is None:
            return None
        (hint,) = [h for h in typing.get_args(hint) if h is not type(None)]
    if dataclasses.is_dataclass(hint):
        return config_from_dict(hint, value)
    if hint in (tuple, int, float, bool):
        return hint(value)  # float() also parses the encoded "inf"/"-inf"
    return value


def config_from_dict(cls, d: dict):
    """Inverse of :func:`config_to_dict`.

    Unknown keys are ignored and missing keys take the dataclass
    defaults.
    """
    if not isinstance(d, dict):
        raise ValueError(
            f"{cls.__name__} must be a JSON object, not {type(d).__name__}"
        )
    hints = typing.get_type_hints(cls)
    return cls(
        **{
            f.name: _decode(hints[f.name], d[f.name])
            for f in dataclasses.fields(cls)
            if f.name in d
        }
    )


def write_json(path, obj) -> None:
    with _replacing(path) as tmp:
        tmp.write_text(
            json.dumps(jsonify(obj), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
