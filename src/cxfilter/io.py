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
leaves either the old file or the new one, never a truncated one.  A
file's directory, and any missing parent, is made by the write of the
file itself (:func:`_replacing`), so no directory is made before there
is a file to go into it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import struct
import types
import typing
from pathlib import Path

import numpy as np


@contextlib.contextmanager
def _replacing(path):
    """Yield a temporary path beside ``path``, renamed over it on success.

    ``path``'s directory and its missing parents are made first.  If the
    body raises, the temporary file is removed and ``path`` keeps its old
    bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_wav(path, samples, sample_rate_hz: int) -> None:
    """Write a mono float32 WAV file: a RIFF header, an 18-byte ``fmt ``
    chunk (IEEE float), a ``fact`` chunk holding the sample count, then
    ``data``, as ``scipy.io.wavfile.write`` lays it out."""
    data = np.asarray(samples, dtype="<f4")
    if data.ndim != 1:
        raise ValueError("only mono signals are written")
    if 50 + data.nbytes > 0xFFFFFFFF:  # the RIFF size field is 32-bit
        raise ValueError(f"{path}: {data.size} samples do not fit a RIFF WAV file")
    rate = int(sample_rate_hz)
    header = struct.pack(
        "<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
        b"RIFF", 50 + data.nbytes, b"WAVE",
        b"fmt ", 18, 3, 1, rate, 4 * rate, 4, 32, 0,  # tag 3: IEEE float
        b"fact", 4, data.size,
        b"data", data.nbytes,
    )
    with _replacing(path) as tmp:
        tmp.write_bytes(header + data.tobytes())


def _wav_format(path, fmt, order: str) -> tuple:
    """(format tag, channels, rate, bytes per sample, bits) of a ``fmt ``
    chunk.  An extensible header (tag 0xFFFE) gives the tag of its
    sub-format, the first field of the GUID
    ``{tag-0000-0010-8000-00AA00389B71}``."""
    if len(fmt) < 16:
        raise ValueError(f"{path}: fmt chunk of {len(fmt)} bytes, expected 16 or more")
    tag, channels, rate, _, align, bits = struct.unpack_from(order + "HHIIHH", fmt)
    if tag == 0xFFFE and len(fmt) >= 40:
        sub, *guid = struct.unpack_from(order + "IHH8s", fmt, 24)
        if guid == [0, 0x10, b"\x80\x00\x00\xaa\x00\x38\x9b\x71"]:
            tag = sub
    return tag, channels, rate, align // max(channels, 1), bits


def read_wav(path, expected_rate: int | None = None) -> np.ndarray:
    """Read a mono WAV file as float64 samples.

    A RIFF (little-endian) or RIFX (big-endian) file is read chunk by
    chunk; its ``fmt `` chunk must come before ``data``, and an
    extensible header is read by its sub-format.  IEEE float samples (32
    or 64-bit) pass through, and a non-finite one raises ValueError
    naming the file; integer PCM in 2, 3 or 4 bytes (16, 24 or 32-bit)
    is scaled to [-1, 1) so externally produced scenes are accepted.
    Any other file (RF64 and 8-bit PCM included), a missing chunk or a
    ``data`` chunk cut short raises ValueError naming the file.
    """
    raw = memoryview(Path(path).read_bytes())
    order = {b"RIFF": "<", b"RIFX": ">"}.get(bytes(raw[:4]))
    if order is None or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF or RIFX WAV file: {bytes(raw[:12])!r}")
    fmt, pos = None, 12
    while True:
        if pos + 8 > len(raw):
            raise ValueError(f"{path}: no {'data' if fmt else 'fmt'} chunk")
        chunk, size = struct.unpack_from(order + "4sI", raw, pos)
        pos += 8
        if chunk == b"data":
            break
        if chunk == b"fmt ":
            fmt = _wav_format(path, raw[pos : pos + size], order)
        pos += size + size % 2
    if fmt is None:
        raise ValueError(f"{path}: no fmt chunk before the data chunk")
    if pos + size > len(raw):
        raise ValueError(f"{path}: data chunk holds {len(raw) - pos} of {size} bytes")
    tag, channels, rate, width, bits = fmt
    if expected_rate is not None and rate != expected_rate:
        raise ValueError(f"{path}: sample rate {rate} != expected {expected_rate}")
    if channels != 1:
        raise ValueError(f"{path}: expected mono audio, got {channels} channels")
    pcm = tag == 1 and bits > 8 and width in (2, 3, 4)  # tag 1: integer PCM
    if not pcm and not (tag == 3 and bits in (32, 64) and width in (4, 8)):
        raise ValueError(
            f"{path}: unsupported WAV sample format: tag {tag:#x}, {bits}-bit"
        )
    count = size // width
    if pcm:
        # Each sample left-justified in an int32, then scaled by 2^-31.
        padded = np.zeros((count, 4), dtype=np.uint8)
        cols = slice(4 - width, 4) if order == "<" else slice(0, width)
        samples = np.frombuffer(raw, np.uint8, count * width, pos)
        padded[:, cols] = samples.reshape(count, width)
        return padded.view(order + "i4")[:, 0] / 2147483648.0
    data = np.frombuffer(raw, f"{order}f{width}", count, pos).astype(np.float64)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: signal contains non-finite values")
    return data


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
    """Write ``obj`` as JSON; one that does not encode raises ValueError
    before the file's directory is made."""
    text = json.dumps(jsonify(obj), indent=2, sort_keys=True) + "\n"
    with _replacing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """Write a CSV file: the header row, then each row.  Rows that raise
    do so before the file's directory is made."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    with _replacing(path) as tmp:
        tmp.write_text(text.getvalue(), encoding="utf-8", newline="")


def read_json(path):
    """The JSON value in the file at ``path``; a file that is not valid
    UTF-8 JSON raises ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {err}") from None


def write_wav_dir(directory, name: str, manifest: dict, wavs, rate: int) -> Path:
    """Write a WAV directory: each ``(file name, samples)`` of ``wavs`` at
    ``rate``, then the manifest file ``name`` last, so a directory with a
    manifest is complete.  Returns the manifest path."""
    directory = Path(directory)
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
