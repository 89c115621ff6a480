"""Synthetic multi-speaker reverberant scenes.

A scene realizes the additive mixture model: per speaker, a dry source
is convolved with a room impulse response split into a unit direct-path
impulse and a stochastic exponentially-decaying tail; the mixture is the
sum of the reverberant images plus white noise at a controlled SNR.
Everything is seeded and reproducible, and scenes round-trip through a
WAV + JSON directory layout so externally produced scenes can be used
in place of generated ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
# numpy 2 loads these lazily: here, not in a batch's first scene.
import numpy.fft
import numpy.random

from cxfilter.io import (
    config_from_dict,
    config_to_dict,
    read_listed_wav,
    read_manifest,
    write_wav_dir,
)

SCENE_MANIFEST = "scene.json"
SCENE_FORMAT_VERSION = 1

# Direct-path delay range in samples: roughly 1-2 m source distance at 8 kHz.
_MIN_DIRECT_DELAY = 23
_MAX_DIRECT_DELAY = 47


class NoScenesError(FileNotFoundError):
    """A scene directory, or scene root, that holds no scene manifest."""


@dataclass
class Rir:
    """Room impulse response: unit direct impulse plus decaying tail."""

    taps: np.ndarray
    direct_delay_samples: int
    sample_rate_hz: int

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1:
            raise ValueError("RIR taps must be 1-D")
        if not 0 <= self.direct_delay_samples < self.taps.size:
            raise ValueError("direct_delay_samples outside the tap range")


@dataclass(frozen=True)
class SceneSpec:
    """Full recipe for one synthetic scene (deterministic given seed)."""

    num_speakers: int = 2
    duration_s: float = 3.0
    t60_s: float = 0.3
    drr_db: float = 0.0
    noise_snr_db: float = 25.0
    seed: int = 0
    sample_rate_hz: int = 8000
    speaker_gains_db: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.num_speakers < 1:
            raise ValueError("num_speakers must be >= 1")
        if self.sample_rate_hz < 1:
            raise ValueError("sample_rate_hz must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")
        if self.num_samples < 1:
            raise ValueError(
                f"duration_s {self.duration_s} is under one sample at "
                f"{self.sample_rate_hz} Hz"
            )
        if not 0 < self.t60_s < math.inf:
            raise ValueError("t60_s must be positive and finite")
        # +inf disables the reverberant tail or the noise; -inf has no
        # rendering, so it is rejected rather than read as +inf.
        for name in ("drr_db", "noise_snr_db"):
            value = getattr(self, name)
            if math.isnan(value) or value == -math.inf:
                raise ValueError(f"{name} must be finite or +inf")
        if self.speaker_gains_db is not None:
            if len(self.speaker_gains_db) != self.num_speakers:
                raise ValueError("speaker_gains_db length must equal num_speakers")
            gains = tuple(float(g) for g in self.speaker_gains_db)
            if any(math.isnan(g) or g == math.inf for g in gains):
                raise ValueError("speaker_gains_db must be finite or -inf")
            object.__setattr__(self, "speaker_gains_db", gains)

    @property
    def num_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


@dataclass
class Scene:
    """Rendered acoustic scene with per-speaker ground truth.

    ``mixture == sum(reverberant_image) + noise`` holds sample-exactly
    (float64) for generated scenes.  ``rirs`` is None for scenes loaded
    from external directories that do not ship impulse responses.
    """

    mixture: np.ndarray
    direct_path: list
    reverberant_image: list
    noise: np.ndarray
    spec: SceneSpec
    rirs: list | None = field(default=None)

    @property
    def num_speakers(self) -> int:
        return len(self.reverberant_image)

    @property
    def num_samples(self) -> int:
        return self.mixture.size


def generate_rir(
    t60_s: float,
    direct_delay_samples: int,
    drr_db: float,
    rng: np.random.Generator,
    sample_rate_hz: int = 8000,
) -> Rir:
    """Generate a stochastic RIR with controlled decay and DRR.

    The tail is white Gaussian noise shaped by the amplitude envelope
    ``exp(-3*ln(10)*t/t60)``, which puts the energy envelope 60 dB down
    at ``t60``.  The tail is rescaled exactly so the direct-to-
    reverberant energy ratio equals ``drr_db``; ``drr_db = +inf``
    disables the tail entirely.

    Parameters
    ----------
    t60_s : float
        Reverberation time in seconds, positive and finite.
    direct_delay_samples : int
        Position of the unit direct impulse.
    drr_db : float
        Requested direct-to-reverberant energy ratio in dB.
    rng : numpy.random.Generator
        Source of the tail noise realization.
    """
    if not 0 < t60_s < math.inf:
        raise ValueError("t60_s must be positive and finite")
    if direct_delay_samples < 0:
        raise ValueError("direct_delay_samples must be non-negative")

    tail_len = int(math.ceil(1.5 * t60_s * sample_rate_hz))
    total = direct_delay_samples + 1 + tail_len
    taps = np.zeros(total)
    taps[direct_delay_samples] = 1.0

    if not math.isinf(drr_db):
        t = np.arange(tail_len) / sample_rate_hz
        envelope = np.exp(-3.0 * math.log(10.0) * t / t60_s)
        tail = rng.standard_normal(tail_len) * envelope
        tail_energy = float(np.sum(tail**2))
        if tail_energy > 0:
            target_energy = 10.0 ** (-drr_db / 10.0)  # direct energy is 1
            tail *= math.sqrt(target_energy / tail_energy)
        taps[direct_delay_samples + 1 :] = tail

    return Rir(taps, direct_delay_samples, sample_rate_hz)


def _fft_lowpass(x: np.ndarray, cutoff_hz: float, sample_rate_hz: int) -> np.ndarray:
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, 1.0 / sample_rate_hz)
    spec[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spec, n=x.size)


def synthesize_dry_sources(spec: SceneSpec, rng: np.random.Generator) -> list:
    """Speech-like surrogate dry sources: colored noise under syllabic AM.

    Pink-shaded Gaussian noise is modulated by a smoothed positive
    envelope varying at a few Hz, then normalized to unit RMS with the
    per-speaker gain from ``spec`` applied.  No licensed speech corpus
    is required; arbitrary WAV material can be passed to
    :func:`render_scene` instead.
    """
    n = spec.num_samples
    sr = spec.sample_rate_hz
    sources = []
    for c in range(spec.num_speakers):
        white = rng.standard_normal(n)
        shaped = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        shaped /= np.sqrt(np.maximum(freqs, 50.0))  # ~1/f power above 50 Hz
        carrier = np.fft.irfft(shaped, n=n)

        env = _fft_lowpass(rng.standard_normal(n), 4.0, sr)
        env = 0.15 + np.abs(env) / (np.max(np.abs(env)) + 1e-12)
        src = carrier * env
        src /= np.sqrt(np.mean(src**2)) + 1e-12

        if spec.speaker_gains_db is not None:
            src *= 10.0 ** (spec.speaker_gains_db[c] / 20.0)
        sources.append(src)
    return sources


def _smooth_length(n: int) -> int:
    """The smallest 5-smooth integer (``2**i * 3**j * 5**k``) >= ``n`` >= 1:
    the real transform length ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full linear convolution of two real 1-D arrays, with the bits of
    ``scipy.signal.fftconvolve(a, b)``: real FFTs at its length, and a
    plain product where an array has one sample, as there."""
    if a.size == 1 or b.size == 1:
        return a * b
    full = a.size + b.size - 1
    m = _smooth_length(full)
    return np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[:full]


def render_scene(sources, spec: SceneSpec, rng: np.random.Generator) -> Scene:
    """Convolve dry sources with generated RIRs and mix with noise.

    Each source is convolved with its own seeded RIR; the direct path
    is the unit-impulse part of that convolution (a pure delay of the
    dry source) and the image is the full convolution.  White noise is
    added at ``spec.noise_snr_db`` relative to the summed images
    (``+inf`` means noise-free).
    """
    if len(sources) == 0:
        raise ValueError("render_scene needs at least one source")
    if len(sources) != spec.num_speakers:
        raise ValueError(
            f"got {len(sources)} sources for num_speakers={spec.num_speakers}"
        )
    n = spec.num_samples
    sources = [np.asarray(s, dtype=np.float64) for s in sources]
    for s in sources:
        if s.ndim != 1 or s.size != n:
            raise ValueError("every source must be 1-D with spec.num_samples samples")

    rirs, directs, images = [], [], []
    for src in sources:
        delay = int(rng.integers(_MIN_DIRECT_DELAY, _MAX_DIRECT_DELAY + 1))
        rir = generate_rir(spec.t60_s, delay, spec.drr_db, rng, spec.sample_rate_hz)
        rirs.append(rir)

        direct = np.zeros(n)
        direct[delay:] = src[: n - delay]
        directs.append(direct)

        # Image = exact delayed source + convolved tail, so the anechoic
        # limit (no tail) reproduces the direct path bit-for-bit.
        tail = rir.taps.copy()
        tail[delay] = 0.0
        if np.any(tail):
            images.append(direct + _fftconvolve(src, tail)[:n])
        else:
            images.append(direct.copy())

    image_sum = np.sum(images, axis=0)
    if math.isinf(spec.noise_snr_db):
        noise = np.zeros(n)
    else:
        noise = rng.standard_normal(n)
        signal_energy = float(np.sum(image_sum**2))
        noise_energy = float(np.sum(noise**2))
        target = signal_energy * 10.0 ** (-spec.noise_snr_db / 10.0)
        noise *= math.sqrt(target / noise_energy) if noise_energy > 0 else 0.0

    mixture = image_sum + noise
    return Scene(mixture, directs, images, noise, spec, rirs)


def simulate_scene(spec: SceneSpec) -> Scene:
    """Fully seeded scene synthesis: dry sources plus rendering.

    Identical specs (including seed) produce bit-identical scenes.
    """
    rng = np.random.default_rng(spec.seed)
    sources = synthesize_dry_sources(spec, rng)
    return render_scene(sources, spec, rng)


def save_scene(scene: Scene, directory) -> Path:
    """Write a scene directory (float32 WAVs plus ``scene.json``).

    Returns the manifest path.  Signals are quantized to 32-bit float;
    one save/load trip is exact at that precision and idempotent
    afterwards.
    """
    signals = {"mixture": scene.mixture, "noise": scene.noise}
    for c in range(scene.num_speakers):
        signals[f"s{c + 1}_direct"] = scene.direct_path[c]
        signals[f"s{c + 1}_image"] = scene.reverberant_image[c]
    manifest = {"version": SCENE_FORMAT_VERSION, **config_to_dict(scene.spec)}
    if scene.rirs is not None:
        for c, rir in enumerate(scene.rirs):
            signals[f"s{c + 1}_rir"] = rir.taps
        manifest["rir_direct_delays_samples"] = [
            rir.direct_delay_samples for rir in scene.rirs
        ]
    manifest["files"] = {name: f"{name}.wav" for name in signals}
    wavs = ((f"{name}.wav", samples) for name, samples in signals.items())
    rate = scene.spec.sample_rate_hz
    return write_wav_dir(directory, SCENE_MANIFEST, manifest, wavs, rate)


def read_scene_manifest(directory, check=None) -> tuple[Path, dict, SceneSpec]:
    """The manifest path, the manifest and the :class:`SceneSpec` of a
    scene directory, read with every check that needs no WAV.

    A directory without a manifest raises :class:`NoScenesError`.  An
    unsupported version, a missing or invalid spec value, a ValueError
    from ``check(spec)`` if ``check`` is given, a ``files`` that is not an
    object of WAV names, or ``rir_direct_delays_samples`` that are not
    one integer per speaker raise ValueError naming the manifest.  Then a
    ``files`` that lists no mixture, noise, or direct-path or image
    component of a speaker raises FileNotFoundError naming it.
    """
    path = Path(directory) / SCENE_MANIFEST
    if not path.is_file():
        raise NoScenesError(f"no scene manifest at {path}")
    spec_keys = [f.name for f in fields(SceneSpec) if f.name != "speaker_gains_db"]
    manifest = read_manifest(path, SCENE_FORMAT_VERSION, spec_keys)
    try:
        spec = config_from_dict(SceneSpec, manifest)
        if check is not None:
            check(spec)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    files = manifest.get("files")
    if not isinstance(files, dict) or not all(
        isinstance(name, str) for name in files.values()
    ):
        raise ValueError(f"{path}: key files must be an object of WAV names")
    count = spec.num_speakers
    delays = manifest.get("rir_direct_delays_samples")
    if delays is not None and not (
        isinstance(delays, list)
        and len(delays) == count
        and all(type(d) is int for d in delays)
    ):
        raise ValueError(
            f"{path}: rir_direct_delays_samples must list {count} delays as integers"
        )
    # Named one at a time: a huge speaker count stops at its first miss.
    speakers = range(1, count + 1)
    names = (f"s{c}_{kind}" for kind in ("direct", "image") for c in speakers)
    for name in itertools.chain(["mixture", "noise"], names):
        if name not in files:
            raise FileNotFoundError(f"{path}: lists no '{name}' component")
    return path, manifest, spec


def load_scene(directory) -> Scene:
    """Load a scene directory written by :func:`save_scene` (or externally).

    The manifest is read by :func:`read_scene_manifest`, and its ``files``
    object names each component's WAV.  The noise and every direct-path
    and image component must have as many samples as the mixture.
    """
    path, manifest, spec = read_scene_manifest(directory)
    files = manifest["files"]
    count = spec.num_speakers
    delays = manifest.get("rir_direct_delays_samples")

    def component(name: str, length: int | None = None) -> np.ndarray:
        return read_listed_wav(path, files[name], spec.sample_rate_hz, length)

    mixture = component("mixture")
    n = mixture.size
    if n == 0:
        raise ValueError(f"{path.parent / files['mixture']}: no samples")
    noise = component("noise", n)
    directs = [component(f"s{c + 1}_direct", n) for c in range(count)]
    images = [component(f"s{c + 1}_image", n) for c in range(count)]

    rirs = None
    if delays is not None and all(f"s{c + 1}_rir" in files for c in range(count)):
        rirs = []
        for c, delay in enumerate(delays):
            taps = component(f"s{c + 1}_rir")
            if not 0 <= delay < taps.size:
                raise ValueError(
                    f"{path.parent / files[f's{c + 1}_rir']}: direct delay "
                    f"{delay} outside its {taps.size} taps"
                )
            rirs.append(Rir(taps, delay, spec.sample_rate_hz))

    return Scene(mixture, directs, images, noise, spec, rirs)
