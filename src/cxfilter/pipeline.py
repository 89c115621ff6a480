"""Two-stage separation pipeline with a physically-constrained middle.

The flow mirrors a sandwich architecture: a first separator produces
per-speaker direct-path and reverberant-image estimates, a convolutive
prediction stage turns the direct estimates into physically-constrained
reverberant images, and a refinement stage consumes the assembled
features.  Neural separators are out of scope; an oracle separator with
controllable degradations stands in for the first stage, and the
refinement stage is pluggable: pass the first stage through, substitute
the predicted images, or exchange features and estimates with an
external model through WAV/JSON directories.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import numpy.random  # numpy 2 loads it lazily: here, not in a batch's first scene

from cxfilter.fcp import fcp_loop
from cxfilter.io import (
    config_from_dict,
    config_to_dict,
    decode_value,
    read_listed_wav,
    read_manifest,
    write_wav_dir,
)
from cxfilter.losses import check_speaker_cap
from cxfilter.metrics import evaluate_scene
from cxfilter.scenes import Scene, SceneSpec
from cxfilter.stft import SEPARATOR_STFT, StftConfig, istft, stft

if TYPE_CHECKING:
    from cxfilter.experiment import ExperimentConfig

FEATURES_MANIFEST = "features.json"
ESTIMATES_MANIFEST = "estimates.json"
EXCHANGE_FORMAT_VERSION = 1

# Keys that both exchange manifests must carry.
_MANIFEST_KEYS = ("num_speakers", "num_samples", "stft")
# Per-speaker WAV kinds of each exchange directory, in file order.
FEATURE_KINDS = ("stage1_direct", "stage1_image", "fcp_image")
ESTIMATE_KINDS = ("direct", "image")

DEGRADATION_MODES = ("additive_noise", "cross_talk", "combined")
REFINEMENTS = ("passthrough", "fcp_substitute", "external")


def _check_signals(signals: list, what: str) -> None:
    """Raise ValueError unless ``signals`` are 1-D float64 arrays of one
    length; ``what`` names their container."""
    for s in signals:
        if not (isinstance(s, np.ndarray) and s.dtype == np.float64 and s.ndim == 1):
            raise ValueError(f"{what} holds 1-D float64 arrays, not {s!r:.60}")
    lengths = sorted({s.shape[0] for s in signals})
    if len(lengths) > 1:
        raise ValueError(f"{what} signals must share one length, got {lengths}")


@dataclass(eq=False)
class SeparatorOutput:
    """Per-speaker direct-path and reverberant-image signals, 1-D float64
    arrays of one length."""

    direct_estimates: list
    image_estimates: list

    def __post_init__(self):
        if len(self.direct_estimates) != len(self.image_estimates):
            raise ValueError("direct/image estimate counts differ")
        if len(self.direct_estimates) == 0:
            raise ValueError("SeparatorOutput needs at least one speaker")
        signals = [*self.direct_estimates, *self.image_estimates]
        _check_signals(signals, "SeparatorOutput")

    @property
    def num_speakers(self) -> int:
        return len(self.direct_estimates)

    @property
    def num_samples(self) -> int:
        return self.direct_estimates[0].shape[0]


@dataclass(frozen=True)
class DegradationSpec:
    """Controlled corruption of oracle separator outputs.

    ``additive_noise`` adds seeded white Gaussian noise at ``snr_db``
    relative to each signal; ``cross_talk`` blends a fraction of the
    other speakers into each estimate; ``combined`` applies cross-talk
    first, then noise scaled against the blended signal.  An infinite
    SNR with zero fraction reproduces the oracle exactly.
    """

    mode: str = "additive_noise"
    snr_db: float = np.inf
    cross_talk_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in DEGRADATION_MODES:
            raise ValueError(f"unknown degradation mode {self.mode!r}")
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ValueError("snr_db must be finite or +inf")
        if not 0.0 <= self.cross_talk_fraction < 1.0:
            raise ValueError("cross_talk_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(eq=False)
class FeatureStack:
    """Inputs for a refinement model: 1-D float64 signals of one length.

    Ordering is fixed: the mixture, then per speaker the first-stage
    direct estimate, first-stage image estimate, and predicted image.
    """

    mixture: np.ndarray
    stage1_direct: list
    stage1_image: list
    fcp_images: list

    def __post_init__(self):
        count = len(self.stage1_direct)
        if not (len(self.stage1_image) == len(self.fcp_images) == count):
            raise ValueError("FeatureStack speaker lists must share length")
        if count == 0:
            raise ValueError("FeatureStack needs at least one speaker")
        _check_signals(self.signals(), "FeatureStack")

    @property
    def num_speakers(self) -> int:
        return len(self.stage1_direct)

    @property
    def num_samples(self) -> int:
        return self.mixture.shape[0]

    def signals(self) -> list:
        """All signals in the documented deterministic order."""
        out = [self.mixture]
        for c in range(self.num_speakers):
            out += [self.stage1_direct[c], self.stage1_image[c], self.fcp_images[c]]
        return out


def _degrade(signals: list, degradation: DegradationSpec, rng) -> list:
    """Apply the configured corruption to a per-speaker signal list."""
    out = [np.array(s, dtype=np.float64) for s in signals]
    if degradation.mode in ("cross_talk", "combined"):
        phi = degradation.cross_talk_fraction
        total = np.sum(out, axis=0)
        out = [(1.0 - phi) * s + phi * (total - s) for s in out]
    if degradation.mode in ("additive_noise", "combined"):
        snr = degradation.snr_db
        if snr != np.inf:
            for c, sig in enumerate(out):
                energy = float(np.dot(sig, sig))
                noise = rng.standard_normal(sig.shape[0])
                if energy > 0.0:
                    noise *= np.sqrt(
                        energy / (np.dot(noise, noise) * 10.0 ** (snr / 10.0))
                    )
                    out[c] = sig + noise
    return out


def oracle_separate(scene: Scene, degradation: DegradationSpec) -> SeparatorOutput:
    """Ground-truth separator with controlled estimation error.

    Degrades the scene's true direct paths and reverberant images in
    the time domain per ``degradation`` (direct list first, then image
    list, in speaker order, so a fixed seed is bit-reproducible) and
    returns the degraded signals.
    """
    rng = np.random.default_rng(degradation.seed)
    return SeparatorOutput(
        direct_estimates=_degrade(scene.direct_path, degradation, rng),
        image_estimates=_degrade(scene.reverberant_image, degradation, rng),
    )


def run_fcp_stage(
    mixture, separator_output: SeparatorOutput, config: ExperimentConfig, threads=1
) -> list:
    """Predict per-speaker reverberant image signals from direct estimates.

    The time-domain mixture and each of the separator's direct estimates
    are analysed on the prediction grid ``config.fcp.stft``, the variant
    named by ``config.fcp_mode`` (``fcp`` or ``essu``) is run, each
    filter fitted on ``threads`` threads, and each image is synthesised
    back to a signal of the mixture's length.  A mixture whose length is
    not the estimates' raises ValueError.

    The images are those of ``fcp_separate`` or ``fcp_essu_separate`` of
    the analysed signals, with fewer prediction-grid spectrograms alive
    at once.  The stage runs the one prediction loop,
    :func:`~cxfilter.fcp.fcp_loop`, which analyses each direct estimate
    when it needs it (under ESSU twice: for the fitting order, then for
    the fit) and writes its image over it.  The one prediction-grid
    mixture is its target, under ESSU the residual written in place, and
    each image is synthesised as soon as it is fitted.
    """
    if config.fcp_mode == "off":
        raise ValueError("fcp_mode 'off' has no prediction stage")
    mixture = np.asarray(mixture, dtype=np.float64)
    if mixture.ndim != 1:
        raise ValueError("run_fcp_stage expects a 1-D time-domain mixture")
    n, length = mixture.shape[0], separator_output.num_samples
    if n != length:
        raise ValueError(f"a mixture of {n} samples, but estimates of {length}")
    grid = config.fcp.stft
    directs = separator_output.direct_estimates
    images = [None] * len(directs)

    def leave(c, image):
        images[c] = istft(image, n)

    fcp_loop(
        stft(mixture, grid), lambda c: stft(directs[c], grid), len(directs),
        config.fcp, leave, essu=config.fcp_mode == "essu", threads=threads,
    )
    return images


def _exchange_files(kinds: tuple, speakers):
    """WAV names of an exchange directory, made one at a time:
    ``s{c}_{kind}.wav`` for each speaker label ``c`` in turn, after
    ``mixture.wav`` in a feature directory.  So a reader stops at the
    first missing file, whatever speaker count a manifest declares."""
    yield from ["mixture.wav"] if kinds == FEATURE_KINDS else []
    yield from (f"s{c}_{kind}.wav" for c in speakers for kind in kinds)


def _write_exchange(
    directory, name: str, kinds: tuple, manifest: dict, signals: list, config
) -> Path:
    """Write each signal as its WAV, in :func:`_exchange_files` order, at
    ``config``'s rate, then the manifest ``name`` with ``version``,
    ``num_samples``, ``stft`` (``config``, the grid the exchange is
    declared on) and ``files`` added.  Returns its path."""
    files = list(_exchange_files(kinds, range(1, manifest["num_speakers"] + 1)))
    manifest = {**manifest, "version": EXCHANGE_FORMAT_VERSION, "files": files}
    manifest.update(num_samples=signals[0].shape[0], stft=config_to_dict(config))
    wavs = zip(files, signals, strict=True)
    return write_wav_dir(directory, name, manifest, wavs, config.sample_rate_hz)


def _read_exchange(directory, name: str, kinds: tuple) -> tuple:
    """Read an exchange directory written by :func:`_write_exchange`.

    Checks the manifest's version and required keys, then each WAV's
    rate and length.  Returns the grid the manifest declares and the
    signals in file order.
    """
    path = Path(directory) / name
    if not path.is_file():
        raise FileNotFoundError(
            f"{path} not found; the directory must contain {name} plus "
            f"{', '.join(_exchange_files(kinds, ['{c}']))} for each speaker c"
        )
    manifest = read_manifest(path, EXCHANGE_FORMAT_VERSION, _MANIFEST_KEYS)
    config = config_from_dict(StftConfig, manifest["stft"])
    length = decode_value(int, manifest["num_samples"], f"{path}: num_samples")
    count = decode_value(int, manifest["num_speakers"], f"{path}: num_speakers")
    signals = [
        read_listed_wav(path, file, config.sample_rate_hz, length)
        for file in _exchange_files(kinds, range(1, count + 1))
    ]
    return config, signals


def export_features(
    stack: FeatureStack, directory, config: StftConfig = SEPARATOR_STFT
) -> Path:
    """Write a feature directory: ``features.json`` plus one WAV each.

    Signals are stored as 32-bit float WAV, so reimporting reproduces
    the stack exactly when the signals are float32-representable, and to
    32-bit precision otherwise.  The manifest records ``config``, the
    grid a refinement model reads the features on, with its frame and
    bin counts.  Returns the manifest path.
    """
    manifest = {
        "format": "feature-stack",
        "num_speakers": stack.num_speakers,
        "frames": config.num_frames(stack.num_samples),
        "bins": config.bins,
    }
    return _write_exchange(
        directory, FEATURES_MANIFEST, FEATURE_KINDS, manifest, stack.signals(), config
    )


def import_features(directory) -> FeatureStack:
    """Read a feature directory written by :func:`export_features`."""
    _, signals = _read_exchange(directory, FEATURES_MANIFEST, FEATURE_KINDS)
    return FeatureStack(
        mixture=signals[0],
        stage1_direct=signals[1::3],
        stage1_image=signals[2::3],
        fcp_images=signals[3::3],
    )


def export_estimates(
    output: SeparatorOutput, directory, config: StftConfig = SEPARATOR_STFT
) -> Path:
    """Write estimates in the layout :func:`import_estimates` reads,
    declared on the grid ``config``."""
    manifest = {
        "format": "speaker-estimates",
        "num_speakers": output.num_speakers,
    }
    signals = [
        signal
        for pair in zip(output.direct_estimates, output.image_estimates)
        for signal in pair
    ]
    return _write_exchange(
        directory, ESTIMATES_MANIFEST, ESTIMATE_KINDS, manifest, signals, config
    )


def import_estimates(directory) -> tuple[SeparatorOutput, StftConfig]:
    """Read per-speaker estimates from an exchange directory.

    Returns the estimates and the STFT grid their manifest declares.
    """
    config, signals = _read_exchange(directory, ESTIMATES_MANIFEST, ESTIMATE_KINDS)
    output = SeparatorOutput(
        direct_estimates=signals[0::2], image_estimates=signals[1::2]
    )
    return output, config


def check_estimates(
    estimates: SeparatorOutput, grid: StftConfig, speakers: int, rate: int, length: int
) -> None:
    """Raise ValueError if imported estimates do not fit their scene: a
    speaker count, sample rate (that of their ``grid``) or sample count
    other than the scene's ``speakers``, ``rate`` and ``length``."""
    if estimates.num_speakers != speakers:
        raise ValueError(
            f"estimate speaker count {estimates.num_speakers} does not match "
            f"scene speaker count {speakers}"
        )
    if grid.sample_rate_hz != rate:
        raise ValueError(
            f"estimates are sampled at {grid.sample_rate_hz} Hz but the scene "
            f"at {rate} Hz"
        )
    if estimates.num_samples != length:
        raise ValueError(
            f"estimates carry {estimates.num_samples} samples but the scene "
            f"has {length}"
        )


def _refine(
    stack: FeatureStack,
    separator: SeparatorOutput,
    config: ExperimentConfig,
    iteration: int,
) -> SeparatorOutput:
    if config.refinement == "passthrough":
        return separator
    if config.refinement == "fcp_substitute":
        return SeparatorOutput(
            direct_estimates=list(separator.direct_estimates),
            image_estimates=list(stack.fcp_images),
        )
    base = Path(config.external_dir) / f"iteration_{iteration}"
    export_features(stack, base / "features", config.stft_dnn)
    refined, grid = import_estimates(base / "estimates")
    speakers, rate = separator.num_speakers, config.stft_dnn.sample_rate_hz
    check_estimates(refined, grid, speakers, rate, stack.num_samples)
    if grid != config.stft_dnn:
        raise ValueError(
            f"{base / 'estimates'}: estimates on the STFT grid {grid}, "
            f"but the features on {config.stft_dnn}"
        )
    return refined


def check_scene_spec(spec: SceneSpec, config: ExperimentConfig) -> None:
    """Raise ValueError if a scene cannot run under a config: its sample
    rate is not that of ``config.stft_dnn`` (and, with FCP on, of
    ``config.fcp.stft``), named with both rates, or it has more speakers
    than the scoring's permutation search takes."""
    grids = {"stft_dnn": config.stft_dnn}
    if config.fcp_mode != "off":
        grids["fcp.stft"] = config.fcp.stft
    rate = spec.sample_rate_hz
    for name, grid in grids.items():
        if grid.sample_rate_hz != rate:
            raise ValueError(
                f"scene sample rate {rate} Hz does not match the "
                f"{name} sample rate {grid.sample_rate_hz} Hz"
            )
    check_speaker_cap(spec.num_speakers, "scene")


def predict(
    scene: Scene, config: ExperimentConfig, threads=1
) -> tuple[SeparatorOutput, FeatureStack | None]:
    """Run the separator and the prediction stage over a scene.

    The separator output is degraded per ``config.degradation``.  With
    ``fcp_mode='off'`` it is returned as it is, with no feature stack.
    Otherwise each iteration predicts images from the current direct
    estimates, and every iteration but the last refines them for the
    next.  The images are predicted again only after an ``external``
    refinement, the one refinement that changes the direct estimates.
    Returns the estimates the last feature stack was built from, and
    that stack; :func:`run_pipeline` applies the last refinement.  A
    scene that :func:`check_scene_spec` rejects raises ValueError before
    any of its work.  Filters are fitted on ``threads`` threads
    (:func:`run_fcp_stage`).
    """
    check_scene_spec(scene.spec, config)
    current = oracle_separate(scene, config.degradation)
    stack = None
    if config.fcp_mode != "off":
        for iteration in range(1, config.iterations + 1):
            if stack is not None:
                current = _refine(stack, current, config, iteration - 1)
            # Only an external refinement changes the direct estimates
            # that the images are predicted from.
            if stack is None or config.refinement == "external":
                images = run_fcp_stage(scene.mixture, current, config, threads)
            stack = FeatureStack(
                mixture=scene.mixture,
                stage1_direct=list(current.direct_estimates),
                stage1_image=list(current.image_estimates),
                fcp_images=list(images),
            )
    return current, stack


def run_pipeline(scene: Scene, config: ExperimentConfig, threads=1) -> tuple:
    """Run :func:`predict` and the last refinement, then score the final
    image signals, ``separator.image_estimates``, once against the
    scene's true reverberant images at ``config.quantiles``; returns
    ``(separator, report)``.  Filters are fitted, and the speakers' SI-SDR-LE
    sweeps scored (:func:`~cxfilter.metrics.evaluate_scene`), on
    ``threads`` threads."""
    separator, features = predict(scene, config, threads)
    if features is not None:
        separator = _refine(features, separator, config, config.iterations)
    images = separator.image_estimates
    return separator, evaluate_scene(images, scene, config.quantiles, threads)
