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

from cxfilter.fcp import fcp_essu_separate, fcp_separate
from cxfilter.io import (
    config_from_dict,
    config_to_dict,
    read_json,
    read_wav,
    write_json,
    write_wav,
)
from cxfilter.metrics import MetricsReport, evaluate_scene
from cxfilter.scenes import Scene
from cxfilter.stft import (
    SEPARATOR_STFT,
    ComplexSpectrogram,
    StftConfig,
    convert_config,
    istft,
    stft,
)

if TYPE_CHECKING:
    from cxfilter.experiment import ExperimentConfig

FEATURES_MANIFEST = "features.json"
ESTIMATES_MANIFEST = "estimates.json"
FEATURES_FORMAT_VERSION = 1
ESTIMATES_FORMAT_VERSION = 1

# Keys that both exchange manifests must carry.
_MANIFEST_KEYS = ("num_speakers", "num_samples", "stft")

DEGRADATION_MODES = ("additive_noise", "cross_talk", "combined")
REFINEMENTS = ("passthrough", "fcp_substitute", "external")


@dataclass(eq=False)
class SeparatorOutput:
    """Per-speaker direct-path and reverberant-image spectrograms."""

    direct_estimates: list
    image_estimates: list

    def __post_init__(self):
        if len(self.direct_estimates) != len(self.image_estimates):
            raise ValueError("direct/image estimate counts differ")
        if len(self.direct_estimates) == 0:
            raise ValueError("SeparatorOutput needs at least one speaker")
        first = self.direct_estimates[0]
        for spec in (*self.direct_estimates, *self.image_estimates):
            if spec.data.shape != first.data.shape or spec.config != first.config:
                raise ValueError("SeparatorOutput spectrograms must share the grid")

    @property
    def num_speakers(self) -> int:
        return len(self.direct_estimates)

    @property
    def stft_config(self) -> StftConfig:
        return self.direct_estimates[0].config


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


@dataclass(eq=False)
class FeatureStack:
    """Inputs for a refinement model, all on one STFT grid.

    Ordering is fixed: the mixture, then per speaker the first-stage
    direct estimate, first-stage image estimate, and predicted image.
    ``num_samples`` records the time-domain length the spectrograms
    were computed from, so exports can invert them losslessly.
    """

    mixture: ComplexSpectrogram
    stage1_direct: list
    stage1_image: list
    fcp_images: list
    num_samples: int

    def __post_init__(self):
        count = len(self.stage1_direct)
        if not (len(self.stage1_image) == len(self.fcp_images) == count):
            raise ValueError("FeatureStack speaker lists must share length")
        if count == 0:
            raise ValueError("FeatureStack needs at least one speaker")
        for spec in (
            self.mixture,
            *self.stage1_direct,
            *self.stage1_image,
            *self.fcp_images,
        ):
            if (
                spec.data.shape != self.mixture.data.shape
                or spec.config != self.mixture.config
            ):
                raise ValueError("FeatureStack spectrograms must share the grid")

    @property
    def num_speakers(self) -> int:
        return len(self.stage1_direct)

    def spectrograms(self) -> list:
        """All spectrograms in the documented deterministic order."""
        out = [self.mixture]
        for c in range(self.num_speakers):
            out += [self.stage1_direct[c], self.stage1_image[c], self.fcp_images[c]]
        return out


@dataclass(eq=False)
class PipelineResult:
    """Everything a pipeline run produced.

    ``separator`` holds the final estimates as spectrograms, ``features``
    the last iteration's stack (``None`` with ``fcp_mode='off'``).
    ``image_estimates`` are the final images at the scene length, in the
    separator's speaker order; ``report`` scores them and records the
    permutation that aligns them to the true speakers.
    """

    separator: SeparatorOutput
    features: FeatureStack | None
    image_estimates: list
    report: MetricsReport


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


def oracle_separate(
    scene: Scene,
    degradation: DegradationSpec,
    stft_config: StftConfig | None = None,
) -> SeparatorOutput:
    """Ground-truth separator with controlled estimation error.

    Degrades the scene's true direct paths and reverberant images in
    the time domain per ``degradation`` (direct list first, then image
    list, in speaker order, so a fixed seed is bit-reproducible) and
    returns their spectrograms on the separator grid.
    """
    config = SEPARATOR_STFT if stft_config is None else stft_config
    rng = np.random.default_rng(degradation.seed)
    directs = _degrade(scene.direct_path, degradation, rng)
    images = _degrade(scene.reverberant_image, degradation, rng)
    return SeparatorOutput(
        direct_estimates=[stft(s, config) for s in directs],
        image_estimates=[stft(s, config) for s in images],
    )


def run_fcp_stage(
    mixture, separator_output: SeparatorOutput, config: ExperimentConfig
) -> list:
    """Predict per-speaker reverberant images from direct estimates.

    The time-domain mixture and the separator's direct estimates are
    moved onto the prediction grid ``config.fcp.stft``, the variant
    named by ``config.fcp_mode`` (``fcp`` or ``essu``) is run, and the
    images are returned on the separator grid ``config.stft_dnn``.
    """
    if config.fcp_mode == "off":
        raise ValueError("fcp_mode 'off' has no prediction stage")
    mixture = np.asarray(mixture, dtype=np.float64)
    if mixture.ndim != 1:
        raise ValueError("run_fcp_stage expects a 1-D time-domain mixture")
    n = mixture.shape[0]
    grid = config.fcp.stft
    mix_spec = stft(mixture, grid)
    s_hats = [convert_config(s, grid, n) for s in separator_output.direct_estimates]
    separate = fcp_essu_separate if config.fcp_mode == "essu" else fcp_separate
    images = separate(mix_spec, s_hats, config.fcp)
    return [convert_config(img, config.stft_dnn, n) for img in images]


def _feature_files(count: int) -> list:
    names = ["mixture.wav"]
    for c in range(1, count + 1):
        names += [
            f"s{c}_stage1_direct.wav",
            f"s{c}_stage1_image.wav",
            f"s{c}_fcp_image.wav",
        ]
    return names


def export_features(stack: FeatureStack, directory) -> Path:
    """Write a feature directory: ``features.json`` plus one WAV each.

    Signals are inverted to the time domain and stored as 32-bit float
    WAV; reimporting reproduces the stack exactly when the underlying
    signals are float32-representable, and to 32-bit precision
    otherwise.  Returns the manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config = stack.mixture.config
    names = _feature_files(stack.num_speakers)
    for name, spec in zip(names, stack.spectrograms()):
        write_wav(
            directory / name,
            istft(spec, output_length=stack.num_samples),
            config.sample_rate_hz,
        )
    manifest = {
        "format": "feature-stack",
        "version": FEATURES_FORMAT_VERSION,
        "num_speakers": stack.num_speakers,
        "num_samples": stack.num_samples,
        "frames": stack.mixture.frames,
        "bins": stack.mixture.bins,
        "stft": config_to_dict(config),
        "files": names,
    }
    path = directory / FEATURES_MANIFEST
    write_json(path, manifest)
    return path


def _load_manifest(directory: Path, name: str, version: int, required: str) -> dict:
    path = directory / name
    if not path.is_file():
        raise FileNotFoundError(
            f"{path} not found; the directory must contain {name} plus {required}"
        )
    manifest = read_json(path)
    if manifest.get("version") != version:
        raise ValueError(
            f"{path}: version {manifest.get('version')!r} unsupported "
            f"(expected {version})"
        )
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"{path}: missing required key(s) {', '.join(missing)}")
    return manifest


def _read_spectrograms(directory: Path, manifest: dict, names: list, kind: str) -> list:
    """Analyze exchange-directory WAVs, checking each one's rate and length."""
    config = config_from_dict(StftConfig, manifest["stft"])
    length = int(manifest["num_samples"])
    specs = []
    for name in names:
        path = directory / name
        if not path.is_file():
            raise FileNotFoundError(f"{kind} file missing: {path}")
        signal = read_wav(path, expected_rate=config.sample_rate_hz)
        if signal.shape[0] != length:
            raise ValueError(
                f"{path}: {signal.shape[0]} samples, manifest says {length}"
            )
        specs.append(stft(signal, config))
    return specs


def import_features(directory) -> FeatureStack:
    """Read a feature directory written by :func:`export_features`."""
    directory = Path(directory)
    manifest = _load_manifest(
        directory,
        FEATURES_MANIFEST,
        FEATURES_FORMAT_VERSION,
        "mixture.wav and per-speaker s{c}_stage1_direct.wav, "
        "s{c}_stage1_image.wav, s{c}_fcp_image.wav",
    )
    names = _feature_files(int(manifest["num_speakers"]))
    specs = _read_spectrograms(directory, manifest, names, "feature")
    return FeatureStack(
        mixture=specs[0],
        stage1_direct=specs[1::3],
        stage1_image=specs[2::3],
        fcp_images=specs[3::3],
        num_samples=int(manifest["num_samples"]),
    )


def export_estimates(output: SeparatorOutput, directory, num_samples: int) -> Path:
    """Write refined estimates in the layout :func:`import_estimates` reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config = output.stft_config
    files = []
    for c in range(1, output.num_speakers + 1):
        for kind, spec in (
            ("direct", output.direct_estimates[c - 1]),
            ("image", output.image_estimates[c - 1]),
        ):
            name = f"s{c}_{kind}.wav"
            write_wav(
                directory / name,
                istft(spec, output_length=num_samples),
                config.sample_rate_hz,
            )
            files.append(name)
    manifest = {
        "format": "speaker-estimates",
        "version": ESTIMATES_FORMAT_VERSION,
        "num_speakers": output.num_speakers,
        "num_samples": num_samples,
        "stft": config_to_dict(config),
        "files": files,
    }
    path = directory / ESTIMATES_MANIFEST
    write_json(path, manifest)
    return path


def import_estimates(directory) -> tuple[SeparatorOutput, int]:
    """Read refined per-speaker estimates from an exchange directory.

    Returns the estimates and the sample count their manifest records.
    """
    directory = Path(directory)
    manifest = _load_manifest(
        directory,
        ESTIMATES_MANIFEST,
        ESTIMATES_FORMAT_VERSION,
        "per-speaker s{c}_direct.wav and s{c}_image.wav",
    )
    count = int(manifest["num_speakers"])
    names = [
        f"s{c}_{kind}.wav" for kind in ("direct", "image") for c in range(1, count + 1)
    ]
    specs = _read_spectrograms(directory, manifest, names, "estimate")
    output = SeparatorOutput(
        direct_estimates=specs[:count], image_estimates=specs[count:]
    )
    return output, int(manifest["num_samples"])


def check_external_dir(config: ExperimentConfig) -> None:
    """Reject a config whose external refinement has no exchange directory."""
    if (
        config.fcp_mode != "off"
        and config.refinement == "external"
        and config.external_dir is None
    ):
        raise ValueError("external refinement requires external_dir")


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
    check_external_dir(config)
    base = Path(config.external_dir) / f"iteration_{iteration}"
    export_features(stack, base / "features")
    estimates_dir = base / "estimates"
    manifest = estimates_dir / ESTIMATES_MANIFEST
    if not manifest.is_file():
        raise FileNotFoundError(
            f"external refinement estimates not found: expected {manifest}; "
            f"features were exported to {base / 'features'}"
        )
    refined, num_samples = import_estimates(estimates_dir)
    if refined.num_speakers != separator.num_speakers:
        raise ValueError(
            f"external estimates have {refined.num_speakers} speakers, "
            f"expected {separator.num_speakers}"
        )
    if num_samples != stack.num_samples:
        raise ValueError(
            f"external estimates carry {num_samples} samples, "
            f"expected {stack.num_samples}"
        )
    return refined


def predict(
    scene: Scene, config: ExperimentConfig
) -> tuple[SeparatorOutput, FeatureStack | None]:
    """Run separator, prediction, and refinement over a scene.

    The separator output is degraded per ``config.degradation``.  With
    ``fcp_mode='off'`` it is returned as it is, with no feature stack.
    Otherwise each iteration predicts images from the current direct
    estimates and refines; refined estimates feed the next iteration.
    Returns the final estimates and the last iteration's feature stack.
    """
    current = oracle_separate(scene, config.degradation, config.stft_dnn)
    stack = None
    if config.fcp_mode != "off":
        mixture_spec = stft(scene.mixture, config.stft_dnn)
        for iteration in range(1, config.iterations + 1):
            stack = FeatureStack(
                mixture=mixture_spec,
                stage1_direct=list(current.direct_estimates),
                stage1_image=list(current.image_estimates),
                fcp_images=run_fcp_stage(scene.mixture, current, config),
                num_samples=scene.num_samples,
            )
            current = _refine(stack, current, config, iteration)
    return current, stack


def run_pipeline(scene: Scene, config: ExperimentConfig) -> PipelineResult:
    """Run :func:`predict`, then score the final image estimates once
    against the scene's true reverberant images at ``config.quantiles``."""
    separator, features = predict(scene, config)
    image_estimates = [
        istft(s, output_length=scene.num_samples) for s in separator.image_estimates
    ]
    report = evaluate_scene(image_estimates, scene, quantiles=config.quantiles)
    return PipelineResult(
        separator=separator,
        features=features,
        image_estimates=image_estimates,
        report=report,
    )
