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
    decode_value,
    read_listed_wav,
    read_manifest,
    write_wav_dir,
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
EXCHANGE_FORMAT_VERSION = 1

# Keys that both exchange manifests must carry.
_MANIFEST_KEYS = ("num_speakers", "num_samples", "stft")
# Per-speaker WAV kinds of each exchange directory, in file order.
FEATURE_KINDS = ("stage1_direct", "stage1_image", "fcp_image")
ESTIMATE_KINDS = ("direct", "image")

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
        if not all(
            first.same_grid(s) for s in (*self.direct_estimates, *self.image_estimates)
        ):
            raise ValueError("SeparatorOutput spectrograms must share the grid")

    @property
    def num_speakers(self) -> int:
        return len(self.direct_estimates)


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
        if not all(self.mixture.same_grid(s) for s in self.spectrograms()):
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
    s_hats = [convert_config(s, grid, n) for s in separator_output.direct_estimates]
    separate = fcp_essu_separate if config.fcp_mode == "essu" else fcp_separate
    images = separate(stft(mixture, grid), s_hats, config.fcp)
    # The filter-grid mixture (a temporary of the call) and direct
    # estimates are not needed past the fit.  Freed before the images are
    # converted back, they do not add to the conversions' peak memory.
    del s_hats
    return [convert_config(img, config.stft_dnn, n) for img in images]


def _exchange_files(kinds: tuple, speakers) -> list:
    """WAV names of an exchange directory: ``s{c}_{kind}.wav`` for each
    speaker label ``c`` in turn, after ``mixture.wav`` in a feature
    directory."""
    head = ["mixture.wav"] if kinds == FEATURE_KINDS else []
    return head + [f"s{c}_{kind}.wav" for c in speakers for kind in kinds]


def _write_exchange(
    directory, name: str, kinds: tuple, manifest: dict, specs: list, num_samples: int
) -> Path:
    """Invert each spectrogram at ``num_samples`` into its WAV, in
    :func:`_exchange_files` order, then write the manifest ``name`` with
    ``version``, ``num_samples``, ``stft`` and ``files`` added.  Returns
    its path."""
    config = specs[0].config
    files = _exchange_files(kinds, range(1, manifest["num_speakers"] + 1))
    manifest = {**manifest, "version": EXCHANGE_FORMAT_VERSION, "files": files}
    manifest.update(num_samples=num_samples, stft=config_to_dict(config))
    signals = (istft(spec, output_length=num_samples) for spec in specs)
    wavs = zip(files, signals, strict=True)
    return write_wav_dir(directory, name, manifest, wavs, config.sample_rate_hz)


def _read_exchange(directory, name: str, kinds: tuple) -> tuple:
    """Read an exchange directory written by :func:`_write_exchange`.

    Checks the manifest's version and required keys, then each WAV's
    rate and length.  Returns the sample count and the spectrograms in
    file order.
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
    specs = [
        stft(read_listed_wav(path, file, config.sample_rate_hz, length), config)
        for file in _exchange_files(kinds, range(1, count + 1))
    ]
    return length, specs


def export_features(stack: FeatureStack, directory) -> Path:
    """Write a feature directory: ``features.json`` plus one WAV each.

    Signals are inverted to the time domain and stored as 32-bit float
    WAV; reimporting reproduces the stack exactly when the underlying
    signals are float32-representable, and to 32-bit precision
    otherwise.  Returns the manifest path.
    """
    manifest = {
        "format": "feature-stack",
        "num_speakers": stack.num_speakers,
        "frames": stack.mixture.frames,
        "bins": stack.mixture.bins,
    }
    return _write_exchange(
        directory,
        FEATURES_MANIFEST,
        FEATURE_KINDS,
        manifest,
        stack.spectrograms(),
        stack.num_samples,
    )


def import_features(directory) -> FeatureStack:
    """Read a feature directory written by :func:`export_features`."""
    num_samples, specs = _read_exchange(directory, FEATURES_MANIFEST, FEATURE_KINDS)
    return FeatureStack(
        mixture=specs[0],
        stage1_direct=specs[1::3],
        stage1_image=specs[2::3],
        fcp_images=specs[3::3],
        num_samples=num_samples,
    )


def export_estimates(output: SeparatorOutput, directory, num_samples: int) -> Path:
    """Write refined estimates in the layout :func:`import_estimates` reads."""
    manifest = {
        "format": "speaker-estimates",
        "num_speakers": output.num_speakers,
    }
    specs = [
        spec
        for pair in zip(output.direct_estimates, output.image_estimates)
        for spec in pair
    ]
    return _write_exchange(
        directory, ESTIMATES_MANIFEST, ESTIMATE_KINDS, manifest, specs, num_samples
    )


def import_estimates(directory) -> tuple[SeparatorOutput, int]:
    """Read refined per-speaker estimates from an exchange directory.

    Returns the estimates and the sample count their manifest records.
    """
    num_samples, specs = _read_exchange(directory, ESTIMATES_MANIFEST, ESTIMATE_KINDS)
    output = SeparatorOutput(direct_estimates=specs[0::2], image_estimates=specs[1::2])
    return output, num_samples


def check_estimates(
    estimates: SeparatorOutput, num_samples: int, speakers: int, rate: int, length: int
) -> None:
    """Raise ValueError if imported estimates do not fit their scene: a
    speaker count, sample rate or recorded sample count ``num_samples``
    other than the scene's ``speakers``, ``rate`` and ``length``."""
    if estimates.num_speakers != speakers:
        raise ValueError(
            f"estimate speaker count {estimates.num_speakers} does not match "
            f"scene speaker count {speakers}"
        )
    estimates_rate = estimates.image_estimates[0].config.sample_rate_hz
    if estimates_rate != rate:
        raise ValueError(
            f"estimates are sampled at {estimates_rate} Hz but the scene "
            f"at {rate} Hz"
        )
    if num_samples != length:
        raise ValueError(
            f"estimates carry {num_samples} samples but the scene has {length}"
        )


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
    refined, num_samples = import_estimates(base / "estimates")
    speakers, rate = separator.num_speakers, stack.mixture.config.sample_rate_hz
    check_estimates(refined, num_samples, speakers, rate, stack.num_samples)
    return refined


def predict(
    scene: Scene, config: ExperimentConfig
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
    scene whose sample rate is not that of ``config.stft_dnn`` (and, with
    FCP on, of ``config.fcp.stft``) raises ValueError naming both rates.
    """
    grids = {"stft_dnn": config.stft_dnn}
    if config.fcp_mode != "off":
        grids["fcp.stft"] = config.fcp.stft
    rate = scene.spec.sample_rate_hz
    for name, grid in grids.items():
        if grid.sample_rate_hz != rate:
            raise ValueError(
                f"scene sample rate {rate} Hz does not match the "
                f"{name} sample rate {grid.sample_rate_hz} Hz"
            )
    current = oracle_separate(scene, config.degradation, config.stft_dnn)
    stack = None
    if config.fcp_mode != "off":
        mixture_spec = stft(scene.mixture, config.stft_dnn)
        for iteration in range(1, config.iterations + 1):
            if stack is not None:
                current = _refine(stack, current, config, iteration - 1)
            # Only an external refinement changes the direct estimates
            # that the images are predicted from.
            if stack is None or config.refinement == "external":
                images = run_fcp_stage(scene.mixture, current, config)
            stack = FeatureStack(
                mixture=mixture_spec,
                stage1_direct=list(current.direct_estimates),
                stage1_image=list(current.image_estimates),
                fcp_images=list(images),
                num_samples=scene.num_samples,
            )
    return current, stack


def run_pipeline(scene: Scene, config: ExperimentConfig) -> PipelineResult:
    """Run :func:`predict` and the last refinement, then score the final
    image estimates once against the scene's true reverberant images at
    ``config.quantiles``."""
    separator, features = predict(scene, config)
    if features is not None:
        separator = _refine(features, separator, config, config.iterations)
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
