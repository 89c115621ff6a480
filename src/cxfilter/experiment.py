"""Reproducible batch experiments over seeded scenes.

An :class:`ExperimentConfig` captures everything that determines a
batch result: scene sampling ranges, separator degradation, pipeline
settings, metric quantiles, and the global seed.  Configs serialize to
versioned JSON, embed into every report together with a content hash,
and identical configs reproduce byte-identical reports.  Scene-level
parallelism is available through a jobs parameter with results merged
in deterministic scene order.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from cxfilter.fcp import FcpConfig
from cxfilter.io import config_from_dict, config_to_dict, write_json
from cxfilter.metrics import QuantileSweep, evaluate_scene, quantile_sweep
from cxfilter.pipeline import (
    REFINEMENTS,
    DegradationSpec,
    PipelineResult,
    SeparatorOutput,
    check_external_dir,
    export_estimates,
    run_pipeline,
)
from cxfilter.scenes import (
    SCENE_MANIFEST,
    Scene,
    SceneSpec,
    load_scene,
    save_scene,
    simulate_scene,
)
from cxfilter.stft import SEPARATOR_STFT, StftConfig, istft

EXPERIMENT_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

FCP_MODES = ("off", "fcp", "essu")
# Sweep axis -> (dotted ExperimentConfig field path, cast of the swept value).
SWEEP_AXES = {
    "taps": ("fcp.taps", int),
    "epsilon": ("fcp.epsilon", float),
    "degradation_snr": ("degradation.snr_db", float),
    "t60": ("scene.t60_range_s", lambda v: (v, v)),
}


def _range_pair(value, name: str) -> tuple:
    lo, hi = (float(v) for v in value)
    if not lo <= hi:
        raise ValueError(f"{name} must be (lo, hi) with lo <= hi")
    return (lo, hi)


@dataclass(frozen=True)
class SceneRanges:
    """Per-scene parameter sampling ranges for batch generation."""

    num_speakers: int = 2
    duration_s: float = 3.0
    t60_range_s: tuple = (0.2, 0.5)
    drr_range_db: tuple = (-5.0, 0.0)
    noise_snr_range_db: tuple = (20.0, 30.0)
    sample_rate_hz: int = 8000
    speaker_gains_db: tuple | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "t60_range_s", _range_pair(self.t60_range_s, "t60_range_s")
        )
        object.__setattr__(
            self, "drr_range_db", _range_pair(self.drr_range_db, "drr_range_db")
        )
        object.__setattr__(
            self,
            "noise_snr_range_db",
            _range_pair(self.noise_snr_range_db, "noise_snr_range_db"),
        )
        if self.speaker_gains_db is not None:
            object.__setattr__(
                self,
                "speaker_gains_db",
                tuple(float(g) for g in self.speaker_gains_db),
            )

    def draw_scene_spec(self, seed: int, index: int) -> SceneSpec:
        """Deterministic per-scene spec for one batch slot.

        A range with ``lo == hi`` gives that value, infinite or not; one
        with ``lo < hi`` is drawn from uniformly and needs finite ends.
        """

        def draw(name):
            lo, hi = getattr(self, name)
            if lo == hi:
                return lo
            if math.isinf(lo) or math.isinf(hi):
                raise ValueError(f"{name} ({lo}, {hi}): lo < hi needs finite ends")
            return float(rng.uniform(lo, hi))

        rng = np.random.default_rng([seed, index])
        return SceneSpec(
            num_speakers=self.num_speakers,
            duration_s=self.duration_s,
            t60_s=draw("t60_range_s"),
            drr_db=draw("drr_range_db"),
            noise_snr_db=draw("noise_snr_range_db"),
            seed=int(rng.integers(0, 2**63)),
            sample_rate_hz=self.sample_rate_hz,
            speaker_gains_db=self.speaker_gains_db,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable recipe for one batch experiment.

    ``fcp_mode`` selects the prediction stage: ``off`` evaluates the
    degraded first-stage estimates directly, ``fcp`` and ``essu`` run
    the plain and energy-sorted variants on the ``fcp.stft`` grid.
    ``external`` refinement exchanges per-iteration feature and
    estimate directories under ``external_dir``; a batch or sweep
    without one is rejected before any scene runs.  The content hash
    covers all result-determining fields; output locations (``out``,
    ``external_dir``) are excluded so relocating an experiment does not
    change its identity.
    """

    version: int = EXPERIMENT_FORMAT_VERSION
    seed: int = 0
    num_scenes: int = 1
    scene: SceneRanges = field(default_factory=SceneRanges)
    degradation: DegradationSpec = field(default_factory=DegradationSpec)
    fcp_mode: str = "fcp"
    fcp: FcpConfig = field(default_factory=FcpConfig)
    iterations: int = 1
    refinement: str = "passthrough"
    stft_dnn: StftConfig = field(default_factory=lambda: SEPARATOR_STFT)
    quantiles: tuple = ()
    external_dir: str | None = None
    out: str | None = None

    def __post_init__(self):
        if self.version != EXPERIMENT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported experiment config version {self.version!r}"
            )
        if self.fcp_mode not in FCP_MODES:
            raise ValueError(f"unknown fcp_mode {self.fcp_mode!r}")
        if self.refinement not in REFINEMENTS:
            raise ValueError(f"unknown refinement {self.refinement!r}")
        if self.num_scenes < 1:
            raise ValueError("num_scenes must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        object.__setattr__(
            self, "quantiles", tuple(float(q) for q in self.quantiles)
        )

    def config_hash(self) -> str:
        hashed = config_to_dict(self)
        hashed.pop("out", None)
        hashed.pop("external_dir", None)
        blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_scene(scene: Scene, config: ExperimentConfig) -> PipelineResult:
    """Run the configured system over one scene."""
    return run_pipeline(scene, config)


def draw_scene_specs(config: ExperimentConfig) -> list:
    """The scene specs of a generated batch, one per scene, in order."""
    return [
        config.scene.draw_scene_spec(config.seed, i)
        for i in range(config.num_scenes)
    ]


def discover_scene_dirs(scenes_dir) -> list:
    """Scene directories under a root, in deterministic name order."""
    root = Path(scenes_dir)
    if (root / SCENE_MANIFEST).is_file():
        return [root]
    return sorted(
        (p.parent for p in root.glob(f"*/{SCENE_MANIFEST}")), key=lambda p: p.name
    )


# (package, library file pattern in <package>.libs, thread-count symbol)
# of the OpenBLAS builds that the numpy and scipy wheels bundle.
_OPENBLAS = (
    (np, "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
    (scipy, "libscipy_openblas-*.so", "scipy_openblas_{}_num_threads"),
)


@functools.cache
def _openblas_thread_apis() -> dict:
    """Package name -> (get, set) thread-count functions of its OpenBLAS.

    A package whose bundled OpenBLAS is not found (another BLAS) is left
    out.
    """
    apis = {}
    for package, pattern, symbol in _OPENBLAS:
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        try:
            lib = ctypes.CDLL(str(sorted(libs.glob(pattern))[0]))
            apis[package.__name__] = (
                getattr(lib, symbol.format("get")),
                getattr(lib, symbol.format("set")),
            )
        except (IndexError, OSError, AttributeError):
            pass
    return apis


def _pin_blas_threads() -> list:
    """Run numpy's and scipy's OpenBLAS on one thread each.

    Pool workers that each run several BLAS threads oversubscribe the
    cores, which made parallel batches slower than serial ones.  The
    serial path is pinned too, so report bytes depend neither on
    ``jobs`` nor on the CPU count.  Returns (set function, previous
    count) pairs to restore.
    """
    pinned = []
    for get, set_ in _openblas_thread_apis().values():
        pinned.append((set_, get()))
        set_(1)
    return pinned


def _run_pinned(func, payloads: list) -> list:
    """Apply a worker in this process on one BLAS thread, then restore."""
    pinned = _pin_blas_threads()
    try:
        return [func(p) for p in payloads]
    finally:
        for set_, count in pinned:
            set_(count)


def _map_jobs(func, payloads: list, jobs: int) -> list:
    """Apply a worker over payloads, merging in submission order.

    At most ``jobs`` worker processes run, and never more than there
    are CPUs or payloads.  Every worker runs OpenBLAS on one thread
    (:func:`_pin_blas_threads`); where a bundled OpenBLAS is not found,
    one warning line goes to stderr and its threads are left as they are.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    apis = _openblas_thread_apis()
    missing = [p.__name__ for p, _, _ in _OPENBLAS if p.__name__ not in apis]
    if missing:
        print(
            f"warning: no OpenBLAS thread control found for {', '.join(missing)}; "
            "BLAS keeps its default thread count",
            file=sys.stderr,
        )
    workers = min(jobs, os.cpu_count() or 1, len(payloads))
    if workers <= 1:
        return _run_pinned(func, payloads)
    try:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pin_blas_threads
        ) as pool:
            return list(pool.map(func, payloads))
    except (OSError, PermissionError) as err:
        print(
            f"warning: parallel execution unavailable ({err}); running "
            "sequentially",
            file=sys.stderr,
        )
        return _run_pinned(func, payloads)


def _scene_from_payload(payload: dict) -> Scene:
    if payload.get("scene_dir") is not None:
        return load_scene(payload["scene_dir"])
    return simulate_scene(config_from_dict(SceneSpec, payload["scene_spec"]))


def _separate_worker(payload: dict):
    config = config_from_dict(ExperimentConfig, payload["config"])
    scene = _scene_from_payload(payload)
    result = run_scene(scene, config)
    out_dir = Path(payload["out_dir"])
    export_estimates(result.separator, out_dir / "estimates", scene.num_samples)
    write_json(
        out_dir / "report.json",
        {"version": REPORT_FORMAT_VERSION, "report": result.report.to_dict()},
    )
    return payload["key"], result.report.to_dict()


def run_separation(
    config: ExperimentConfig,
    out_dir,
    scenes_dir=None,
    jobs: int = 1,
) -> dict:
    """Separate a batch of scenes and write per-scene plus batch reports.

    Scenes come from ``scenes_dir`` when given (any directory tree
    produced by the scene writer), otherwise ``config.num_scenes``
    scenes are generated from the config's ranges and seed.  Returns
    the batch report, which is also written to ``out_dir/report.json``.
    """
    check_external_dir(config)
    out_dir = Path(out_dir)
    config_dict = config_to_dict(config)
    payloads = []
    if scenes_dir is not None:
        for directory in discover_scene_dirs(scenes_dir):
            payloads.append(
                {
                    "key": directory.name,
                    "scene_dir": str(directory),
                    "config": config_dict,
                    "out_dir": str(out_dir / directory.name),
                }
            )
        if not payloads:
            raise FileNotFoundError(
                f"no scene manifest found under {scenes_dir} "
                f"(expected {Path(scenes_dir) / SCENE_MANIFEST} or "
                f"{Path(scenes_dir)}/*/{SCENE_MANIFEST})"
            )
    else:
        for i, spec in enumerate(draw_scene_specs(config)):
            key = f"scene_{i + 1:04d}"
            payloads.append(
                {
                    "key": key,
                    "scene_dir": None,
                    "scene_spec": config_to_dict(spec),
                    "config": config_dict,
                    "out_dir": str(out_dir / key),
                }
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _map_jobs(_separate_worker, payloads, jobs)
    scenes = {key: report for key, report in results}
    aggregate = {
        "version": REPORT_FORMAT_VERSION,
        "config": config_dict,
        "config_sha256": config.config_hash(),
        "num_scenes": len(scenes),
        "scenes": scenes,
        "mean": _mean_of_means([rep["mean"] for rep in scenes.values()]),
    }
    write_json(out_dir / "report.json", aggregate)
    return aggregate


def _mean_of_means(means: list) -> dict:
    out = {"si_sdr_db": float(np.mean([m["si_sdr_db"] for m in means]))}
    if means and "si_sdr_le_db" in means[0]:
        out["si_sdr_le_db"] = {
            q: float(np.mean([m["si_sdr_le_db"][q] for m in means]))
            for q in means[0]["si_sdr_le_db"]
        }
    return out


def run_simulation(config: ExperimentConfig, out_dir) -> list:
    """Generate and write ``config.num_scenes`` scene directories.

    Returns one summary row per scene (name, drawn parameters, seed).
    """
    specs = draw_scene_specs(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, spec in enumerate(specs):
        scene = simulate_scene(spec)
        key = f"scene_{i + 1:04d}"
        save_scene(scene, out_dir / key)
        rows.append(
            {
                "scene": key,
                "num_speakers": spec.num_speakers,
                "duration_s": spec.duration_s,
                "t60_s": spec.t60_s,
                "drr_db": spec.drr_db,
                "noise_snr_db": spec.noise_snr_db,
                "seed": spec.seed,
            }
        )
    return rows


def evaluate_estimates(
    scene: Scene,
    estimates: SeparatorOutput,
    quantiles,
    out_dir,
    num_samples: int | None = None,
) -> dict:
    """Score imported estimates against a scene; write report and CSVs.

    Raises ValueError on speaker-count or length mismatches.  When
    quantiles are given, a combined low-energy sweep compares the
    estimates with the unprocessed mixture, averaged over speakers, and
    both CSV exports are written next to the report.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if estimates.num_speakers != scene.num_speakers:
        raise ValueError(
            f"estimate speaker count {estimates.num_speakers} does not match "
            f"scene speaker count {scene.num_speakers}"
        )
    n = scene.num_samples
    if num_samples is not None and num_samples != n:
        raise ValueError(
            f"estimates carry {num_samples} samples but the scene has {n}"
        )
    images = [istft(s, output_length=n) for s in estimates.image_estimates]
    quantiles = tuple(float(q) for q in quantiles)
    report = evaluate_scene(images, scene, quantiles=quantiles)

    payload = {
        "version": REPORT_FORMAT_VERSION,
        "report": report.to_dict(),
    }
    write_json(out_dir / "report.json", payload)

    if quantiles:
        per_speaker = []
        for c, ref in enumerate(scene.reverberant_image):
            sweep = quantile_sweep(
                {
                    "estimate": images[report.permutation[c]],
                    "unprocessed": scene.mixture,
                },
                ref,
                quantiles,
            )
            per_speaker.append(sweep)
        values = {
            name: tuple(
                float(np.mean([s.values[name][i] for s in per_speaker]))
                for i in range(len(quantiles))
            )
            for name in per_speaker[0].values
        }
        improvements = {
            pair: tuple(
                float(np.mean([s.improvements[pair][i] for s in per_speaker]))
                for i in range(len(quantiles))
            )
            for pair in per_speaker[0].improvements
        }
        combined = QuantileSweep(
            quantiles=quantiles, values=values, improvements=improvements
        )
        combined.write_values_csv(out_dir / "si_sdr_le_values.csv")
        combined.write_improvements_csv(out_dir / "si_sdr_le_improvements.csv")
        payload["sweep"] = combined.to_dict()
    return payload


def override(config, path: str, value):
    """A copy of a nested config with the field at a dotted path replaced."""
    name, _, rest = path.partition(".")
    if rest:
        value = override(getattr(config, name), rest, value)
    return replace(config, **{name: value})


def apply_sweep_axis(
    config: ExperimentConfig, axis: str, value: float
) -> ExperimentConfig:
    """A copy of the config with one swept parameter replaced."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    path, cast = SWEEP_AXES[axis]
    return override(config, path, cast(value))


def _sweep_worker(payload: dict):
    config = config_from_dict(ExperimentConfig, payload["config"])
    scene = _scene_from_payload(payload)
    # Only the FCP images are scored here, so the refined estimates'
    # low-energy sweep is skipped.
    result = run_scene(scene, replace(config, quantiles=()))
    images = [
        istft(s, output_length=scene.num_samples) for s in result.fcp_images
    ]
    report = evaluate_scene(images, scene)
    return float(report.mean["si_sdr_db"])


def run_sweep(
    config: ExperimentConfig,
    axis: str,
    values,
    out_dir,
    jobs: int = 1,
) -> list:
    """One batch per axis value; aggregate CSV of mean FCP-image SI-SDR.

    The swept metric scores the prediction-stage images themselves (not
    the refined outputs) so the axis effect is visible regardless of
    refinement mode.  Requires an FCP-enabled config.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(
            f"unknown sweep axis {axis!r} (choose from {tuple(SWEEP_AXES)})"
        )
    if config.fcp_mode == "off":
        raise ValueError("sweep requires fcp_mode 'fcp' or 'essu'")
    check_external_dir(config)
    sweeps = [apply_sweep_axis(config, axis, value) for value in values]
    specs = [draw_scene_specs(swept) for swept in sweeps]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, swept, swept_specs in zip(values, sweeps, specs):
        payloads = [
            {
                "scene_dir": None,
                "scene_spec": config_to_dict(spec),
                "config": config_to_dict(swept),
            }
            for spec in swept_specs
        ]
        scores = _map_jobs(_sweep_worker, payloads, jobs)
        rows.append(
            {
                "axis": axis,
                "value": float(value),
                "num_scenes": swept.num_scenes,
                "mean_fcp_image_si_sdr_db": float(np.mean(scores)),
                "config_sha256": swept.config_hash(),
            }
        )
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "axis",
                "value",
                "num_scenes",
                "mean_fcp_image_si_sdr_db",
                "config_sha256",
            ],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return rows
