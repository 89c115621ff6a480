"""Reproducible batch experiments over seeded scenes.

An :class:`ExperimentConfig` captures everything that determines a
batch result: scene sampling ranges, separator degradation, pipeline
settings, metric quantiles, and the global seed.  Configs serialize to
versioned JSON, embed into every report together with a content hash,
and identical configs reproduce byte-identical reports.  Every batch
runner walks one list of named scene jobs (:func:`_scene_jobs`), and
``separate`` and ``sweep`` check all of them before the first scene
runs (:func:`_checked_jobs`).
Scene-level parallelism is available through a jobs parameter: workers
receive the scene source and config objects themselves, and results
merge in deterministic scene order.
"""

from __future__ import annotations

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
import numpy.random  # numpy 2 loads it lazily: here, not in a batch's first scene

from cxfilter import fcp as fcp_module
from cxfilter.fcp import FcpConfig
from cxfilter.io import (
    config_from_dict,
    config_to_dict,
    decode_value,
    write_csv,
    write_json,
)
from cxfilter.metrics import (
    MetricsReport,
    QuantileSweep,
    check_quantiles,
    evaluate_scene,
    mean_scores,
)
from cxfilter.pipeline import (
    REFINEMENTS,
    DegradationSpec,
    SeparatorOutput,
    check_estimates,
    check_scene_spec,
    export_estimates,
    predict,
    run_pipeline,
)
from cxfilter.scenes import (
    SCENE_MANIFEST,
    NoScenesError,
    Scene,
    SceneSpec,
    load_scene,
    read_scene_manifest,
    save_scene,
    simulate_scene,
)
# istft is unused: perfbench/test_selftest.py's tracer test asserts it is patched here.
from cxfilter.stft import SEPARATOR_STFT, StftConfig, istft  # noqa: F401

EXPERIMENT_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

FCP_MODES = ("off", "fcp", "essu")
# Sweep axis -> (dotted ExperimentConfig field path, cast of the swept value).
SWEEP_AXES = {
    "taps": ("fcp.taps", lambda v: decode_value(int, v, "taps")),
    "epsilon": ("fcp.epsilon", float),
    "degradation_snr": ("degradation.snr_db", float),
    "t60": ("scene.t60_range_s", lambda v: (v, v)),
}
SWEEP_COLUMNS = (
    "axis", "value", "num_scenes", "mean_fcp_image_si_sdr_db", "config_sha256"
)
# glibc mallopt parameters (malloc.h) and the values set_heap_policy
# gives them.  Every scoring temporary (0.8 MB at 3 s, 2.6 MB for a
# 256-grid spectrogram at 10 s) is below the mmap threshold, so it is
# reused from the heap, whose free top is kept up to the trim threshold;
# a filter-grid spectrogram (10.4 MB at 10 s) stays mapped, returned as
# soon as it is freed.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_MMAP_THRESHOLD = 4 << 20
HEAP_TRIM_THRESHOLD = 8 << 20


def _range_pair(value, name: str) -> tuple:
    value = tuple(value)
    if len(value) != 2:
        raise ValueError(f"{name} must be a (lo, hi) pair, got {len(value)} values")
    lo, hi = (float(v) for v in value)
    if not lo <= hi:
        raise ValueError(f"{name} must be (lo, hi) with lo <= hi")
    return (lo, hi)


@dataclass(frozen=True)
class SceneRanges:
    """Per-scene parameter sampling ranges for batch generation."""

    num_speakers: int = 2
    duration_s: float = 3.0
    t60_range_s: tuple[float, ...] = (0.2, 0.5)
    drr_range_db: tuple[float, ...] = (-5.0, 0.0)
    noise_snr_range_db: tuple[float, ...] = (20.0, 30.0)
    sample_rate_hz: int = 8000
    speaker_gains_db: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("t60_range_s", "drr_range_db", "noise_snr_range_db"):
            object.__setattr__(self, name, _range_pair(getattr(self, name), name))
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
    estimate directories under ``external_dir``, so a config that asks
    for it without one is rejected when it is built, unless ``fcp_mode``
    is ``off`` and the refinement never runs.  The content hash
    covers all result-determining fields; ``external_dir``, an output
    location, is excluded so relocating an experiment does not change
    its identity.
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
    quantiles: tuple[float, ...] = ()
    external_dir: str | None = None

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        external = self.refinement == "external" and self.fcp_mode != "off"
        if external and self.external_dir is None:
            raise ValueError("external refinement requires external_dir")
        object.__setattr__(self, "quantiles", check_quantiles(self.quantiles))

    def config_hash(self) -> str:
        hashed = config_to_dict(self)
        hashed.pop("external_dir", None)
        blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_scene(scene: Scene, config: ExperimentConfig, threads=1) -> tuple:
    """Run the configured system over one scene, fitting filters and
    scoring speakers on ``threads`` threads; see :func:`run_pipeline`."""
    return run_pipeline(scene, config, threads)


def discover_scene_dirs(scenes_dir) -> list:
    """Scene directories under a root, in deterministic name order."""
    root = Path(scenes_dir)
    if (root / SCENE_MANIFEST).is_file():
        return [root]
    return sorted(
        (p.parent for p in root.glob(f"*/{SCENE_MANIFEST}")), key=lambda p: p.name
    )


def _scene_jobs(config: ExperimentConfig, scenes_dir=None) -> list:
    """(name, source) of every scene of a batch, in scene order: the
    scene directories under ``scenes_dir``, or without one a
    :class:`SceneSpec` per scene drawn from the config, ``scene_0001``...
    """
    if scenes_dir is None:
        return [
            (f"scene_{i + 1:04d}", config.scene.draw_scene_spec(config.seed, i))
            for i in range(config.num_scenes)
        ]
    jobs = [(d.name, d) for d in discover_scene_dirs(scenes_dir)]
    if not jobs:
        raise NoScenesError(
            f"no scene manifest found under {scenes_dir} "
            f"(expected {Path(scenes_dir) / SCENE_MANIFEST} or "
            f"{Path(scenes_dir)}/*/{SCENE_MANIFEST})"
        )
    return jobs


def _checked_jobs(config: ExperimentConfig, scenes_dir=None) -> list:
    """:func:`_scene_jobs`, each checked by
    :func:`~cxfilter.pipeline.check_scene_spec` before any scene runs: a
    drawn spec as it is, a directory's spec and component list from its
    manifest alone (:func:`~cxfilter.scenes.read_scene_manifest`).  A
    fault raises ValueError naming the scene or its manifest, or, for a
    component the manifest does not list, FileNotFoundError."""
    jobs = _scene_jobs(config, scenes_dir)
    check = functools.partial(check_scene_spec, config=config)
    for key, source in jobs:
        if not isinstance(source, SceneSpec):
            read_scene_manifest(source, check)
            continue
        try:
            check(source)
        except ValueError as err:
            raise ValueError(f"{key}: {err}") from None
    return jobs


def _job_config(config: ExperimentConfig, *parts: str) -> ExperimentConfig:
    """The config of one scene job: external refinement exchanges under
    ``external_dir/<parts>/iteration_{i}``, so no two jobs share a directory."""
    if config.external_dir is None:
        return config
    return replace(config, external_dir=str(Path(config.external_dir, *parts)))


def _scene(source) -> Scene:
    """The scene of a job's source: a drawn spec simulated, a directory loaded."""
    if isinstance(source, SceneSpec):
        return simulate_scene(source)
    return load_scene(source)


def _pin_blas_threads(count: int = 1) -> int | None:
    """Run numpy's OpenBLAS (:func:`cxfilter.fcp.openblas`), which the FCP
    solve calls too, on ``count`` threads; returns its previous count.
    Where numpy bundles no OpenBLAS, does nothing and returns None.

    Pool workers that each run several BLAS threads oversubscribe the
    cores, which made parallel batches slower than serial ones.  The
    serial path is pinned to one thread too, so report bytes depend
    neither on ``jobs`` nor on the CPU count.
    """
    lib = fcp_module.openblas()
    if lib is None:
        return None
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    return previous


def set_heap_policy() -> None:
    """Set glibc's mmap and trim thresholds (``mallopt``) to
    :data:`HEAP_MMAP_THRESHOLD` and :data:`HEAP_TRIM_THRESHOLD`, so freed
    scoring temporaries stay in the heap; without ``mallopt``, do nothing.

    glibc's own thresholds follow the largest block freed, so each
    SI-SDR-LE call gave the heap's top back to the kernel and the next
    one faulted it in again.  Fixed thresholds hold for the rest of the
    process, so only the processes the package owns set them: the CLI
    (:func:`cxfilter.cli.main`) and :func:`_map_jobs`'s pool workers.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library
        return
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


def _start_worker() -> None:
    """A pool worker's set-up: the heap policy, and OpenBLAS on one thread."""
    set_heap_policy()
    _pin_blas_threads()


def _cpu_count() -> int:
    """The number of CPUs this process may run on (its affinity set)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_jobs(func, payloads: list, jobs: int) -> list:
    """Apply a worker over payloads, merging in submission order.

    At most ``jobs`` worker processes run, and never more than there
    are CPUs or payloads.  Every worker runs OpenBLAS on one thread
    (:func:`_pin_blas_threads`), a pool worker with the heap policy
    (:func:`set_heap_policy`) too, and is called as ``func(payload,
    threads=share)``, to fit FCP filters and score speakers on its share
    of the CPUs: all of them in this process, ``CPUs // workers`` in a
    pool.
    Where a bundled OpenBLAS is not found, one warning line goes to
    stderr, its threads are left as they are, and the fits run on one
    thread, since Python threads over a multi-threaded BLAS would
    oversubscribe the cores.  A pool that cannot be started (an OSError
    while creating it or submitting to it) is reported by a warning and
    the payloads run here; an error raised by a worker is re-raised.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    found = fcp_module.openblas() is not None
    if not found:
        print(
            "warning: no OpenBLAS thread control found for numpy; "
            "BLAS keeps its default thread count",
            file=sys.stderr,
        )
    cpus = _cpu_count()
    workers = min(jobs, cpus, len(payloads))
    share = cpus if found else 1
    if workers > 1:
        pool = None
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_start_worker
            )
            work = functools.partial(func, threads=max(1, share // workers))
            results = pool.map(work, payloads)  # submits every payload now
        except OSError as err:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            print(
                f"warning: parallel execution unavailable ({err}); running "
                "sequentially",
                file=sys.stderr,
            )
        else:
            with pool:  # a worker's own error, OSError or not, reaches the caller
                return list(results)
    previous = _pin_blas_threads()
    try:
        return [func(p, threads=share) for p in payloads]
    finally:
        _pin_blas_threads(previous)


def _separate_worker(job, threads) -> MetricsReport:
    source, config, out_dir = job
    scene = _scene(source)
    separator, report = run_scene(scene, config, threads)
    export_estimates(separator, out_dir / "estimates", config.stft_dnn)
    write_json(
        out_dir / "report.json",
        {"version": REPORT_FORMAT_VERSION, "report": report.to_dict()},
    )
    return report


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
    the batch report, which is also written to ``out_dir/report.json``;
    its ``mean`` is the :func:`mean_scores` of the scene means.  A
    ``scenes_dir`` without a scene manifest raises :class:`NoScenesError`,
    and a scene that cannot run raises ValueError before any scene runs.
    """
    scene_jobs = _checked_jobs(config, scenes_dir)
    out_dir = Path(out_dir)
    payloads = [
        (source, _job_config(config, key), out_dir / key) for key, source in scene_jobs
    ]
    reports = _map_jobs(_separate_worker, payloads, jobs)
    aggregate = {
        "version": REPORT_FORMAT_VERSION,
        "config": config_to_dict(config),
        "config_sha256": config.config_hash(),
        "num_scenes": len(reports),
        "scenes": {
            key: report.to_dict() for (key, _), report in zip(scene_jobs, reports)
        },
        "mean": mean_scores([report.mean for report in reports]),
    }
    write_json(out_dir / "report.json", aggregate)
    return aggregate


def run_simulation(config: ExperimentConfig, out_dir) -> list:
    """Generate and write ``config.num_scenes`` scene directories.

    Returns one summary row per scene (name, drawn parameters, seed).
    """
    scene_jobs = _scene_jobs(config)
    out_dir = Path(out_dir)
    rows = []
    for key, spec in scene_jobs:
        save_scene(simulate_scene(spec), out_dir / key)
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
    grid: StftConfig,
) -> dict:
    """Score imported estimates against a scene; write report and CSVs.

    Raises ValueError, before writing, when the estimates, declared on
    the STFT grid ``grid``, do not fit the scene
    (:func:`cxfilter.pipeline.check_estimates`) or the
    quantiles are not strictly ascending within (0, 1].  When quantiles
    are given, a combined low-energy sweep compares the estimates with
    the unprocessed mixture, averaged over speakers, and both CSV
    exports are written next to the report.  The unprocessed system is
    the mixture offered as every speaker's estimate, and both systems
    are scored by :func:`evaluate_scene`, before the first file is
    written, as the two payloads of a one-job batch
    (:func:`_map_jobs`): on every CPU, with OpenBLAS on one thread, so
    the bytes do not depend on the CPU count.
    """
    rate, n = scene.spec.sample_rate_hz, scene.num_samples
    check_estimates(estimates, grid, scene.num_speakers, rate, n)
    quantiles = check_quantiles(quantiles)
    out_dir = Path(out_dir)

    def score(images, threads):
        return evaluate_scene(images, scene, quantiles, threads)

    systems = [estimates.image_estimates, [scene.mixture] * scene.num_speakers]
    report, unprocessed = _map_jobs(score, systems, 1)

    payload = {
        "version": REPORT_FORMAT_VERSION,
        "report": report.to_dict(),
    }
    write_json(out_dir / "report.json", payload)

    if quantiles:
        # (speakers, quantiles) SI-SDR-LE tables from each system's report.
        tables = {
            name: [[s["si_sdr_le_db"][q] for q in quantiles] for s in r.per_speaker]
            for name, r in (("estimate", report), ("unprocessed", unprocessed))
        }
        combined = QuantileSweep(quantiles=quantiles, tables=tables)
        combined.write_values_csv(out_dir / "si_sdr_le_values.csv")
        combined.write_improvements_csv(out_dir / "si_sdr_le_improvements.csv")
        payload["sweep"] = combined.to_dict()
    return payload


def override(d: dict, path: str, value) -> dict:
    """A copy of a config dict with ``value`` set at a dotted field path;
    a value on the path that is not a dict is returned unchanged, for
    :func:`~cxfilter.io.config_from_dict` to name."""
    if not isinstance(d, dict):
        return d
    name, _, rest = path.partition(".")
    if rest:
        value = override(d.get(name, {}), rest, value)
    return {**d, name: value}


def apply_sweep_axis(
    config: ExperimentConfig, axis: str, value: float
) -> ExperimentConfig:
    """A copy of the config with one swept parameter replaced."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    path, cast = SWEEP_AXES[axis]
    swept = override(config_to_dict(config), path, cast(value))
    return config_from_dict(ExperimentConfig, swept)


def _sweep_worker(job, threads) -> dict:
    source, config = job
    scene = _scene(source)
    _, stack = predict(scene, config, threads)
    return evaluate_scene(stack.fcp_images, scene).mean


def run_sweep(
    config: ExperimentConfig,
    axis: str,
    values,
    out_dir,
    jobs: int = 1,
) -> list:
    """One seeded batch per axis value; CSV of mean FCP-image SI-SDR.

    Every scene of every value runs in one :func:`_map_jobs` call, so
    ``jobs`` workers share the whole sweep, whatever the scenes per value.

    The swept metric scores the prediction-stage images themselves (not
    the refined outputs) so the axis effect is visible regardless of
    refinement mode.  Each scene runs :func:`cxfilter.pipeline.predict`
    only, and its last images are scored once; ``config.quantiles``
    enter the hashes but no score.  Requires an FCP-enabled config.
    Returns one row per value, a dict keyed by :data:`SWEEP_COLUMNS`,
    which are also the columns of ``out_dir/sweep.csv``.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(
            f"unknown sweep axis {axis!r} (choose from {tuple(SWEEP_AXES)})"
        )
    if config.fcp_mode == "off":
        raise ValueError("sweep requires fcp_mode 'fcp' or 'essu'")
    sweeps = [apply_sweep_axis(config, axis, value) for value in values]
    if not sweeps:
        raise ValueError("sweep needs at least one value")
    payloads = [
        (source, _job_config(swept, f"value_{k}", key))
        for k, swept in enumerate(sweeps, 1)
        for key, source in _checked_jobs(swept)
    ]
    out_dir = Path(out_dir)
    scene_means = iter(_map_jobs(_sweep_worker, payloads, jobs))
    rows = []
    for value, swept in zip(values, sweeps):
        mean = mean_scores([next(scene_means) for _ in range(swept.num_scenes)])
        sha = swept.config_hash()
        row = (axis, float(value), swept.num_scenes, mean["si_sdr_db"], sha)
        rows.append(dict(zip(SWEEP_COLUMNS, row)))
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, [r.values() for r in rows])
    return rows
