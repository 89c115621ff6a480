"""Evaluation metrics: SI-SDR, low-energy SI-SDR, and quantile sweeps.

SI-SDR follows the standard projection definition without demeaning.
The low-energy variant keeps only time-frequency units of the reference
at or below an energy quantile, applies that mask to both signals, and
scores what remains; sweeping the quantile profiles how well a system
preserves the quiet parts of the target, where suppression artifacts
hide from the plain metric.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from cxfilter.fcp import check_threads, run_on_threads
from cxfilter.io import config_to_dict, write_csv
from cxfilter.losses import best_permutation, pairwise_table
from cxfilter.scenes import Scene
from cxfilter.stft import SEPARATOR_STFT, ComplexSpectrogram, istft, stft

# Caps keep reports finite when the residual is (near) zero.
SI_SDR_CAP_DB = 100.0
SI_SDR_FLOOR_DB = -100.0


def si_sdr(est, ref) -> float:
    """Scale-invariant SDR in dB, capped to [-100, +100].

    The reference is scaled by a = <est, ref>/||ref||^2 and the score is
    10 log10(||a ref||^2 / ||a ref - est||^2).  Any rescaling of the
    estimate leaves the value unchanged; an estimate orthogonal to the
    reference, or identically zero, hits the floor.
    """
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape or est.ndim != 1:
        raise ValueError(
            f"si_sdr needs equal-length 1-D signals, got {est.shape} vs {ref.shape}"
        )
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("si_sdr reference is identically zero")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    num = float(np.dot(target, target))
    den = float(np.sum((target - est) ** 2))
    if den == 0.0:
        return SI_SDR_CAP_DB if num > 0.0 else SI_SDR_FLOOR_DB
    if num == 0.0:
        return SI_SDR_FLOOR_DB
    value = 10.0 * math.log10(num / den)
    return float(min(SI_SDR_CAP_DB, max(SI_SDR_FLOOR_DB, value)))


class _Analyses(threading.local):
    """Each thread's last two SI-SDR-LE analyses as ``entries``, a list of
    (copy of the signal, spectrogram), most recently used first.  A
    quantile sweep scores one (estimate, reference) pair at every
    quantile, so two entries let every quantile after the first reuse
    both spectrograms, and sweeps on other threads evict none of them.
    :func:`evaluate_scene`'s per-speaker sweep and :func:`quantile_sweep`
    empty the list as they end.
    """

    def __init__(self):
        self.entries = []


_ANALYSES = _Analyses()


def _analyse(signal: np.ndarray) -> ComplexSpectrogram:
    """``stft(signal, SEPARATOR_STFT)``, reused while the signal's values
    are unchanged and the calling thread asks again.

    An entry matches only on an element-wise equal copy of the signal,
    so changing an array in place between calls never returns a stale
    spectrogram.
    """
    entries = _ANALYSES.entries
    for i, (cached_signal, spec) in enumerate(entries):
        if np.array_equal(cached_signal, signal):
            entries.insert(0, entries.pop(i))
            return spec
    spec = stft(signal, SEPARATOR_STFT)
    entries.insert(0, (signal.copy(), spec))
    del entries[2:]
    return spec


def check_quantiles(quantiles) -> tuple:
    """The quantiles as a tuple of floats, strictly ascending, each in (0, 1].

    Raises ValueError otherwise.  An empty grid is valid.
    """
    q = tuple(float(v) for v in quantiles)
    if not all(0.0 < v <= 1.0 for v in q) or any(b <= a for a, b in zip(q, q[1:])):
        raise ValueError(
            f"quantiles must be strictly ascending, each in (0, 1], got {list(q)}"
        )
    return q


def _nearest_rank_threshold(energies: np.ndarray, quantile: float) -> float:
    """Nearest-rank quantile: the ceil(q*N)-th smallest energy."""
    rank = max(1, math.ceil(quantile * energies.size))
    return float(np.partition(energies, rank - 1, axis=None)[rank - 1])


def low_energy_mask(ref_spec: ComplexSpectrogram, quantile: float) -> np.ndarray:
    """Boolean keep-mask for reference units at or below the quantile.

    The threshold is the nearest-rank quantile of the per-unit energies
    |ref(t,f)|^2 over the whole spectrogram; units whose energy exceeds
    it are dropped (False), everything else survives, including exact
    ties at the threshold.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    energies = np.abs(ref_spec.data) ** 2
    return energies <= _nearest_rank_threshold(energies, quantile)


def si_sdr_le(est, ref, quantile: float) -> float:
    """SI-SDR restricted to the reference's low-energy T-F region.

    Both signals are transformed on the separator grid
    :data:`~cxfilter.stft.SEPARATOR_STFT` (256/64), masked by
    :func:`low_energy_mask` computed from the reference, inverted to
    the time domain, and scored with :func:`si_sdr`.
    """
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape or est.ndim != 1:
        raise ValueError(
            f"si_sdr_le needs equal-length 1-D signals, got {est.shape} vs {ref.shape}"
        )
    ref_spec = _analyse(ref)
    est_spec = _analyse(est)
    mask = low_energy_mask(ref_spec, quantile)
    ref_time, est_time = (
        istft(ComplexSpectrogram(s.data * mask, s.config), output_length=est.size)
        for s in (ref_spec, est_spec)
    )
    return si_sdr(est_time, ref_time)


def _column_means(table) -> tuple:
    return tuple(float(np.mean(col)) for col in np.asarray(table).T)


@dataclass(frozen=True)
class QuantileSweep:
    """Per-system SI-SDR-LE scores over a quantile grid.

    ``tables[name]`` has one row per speaker and one column per
    quantile; ``values[name]`` is its column means and
    ``improvements[(a, b)]`` the column means of a - b, row by row, for
    every ordered system pair in the order the systems were supplied.
    """

    quantiles: tuple
    tables: dict

    def __post_init__(self):
        check_quantiles(self.quantiles)

    @property
    def values(self) -> dict:
        return {name: _column_means(table) for name, table in self.tables.items()}

    @property
    def improvements(self) -> dict:
        return {
            (a, b): _column_means(np.subtract(self.tables[a], self.tables[b]))
            for a, b in itertools.permutations(self.tables, 2)
        }

    def write_values_csv(self, path):
        rows = [
            [name, float(q), float(v)]
            for name, vals in self.values.items()
            for q, v in zip(self.quantiles, vals)
        ]
        write_csv(path, ("system", "quantile", "si_sdr_le_db"), rows)

    def write_improvements_csv(self, path):
        rows = [
            [a, b, float(q), float(v)]
            for (a, b), vals in self.improvements.items()
            for q, v in zip(self.quantiles, vals)
        ]
        write_csv(path, ("system_a", "system_b", "quantile", "delta_db"), rows)

    def to_dict(self) -> dict:
        return {
            "quantiles": [float(q) for q in self.quantiles],
            "values": {k: [float(v) for v in vals] for k, vals in self.values.items()},
            "improvements": {
                f"{a}-{b}": [float(v) for v in vals]
                for (a, b), vals in self.improvements.items()
            },
        }


def quantile_sweep(est_systems: dict, ref, quantiles) -> QuantileSweep:
    """Evaluate named estimate signals with :func:`si_sdr_le` at every
    energy quantile.

    ``est_systems`` maps system name to a time-domain estimate of the
    same reference, scored as a one-row table.  Improvement curves cover
    every ordered pair of distinct systems.  The calling thread's
    analyses are forgotten when the sweep ends.
    """
    if len(est_systems) == 0:
        raise ValueError("quantile_sweep needs at least one system")
    quantiles = check_quantiles(quantiles)
    try:
        tables = {
            name: [[si_sdr_le(est, ref, q) for q in quantiles]]
            for name, est in est_systems.items()
        }
    finally:
        _ANALYSES.entries.clear()
    return QuantileSweep(quantiles=quantiles, tables=tables)


def mean_scores(entries) -> dict:
    """The arithmetic mean of every score over per-speaker or per-scene
    entries: ``si_sdr_db`` and, if scored, ``si_sdr_le_db`` per quantile.
    """
    mean = {"si_sdr_db": float(np.mean([e["si_sdr_db"] for e in entries]))}
    if "si_sdr_le_db" in entries[0]:
        mean["si_sdr_le_db"] = {
            q: float(np.mean([e["si_sdr_le_db"][q] for e in entries]))
            for q in entries[0]["si_sdr_le_db"]
        }
    return mean


@dataclass(frozen=True)
class MetricsReport:
    """Per-speaker and mean scores for one scene evaluation.

    ``per_speaker[c]`` holds the scores of the estimate assigned to
    reference speaker ``c``; ``permutation[c]`` names that estimate's
    index.  ``mean`` is not passed: it is computed from ``per_speaker``
    by :func:`mean_scores`.
    """

    per_speaker: tuple
    permutation: tuple
    config: dict = field(default_factory=dict)
    mean: dict = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", mean_scores(self.per_speaker))

    def to_dict(self) -> dict:
        return {
            "per_speaker": [dict(s) for s in self.per_speaker],
            "mean": dict(self.mean),
            "permutation": list(self.permutation),
            "config": dict(self.config),
        }


def evaluate_scene(
    estimates: list, scene: Scene, quantiles=(), threads=1
) -> MetricsReport:
    """Score per-speaker estimates against a scene's true images.

    The speaker assignment is resolved by maximizing the mean SI-SDR
    over all permutations (ties to the lexicographically smallest), and
    the report carries per-speaker SI-SDR plus SI-SDR-LE at each
    requested quantile against the true reverberant images.

    The SI-SDR table and the search run on the calling thread.  Each
    speaker's SI-SDR-LE sweep is then one task, and the tasks run on
    ``threads`` threads (:func:`~cxfilter.fcp.run_on_threads`) with the
    same bits at any count; a task forgets its thread's analyses as it
    ends, so a scored pair leaves no spectrogram alive.  A ``threads``
    that is not an int >= 1 raises ValueError before any scoring.

    This is the one grid scorer: ``eval`` scores the unprocessed mixture
    with it too, as every speaker's estimate.  Identical estimates give
    every permutation the same total, so the search keeps the identity.
    """
    check_threads(threads)
    refs = scene.reverberant_image
    count = len(refs)
    if len(estimates) != count:
        raise ValueError(
            f"evaluate_scene: {len(estimates)} estimates for {count} speakers"
        )
    estimates = [np.asarray(e, dtype=np.float64) for e in estimates]
    for est in estimates:
        if est.shape != refs[0].shape:
            raise ValueError("evaluate_scene: estimate length mismatch")
    quantiles = check_quantiles(quantiles)

    table = pairwise_table(si_sdr, estimates, refs)
    best_perm = best_permutation(-table)

    per_speaker = [{"si_sdr_db": float(table[c, best_perm[c]])} for c in range(count)]

    def sweep(c):
        est, ref = estimates[best_perm[c]], refs[c]
        try:
            scores = [si_sdr_le(est, ref, q) for q in quantiles]
        finally:
            _ANALYSES.entries.clear()
        per_speaker[c]["si_sdr_le_db"] = dict(zip(quantiles, scores))

    if quantiles:
        run_on_threads(sweep, list(range(count)), threads)

    config = {
        "si_sdr_cap_db": SI_SDR_CAP_DB,
        "si_sdr_floor_db": SI_SDR_FLOOR_DB,
        "quantiles": list(quantiles),
        "le_stft": config_to_dict(SEPARATOR_STFT),
        "le_domain": "time",
    }
    return MetricsReport(
        per_speaker=tuple(per_speaker), permutation=best_perm, config=config
    )
