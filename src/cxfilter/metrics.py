"""Evaluation metrics: SI-SDR, low-energy SI-SDR, and quantile sweeps.

SI-SDR follows the standard projection definition without demeaning.
The low-energy variant keeps only time-frequency units of the reference
at or below an energy quantile, applies that mask to both signals, and
scores what remains; sweeping the quantile profiles how well a system
preserves the quiet parts of the target, where suppression artifacts
hide from the plain metric.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from cxfilter.io import config_to_dict
from cxfilter.losses import MAX_SPEAKERS, best_permutation
from cxfilter.scenes import Scene
from cxfilter.stft import SEPARATOR_STFT, ComplexSpectrogram, StftConfig, istft, stft

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


# The last two SI-SDR-LE analyses as (config, copy of the signal,
# spectrogram), most recently used first.  A quantile sweep scores one
# (estimate, reference) pair at every quantile, so two entries let every
# quantile after the first reuse both spectrograms.
_ANALYSES: list = []


def _analyse(signal: np.ndarray, config: StftConfig) -> ComplexSpectrogram:
    """``stft(signal, config)``, reused while the signal's values are unchanged.

    An entry matches only on an equal config and an element-wise equal
    copy of the signal, so changing an array in place between calls
    never returns a stale spectrogram.
    """
    for i, (cached_config, cached_signal, spec) in enumerate(_ANALYSES):
        if cached_config == config and np.array_equal(cached_signal, signal):
            _ANALYSES.insert(0, _ANALYSES.pop(i))
            return spec
    spec = stft(signal, config)
    _ANALYSES.insert(0, (config, signal.copy(), spec))
    del _ANALYSES[2:]
    return spec


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


def si_sdr_le(
    est,
    ref,
    quantile: float,
    stft_config: StftConfig | None = None,
    domain: str = "time",
) -> float:
    """SI-SDR restricted to the reference's low-energy T-F region.

    Both signals are transformed with ``stft_config`` (separator-domain
    256/64 by default), masked by :func:`low_energy_mask` computed from
    the reference, and compared.  ``domain="time"`` inverts both masked
    spectrograms and scores the time signals; ``domain="tf"`` scores
    the flattened real/imaginary parts of the masked units directly.
    """
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape or est.ndim != 1:
        raise ValueError(
            f"si_sdr_le needs equal-length 1-D signals, got {est.shape} vs {ref.shape}"
        )
    if domain not in ("time", "tf"):
        raise ValueError(f"domain must be 'time' or 'tf', got {domain!r}")
    config = SEPARATOR_STFT if stft_config is None else stft_config
    ref_spec = _analyse(ref, config)
    est_spec = _analyse(est, config)
    mask = low_energy_mask(ref_spec, quantile)
    ref_masked = ref_spec.data * mask
    est_masked = est_spec.data * mask
    if domain == "tf":
        return si_sdr(
            np.concatenate([est_masked.real.ravel(), est_masked.imag.ravel()]),
            np.concatenate([ref_masked.real.ravel(), ref_masked.imag.ravel()]),
        )
    length = est.shape[0]
    ref_time = istft(ComplexSpectrogram(ref_masked, config), output_length=length)
    est_time = istft(ComplexSpectrogram(est_masked, config), output_length=length)
    return si_sdr(est_time, ref_time)


@dataclass(frozen=True)
class QuantileSweep:
    """Per-system SI-SDR-LE values over a quantile grid.

    ``values[name]`` aligns with ``quantiles``; ``improvements[(a, b)]``
    holds value(a) - value(b) per quantile for every ordered system
    pair, in the order the systems were supplied.
    """

    quantiles: tuple
    values: dict
    improvements: dict = field(default_factory=dict)

    def __post_init__(self):
        q = self.quantiles
        if any(b <= a for a, b in zip(q, q[1:])):
            raise ValueError("quantiles must be strictly ascending")

    def write_values_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["system", "quantile", "si_sdr_le_db"])
            for name, vals in self.values.items():
                for q, v in zip(self.quantiles, vals):
                    writer.writerow([name, repr(float(q)), repr(float(v))])

    def write_improvements_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["system_a", "system_b", "quantile", "delta_db"])
            for (a, b), vals in self.improvements.items():
                for q, v in zip(self.quantiles, vals):
                    writer.writerow([a, b, repr(float(q)), repr(float(v))])

    def to_dict(self) -> dict:
        return {
            "quantiles": [float(q) for q in self.quantiles],
            "values": {k: [float(v) for v in vals] for k, vals in self.values.items()},
            "improvements": {
                f"{a}-{b}": [float(v) for v in vals]
                for (a, b), vals in self.improvements.items()
            },
        }


def quantile_sweep(
    est_systems: dict,
    ref,
    quantiles,
    stft_config: StftConfig | None = None,
    domain: str = "time",
) -> QuantileSweep:
    """Evaluate named estimate signals at every energy quantile.

    ``est_systems`` maps system name to a time-domain estimate of the
    same reference.  Improvement curves cover every ordered pair of
    distinct systems.
    """
    if len(est_systems) == 0:
        raise ValueError("quantile_sweep needs at least one system")
    quantiles = tuple(float(q) for q in quantiles)
    values = {
        name: tuple(
            si_sdr_le(est, ref, q, stft_config=stft_config, domain=domain)
            for q in quantiles
        )
        for name, est in est_systems.items()
    }
    improvements = {
        (a, b): tuple(va - vb for va, vb in zip(values[a], values[b]))
        for a, b in itertools.permutations(values, 2)
    }
    return QuantileSweep(quantiles=quantiles, values=values, improvements=improvements)


@dataclass(frozen=True)
class MetricsReport:
    """Per-speaker and mean scores for one scene evaluation.

    ``per_speaker[c]`` holds the scores of the estimate assigned to
    reference speaker ``c``; ``permutation[c]`` names that estimate's
    index.  ``mean`` carries the arithmetic means of every score kind.
    """

    per_speaker: tuple
    mean: dict
    permutation: tuple
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.mean.items():
            vals = [speaker[key] for speaker in self.per_speaker]
            flat_mean = (
                {q: float(np.mean([v[q] for v in vals])) for q in value}
                if isinstance(value, dict)
                else float(np.mean(vals))
            )
            if isinstance(value, dict):
                bad = any(abs(value[q] - flat_mean[q]) > 1e-9 for q in value)
            else:
                bad = abs(value - flat_mean) > 1e-9
            if bad:
                raise ValueError(f"mean[{key!r}] does not match per-speaker values")

    def to_dict(self) -> dict:
        return {
            "per_speaker": [dict(s) for s in self.per_speaker],
            "mean": dict(self.mean),
            "permutation": list(self.permutation),
            "config": dict(self.config),
        }


def evaluate_scene(estimates: list, scene: Scene, quantiles=()) -> MetricsReport:
    """Score per-speaker estimates against a scene's true images.

    The speaker assignment is resolved by maximizing the mean SI-SDR
    over all permutations (ties to the lexicographically smallest), and
    the report carries per-speaker SI-SDR plus SI-SDR-LE at each
    requested quantile against the true reverberant images.
    """
    refs = scene.reverberant_image
    count = len(refs)
    if len(estimates) != count:
        raise ValueError(
            f"evaluate_scene: {len(estimates)} estimates for {count} speakers"
        )
    if count > MAX_SPEAKERS:
        raise ValueError(
            f"evaluate_scene: {count} speakers exceeds the enumeration cap"
        )
    estimates = [np.asarray(e, dtype=np.float64) for e in estimates]
    for est in estimates:
        if est.shape != refs[0].shape:
            raise ValueError("evaluate_scene: estimate length mismatch")

    table = np.empty((count, count))
    for i, ref in enumerate(refs):
        for j, est in enumerate(estimates):
            table[i, j] = si_sdr(est, ref)
    best_perm = best_permutation(-table)

    quantiles = tuple(float(q) for q in quantiles)
    per_speaker = []
    for c in range(count):
        entry = {"si_sdr_db": float(table[c, best_perm[c]])}
        if quantiles:
            entry["si_sdr_le_db"] = {
                q: si_sdr_le(estimates[best_perm[c]], refs[c], q) for q in quantiles
            }
        per_speaker.append(entry)

    mean = {"si_sdr_db": float(np.mean([s["si_sdr_db"] for s in per_speaker]))}
    if quantiles:
        mean["si_sdr_le_db"] = {
            q: float(np.mean([s["si_sdr_le_db"][q] for s in per_speaker]))
            for q in quantiles
        }
    config = {
        "si_sdr_cap_db": SI_SDR_CAP_DB,
        "si_sdr_floor_db": SI_SDR_FLOOR_DB,
        "quantiles": list(quantiles),
        "le_stft": config_to_dict(SEPARATOR_STFT),
        "le_domain": "time",
    }
    return MetricsReport(
        per_speaker=tuple(per_speaker),
        mean=mean,
        permutation=best_perm,
        config=config,
    )
