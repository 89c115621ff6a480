"""Training-objective functions as pure evaluators.

These mirror the losses a separator would train against: a base
spectrogram distance, its permutation-invariant (PIT) and fixed-
permutation (enhancement) aggregations over speakers, a mixture-
consistency term, and two-stream composites that score reverberant and
direct-path estimates together under one shared speaker permutation.
No gradients are provided; external trainers own backpropagation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from cxfilter.stft import ComplexSpectrogram, _check_same_grid

# Factorial enumeration over speaker permutations; fine for C <= 8.
MAX_SPEAKERS = 8


@dataclass(frozen=True)
class LossValue:
    """A scored objective: total, named breakdown, permutation used.

    ``permutation[c]`` is the estimate index matched to reference ``c``
    (0-based); None for objectives that do not align speakers.  The
    total always equals the sum of the breakdown terms.
    """

    total: float
    per_term: dict = field(default_factory=dict)
    permutation: tuple | None = None

    def __post_init__(self):
        if self.total < 0.0 or not math.isfinite(self.total):
            raise ValueError("loss total must be finite and non-negative")
        if self.per_term and abs(self.total - sum(self.per_term.values())) > 1e-9:
            raise ValueError("loss total does not match its breakdown terms")


def base_loss(est: ComplexSpectrogram, ref: ComplexSpectrogram) -> float:
    """Mean L1 distance between two spectrograms.

    Averages the absolute errors of the real parts, imaginary parts, and
    magnitudes: (S|dRe| + S|dIm| + S|d|.||)/(3TF).  Zero iff the
    spectrograms are identical.
    """
    _check_same_grid(est, ref, "base_loss")
    delta = est.data - ref.data
    units = delta.size
    re_im = np.sum(np.abs(delta.real)) + np.sum(np.abs(delta.imag))
    mag = np.sum(np.abs(np.abs(est.data) - np.abs(ref.data)))
    return float((re_im + mag) / (3 * units))


def best_permutation(cost) -> tuple:
    """Permutation minimizing ``sum_c cost[c, perm[c]]``.

    Searches all permutations of the square matrix's columns; ties
    resolve to the lexicographically smallest permutation.  More than
    :data:`MAX_SPEAKERS` rows raise ValueError.
    """
    count = len(cost)
    if count > MAX_SPEAKERS:
        raise ValueError(
            f"best_permutation: {count} speakers exceeds the enumeration cap "
            f"of {MAX_SPEAKERS}"
        )
    best_perm, best_total = None, np.inf
    for perm in itertools.permutations(range(count)):
        total = sum(cost[c, perm[c]] for c in range(count))
        if total < best_total:
            best_perm, best_total = perm, total
    return best_perm


def pairwise_table(score, ests: list, refs: list) -> np.ndarray:
    """score(est, ref) at [c_ref, c_est] for every reference/estimate pairing."""
    table = np.empty((len(refs), len(ests)))
    for i, ref in enumerate(refs):
        for j, est in enumerate(ests):
            table[i, j] = score(est, ref)
    return table


def _check_counts(ests: list, refs: list, op: str):
    if len(ests) != len(refs):
        raise ValueError(
            f"{op}: estimate count {len(ests)} != reference count {len(refs)}"
        )
    if len(ests) == 0:
        raise ValueError(f"{op}: empty speaker lists")


def pit_loss(ests: list, refs: list) -> LossValue:
    """Permutation-invariant loss: best speaker assignment wins.

    Minimizes sum_c base_loss(est[perm[c]], ref[c]) over all
    permutations; ties resolve to the lexicographically smallest
    permutation.  The breakdown holds one term per reference speaker
    under the winning assignment.
    """
    _check_counts(ests, refs, "pit_loss")
    table = pairwise_table(base_loss, ests, refs)
    perm = best_permutation(table)
    terms = {f"speaker_{c}": float(table[c, perm[c]]) for c in range(len(refs))}
    return LossValue(total=sum(terms.values()), per_term=terms, permutation=perm)


def mc_loss(ests: list, mixture_spec: ComplexSpectrogram) -> float:
    """Mixture-consistency loss: base_loss of the summed estimates vs Y."""
    if len(ests) == 0:
        raise ValueError("mc_loss: empty speaker list")
    total = ComplexSpectrogram(
        sum(np.asarray(e.data) for e in ests), mixture_spec.config
    )
    return base_loss(total, mixture_spec)


def _check_permutation(permutation, count: int, op: str) -> tuple:
    perm = tuple(int(p) for p in permutation)
    if sorted(perm) != list(range(count)):
        raise ValueError(f"{op}: {permutation!r} is not a permutation of 0..{count - 1}")
    return perm


def enh_loss(ests: list, refs: list, permutation) -> float:
    """Fixed-assignment loss: sum_c base_loss(est[perm[c]], ref[c]).

    No permutation search; with the PIT-optimal permutation this equals
    the PIT total, with any other it is at least as large.
    """
    _check_counts(ests, refs, "enh_loss")
    perm = _check_permutation(permutation, len(refs), "enh_loss")
    return float(sum(base_loss(ests[perm[c]], refs[c]) for c in range(len(refs))))


def composite_loss(
    stage: str,
    est_reverb: list,
    est_direct: list,
    ref_reverb: list,
    ref_direct: list,
    mixture_spec: ComplexSpectrogram,
    permutation=None,
) -> LossValue:
    """Two-stream objective over reverberant and direct-path estimates.

    ``stage1`` resolves one speaker permutation shared by both streams
    (minimizing the joint reverberant + direct sum) and scores
    PIT + MC on each stream.  ``stage2`` scores Enh + MC on each stream
    with the supplied permutation, resolving it the same way as stage1
    when none is given.

    The reverberant mixture-consistency term compares the summed
    reverberant estimates to the mixture; the direct-path term compares
    the summed direct estimates to the summed direct references, since
    the mixture also contains reverberation and noise that no
    direct-path sum should reproduce.
    """
    if stage not in ("stage1", "stage2"):
        raise ValueError(f"stage must be 'stage1' or 'stage2', got {stage!r}")
    _check_counts(est_reverb, ref_reverb, "composite_loss[reverb]")
    _check_counts(est_direct, ref_direct, "composite_loss[direct]")
    if len(est_reverb) != len(est_direct):
        raise ValueError("composite_loss: stream speaker counts differ")
    count = len(ref_reverb)

    table_r = pairwise_table(base_loss, est_reverb, ref_reverb)
    table_a = pairwise_table(base_loss, est_direct, ref_direct)
    if permutation is None:
        perm = best_permutation(table_r + table_a)
    else:
        perm = _check_permutation(permutation, count, "composite_loss")

    match_r = float(sum(table_r[c, perm[c]] for c in range(count)))
    match_a = float(sum(table_a[c, perm[c]] for c in range(count)))
    mc_r = mc_loss(est_reverb, mixture_spec)
    direct_ref_sum = ComplexSpectrogram(
        sum(np.asarray(r.data) for r in ref_direct), mixture_spec.config
    )
    mc_a = mc_loss(est_direct, direct_ref_sum)

    label = "pit" if stage == "stage1" else "enh"
    terms = {
        f"{label}_reverberant": match_r,
        "mc_reverberant": mc_r,
        f"{label}_anechoic": match_a,
        "mc_anechoic": mc_a,
    }
    return LossValue(total=float(sum(terms.values())), per_term=terms, permutation=perm)
