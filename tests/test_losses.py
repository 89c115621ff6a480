"""Objective functions: base distance, PIT/MC/Enh, composites."""

import itertools

import numpy as np
import pytest

from cxfilter import (
    ComplexSpectrogram,
    LossValue,
    StftConfig,
    base_loss,
    composite_loss,
    enh_loss,
    mc_loss,
    pit_loss,
)
from cxfilter.losses import best_permutation
from conftest import rand_spec

GRID = StftConfig(16, 4, 16, 8000)


def brute_force_pit(ests, refs):
    """Independent enumerator: recompute every pairing from scratch."""
    count = len(refs)
    best = (None, np.inf)
    for perm in itertools.permutations(range(count)):
        total = 0.0
        for c in range(count):
            d = ests[perm[c]].data - refs[c].data
            mag = np.abs(np.abs(ests[perm[c]].data) - np.abs(refs[c].data))
            total += float(
                (np.abs(d.real).sum() + np.abs(d.imag).sum() + mag.sum())
                / (3 * d.size)
            )
        if total < best[1]:
            best = (perm, total)
    return best


class TestBaseLoss:
    def test_identity_zero(self, rng):
        spec = rand_spec(rng, 8, GRID)
        assert base_loss(spec, spec) == 0.0

    def test_closed_form_single_unit(self):
        cfg = StftConfig(2, 1, 2, 8000)  # bins == 2; use a 1x2 grid
        ref = ComplexSpectrogram(np.array([[1.0 + 0j, 0.6 + 0.8j]]), cfg)
        est = ComplexSpectrogram(np.zeros((1, 2), complex), cfg)
        # Per unit: |Re| + |Im| + |mag|; summed then / (3 * 2 units).
        want = ((1.0 + 0.0 + 1.0) + (0.6 + 0.8 + 1.0)) / 6.0
        assert base_loss(est, ref) == pytest.approx(want, abs=1e-12)

    def test_sign_symmetry(self, rng):
        ref = rand_spec(rng, 6, GRID)
        neg = ComplexSpectrogram(-ref.data, GRID)
        assert base_loss(neg, ref) == pytest.approx(base_loss(ref, neg), abs=1e-15)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            base_loss(rand_spec(rng, 4, GRID), rand_spec(rng, 5, GRID))


class TestPitLoss:
    def test_identity(self, rng):
        refs = [rand_spec(rng, 6, GRID) for _ in range(3)]
        out = pit_loss(refs, refs)
        assert out.total == 0.0
        assert out.permutation == (0, 1, 2)

    def test_swap_detected(self, rng):
        refs = [rand_spec(rng, 6, GRID) for _ in range(2)]
        out = pit_loss(refs[::-1], refs)
        assert out.total == 0.0
        assert out.permutation == (1, 0)

    def test_matches_brute_force_c3(self, rng):
        for _ in range(25):
            ests = [rand_spec(rng, 5, GRID) for _ in range(3)]
            refs = [rand_spec(rng, 5, GRID) for _ in range(3)]
            got = pit_loss(ests, refs)
            perm, total = brute_force_pit(ests, refs)
            assert got.permutation == perm
            assert got.total == pytest.approx(total, abs=1e-12)

    def test_value_invariant_under_estimate_reordering(self, rng):
        ests = [rand_spec(rng, 5, GRID) for _ in range(3)]
        refs = [rand_spec(rng, 5, GRID) for _ in range(3)]
        base = pit_loss(ests, refs).total
        for perm in itertools.permutations(range(3)):
            shuffled = [ests[p] for p in perm]
            assert pit_loss(shuffled, refs).total == pytest.approx(base, abs=1e-12)

    def test_breakdown_sums_to_total(self, rng):
        ests = [rand_spec(rng, 5, GRID) for _ in range(3)]
        refs = [rand_spec(rng, 5, GRID) for _ in range(3)]
        out = pit_loss(ests, refs)
        assert sum(out.per_term.values()) == pytest.approx(out.total, abs=1e-9)

    def test_count_mismatch_and_cap(self, rng):
        refs = [rand_spec(rng, 4, GRID) for _ in range(2)]
        with pytest.raises(ValueError):
            pit_loss(refs[:1], refs)
        nine = [rand_spec(rng, 2, GRID) for _ in range(9)]
        with pytest.raises(ValueError):
            pit_loss(nine, nine)


class TestBestPermutation:
    def test_ties_go_to_lexicographically_smallest(self):
        assert best_permutation(np.zeros((3, 3))) == (0, 1, 2)
        # (1, 2, 0) and (2, 0, 1) both cost 0.
        assert best_permutation(np.eye(3)) == (1, 2, 0)


class TestMcLoss:
    def test_consistent_estimates(self, rng):
        parts = [rand_spec(rng, 6, GRID) for _ in range(3)]
        mix = ComplexSpectrogram(sum(p.data for p in parts), GRID)
        assert mc_loss(parts, mix) == pytest.approx(0.0, abs=1e-12)

    def test_single_estimate_equals_mixture(self, rng):
        mix = rand_spec(rng, 6, GRID)
        assert mc_loss([mix], mix) == 0.0

    def test_invariant_to_ordering(self, rng):
        parts = [rand_spec(rng, 6, GRID) for _ in range(3)]
        mix = rand_spec(rng, 6, GRID)
        assert mc_loss(parts, mix) == pytest.approx(
            mc_loss(parts[::-1], mix), abs=1e-12
        )


class TestEnhLoss:
    def test_identity(self, rng):
        refs = [rand_spec(rng, 5, GRID) for _ in range(2)]
        assert enh_loss(refs, refs, (0, 1)) == 0.0

    def test_pit_optimal_permutation_reproduces_pit_total(self, rng):
        ests = [rand_spec(rng, 5, GRID) for _ in range(3)]
        refs = [rand_spec(rng, 5, GRID) for _ in range(3)]
        out = pit_loss(ests, refs)
        assert enh_loss(ests, refs, out.permutation) == pytest.approx(
            out.total, abs=1e-12
        )

    def test_pit_lower_bounds_every_fixed_permutation(self, rng):
        ests = [rand_spec(rng, 5, GRID) for _ in range(3)]
        refs = [rand_spec(rng, 5, GRID) for _ in range(3)]
        total = pit_loss(ests, refs).total
        for perm in itertools.permutations(range(3)):
            assert total <= enh_loss(ests, refs, perm) + 1e-12

    def test_wrong_permutation_on_disjoint_signals(self):
        cfg = StftConfig(8, 2, 8, 8000)
        a = np.zeros((4, cfg.bins), complex)
        b = np.zeros((4, cfg.bins), complex)
        a[:, 0] = 1.0
        b[:, 3] = 1.0
        refs = [ComplexSpectrogram(a, cfg), ComplexSpectrogram(b, cfg)]
        assert enh_loss(refs, refs, (1, 0)) > pit_loss(refs, refs).total

    def test_invalid_permutation_rejected(self, rng):
        refs = [rand_spec(rng, 4, GRID) for _ in range(2)]
        with pytest.raises(ValueError):
            enh_loss(refs, refs, (0, 0))
        with pytest.raises(ValueError):
            enh_loss(refs, refs, (0, 2))


class TestCompositeLoss:
    def _fixture(self, rng, count=2):
        ref_r = [rand_spec(rng, 5, GRID) for _ in range(count)]
        ref_a = [rand_spec(rng, 5, GRID) for _ in range(count)]
        mix = ComplexSpectrogram(sum(r.data for r in ref_r), GRID)
        return ref_r, ref_a, mix

    def test_exact_estimates_zero(self, rng):
        ref_r, ref_a, mix = self._fixture(rng)
        out = composite_loss("stage1", ref_r, ref_a, ref_r, ref_a, mix)
        assert out.total == pytest.approx(0.0, abs=1e-12)
        out2 = composite_loss(
            "stage2", ref_r, ref_a, ref_r, ref_a, mix, permutation=(0, 1)
        )
        assert out2.total == pytest.approx(0.0, abs=1e-12)

    def test_additivity_when_one_stream_exact(self, rng):
        ref_r, ref_a, mix = self._fixture(rng)
        zeros = [
            ComplexSpectrogram(np.zeros_like(r.data), GRID) for r in ref_a
        ]
        out = composite_loss("stage1", ref_r, zeros, ref_r, ref_a, mix)
        assert out.per_term["pit_reverberant"] == pytest.approx(0.0, abs=1e-12)
        assert out.per_term["mc_reverberant"] == pytest.approx(0.0, abs=1e-12)
        anechoic = out.per_term["pit_anechoic"] + out.per_term["mc_anechoic"]
        assert out.total == pytest.approx(anechoic, abs=1e-9)

    def test_shared_permutation_bounds(self, rng):
        # The shared permutation can only do as well as each stream's own
        # optimum: joint matched total >= max of independent PIT totals.
        for _ in range(10):
            est_r = [rand_spec(rng, 4, GRID) for _ in range(2)]
            est_a = [rand_spec(rng, 4, GRID) for _ in range(2)]
            ref_r = [rand_spec(rng, 4, GRID) for _ in range(2)]
            ref_a = [rand_spec(rng, 4, GRID) for _ in range(2)]
            mix = rand_spec(rng, 4, GRID)
            out = composite_loss("stage1", est_r, est_a, ref_r, ref_a, mix)
            matched = out.per_term["pit_reverberant"] + out.per_term["pit_anechoic"]
            lo = max(pit_loss(est_r, ref_r).total, pit_loss(est_a, ref_a).total)
            assert matched >= lo - 1e-12

    def test_stage2_resolves_like_stage1_when_unset(self, rng):
        est_r = [rand_spec(rng, 5, GRID) for _ in range(2)]
        est_a = [rand_spec(rng, 5, GRID) for _ in range(2)]
        ref_r, ref_a, mix = self._fixture(rng)
        s1 = composite_loss("stage1", est_r, est_a, ref_r, ref_a, mix)
        s2 = composite_loss("stage2", est_r, est_a, ref_r, ref_a, mix)
        assert s2.permutation == s1.permutation

    def test_bad_stage_rejected(self, rng):
        ref_r, ref_a, mix = self._fixture(rng)
        with pytest.raises(ValueError):
            composite_loss("stage3", ref_r, ref_a, ref_r, ref_a, mix)


class TestPinnedTotals:
    """Exact totals on one seeded 3-speaker input; any change to the
    summation order of a loss moves a bit here."""

    @pytest.fixture
    def inputs(self):
        rng = np.random.default_rng(2024)
        streams = [[rand_spec(rng, 5, GRID) for _ in range(3)] for _ in range(4)]
        return (*streams, rand_spec(rng, 5, GRID))

    def test_pit_enh_mc(self, inputs):
        est_r, _, ref_r, _, mix = inputs
        out = pit_loss(est_r, ref_r)
        assert out.total == 2.951737754977639
        assert out.permutation == (0, 2, 1)
        assert enh_loss(est_r, ref_r, (2, 0, 1)) == 3.0894870541314665
        assert mc_loss(est_r, mix) == 1.5125178727082085

    def test_composite_stages(self, inputs):
        est_r, est_a, ref_r, ref_a, mix = inputs
        stage1 = composite_loss("stage1", est_r, est_a, ref_r, ref_a, mix)
        assert stage1.total == 9.479342455820586
        assert stage1.permutation == (0, 2, 1)
        stage2 = composite_loss(
            "stage2", est_r, est_a, ref_r, ref_a, mix, permutation=(1, 2, 0)
        )
        assert stage2.total == 9.502074881423615


class TestLossValue:
    def test_breakdown_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LossValue(total=1.0, per_term={"a": 0.2, "b": 0.3})

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            LossValue(total=-0.1)
