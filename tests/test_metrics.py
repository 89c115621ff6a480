"""Evaluation metrics: SI-SDR, low-energy variant, sweeps, scene reports."""

import csv
import math

import numpy as np
import pytest

from cxfilter import (
    ComplexSpectrogram,
    MetricsReport,
    QuantileSweep,
    SceneSpec,
    StftConfig,
    evaluate_scene,
    low_energy_mask,
    quantile_sweep,
    si_sdr,
    si_sdr_le,
    simulate_scene,
)
from cxfilter import metrics
from cxfilter.metrics import SI_SDR_CAP_DB, SI_SDR_FLOOR_DB, _nearest_rank_threshold
from conftest import count_calls


class TestSiSdr:
    def test_scaled_copy_hits_cap(self, rng):
        ref = rng.standard_normal(200)
        assert si_sdr(3.0 * ref, ref) == SI_SDR_CAP_DB
        assert si_sdr(-ref, ref) == SI_SDR_CAP_DB

    def test_orthogonal_estimate_hits_floor(self):
        ref = np.array([1.0, 0.0, 1.0, 0.0])
        est = np.array([0.0, 1.0, 0.0, -1.0])
        assert si_sdr(est, ref) == SI_SDR_FLOOR_DB

    def test_zero_estimate_hits_floor(self, rng):
        ref = rng.standard_normal(50)
        assert si_sdr(np.zeros(50), ref) == SI_SDR_FLOOR_DB

    def test_closed_form_two_sample(self):
        # est = ref + orthogonal error of size e: value is -20 log10 e.
        ref = np.array([1.0, 0.0])
        est = np.array([1.0, 1e-3])
        assert si_sdr(est, ref) == pytest.approx(60.0, abs=1e-9)

    def test_scale_invariance(self, rng):
        ref = rng.standard_normal(400)
        est = ref + 0.1 * rng.standard_normal(400)
        base = si_sdr(est, ref)
        for beta in (0.1, 1.0, 10.0):
            assert si_sdr(beta * est, ref) == pytest.approx(base, abs=1e-6)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            si_sdr(np.ones(8), np.zeros(8))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            si_sdr(rng.standard_normal(9), rng.standard_normal(8))
        with pytest.raises(ValueError):
            si_sdr(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)))


class TestLowEnergyMask:
    CFG = StftConfig(2, 1, 2, 8000)  # two bins, tiny frames

    def _spec(self, energies):
        mags = np.sqrt(np.asarray(energies, dtype=np.float64))
        return ComplexSpectrogram(mags.astype(complex), self.CFG)

    def test_nearest_rank_threshold(self):
        energies = np.array([4.0, 0.0, 1.0, 2.0, 1.0, 3.0])
        # Sorted: 0 1 1 2 3 4.  rank = ceil(q * 6).
        assert _nearest_rank_threshold(energies, 0.5) == 1.0
        assert _nearest_rank_threshold(energies, 0.51) == 2.0
        assert _nearest_rank_threshold(energies, 1.0) == 4.0
        assert _nearest_rank_threshold(energies, 1e-9) == 0.0

    def test_nearest_rank_threshold_matches_sorted_oracle(self, rng):
        # Few distinct values, so most ranks fall inside a run of ties.
        energies = rng.integers(0, 7, size=(37, 9)).astype(np.float64) ** 2
        ordered = np.sort(energies.ravel())
        for q in (1e-12, 0.01, 0.25, 0.5, 0.777, 0.9, 1.0):
            rank = math.ceil(q * energies.size)
            assert _nearest_rank_threshold(energies, q) == ordered[rank - 1]

    def test_hand_fixture_median(self):
        spec = self._spec([[0.0, 1.0], [1.0, 2.0], [3.0, 4.0]])
        mask = low_energy_mask(spec, 0.5)
        want = np.array([[True, True], [True, False], [False, False]])
        assert np.array_equal(mask, want)

    def test_ties_at_threshold_survive(self):
        spec = self._spec([[1.0, 1.0], [1.0, 4.0], [5.0, 6.0]])
        mask = low_energy_mask(spec, 1.0 / 6.0)
        assert mask.sum() == 3  # all three tied minima kept
        assert np.array_equal(mask, np.array([[1, 1], [1, 0], [0, 0]], bool))

    def test_full_quantile_keeps_everything(self, rng):
        from conftest import rand_spec

        spec = rand_spec(rng, 5, StftConfig(16, 4, 16, 8000))
        assert low_energy_mask(spec, 1.0).all()

    def test_bad_quantile_rejected(self):
        spec = self._spec([[1.0, 2.0]])
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                low_energy_mask(spec, q)


class TestSiSdrLe:
    def _signals(self, rng, n=4000, sigma=0.1):
        ref = rng.standard_normal(n)
        return ref + sigma * rng.standard_normal(n), ref

    def test_full_quantile_matches_si_sdr(self, rng):
        est, ref = self._signals(rng)
        assert si_sdr_le(est, ref, 1.0) == pytest.approx(si_sdr(est, ref), abs=0.1)

    def test_perfect_estimate_capped_everywhere(self, rng):
        _, ref = self._signals(rng)
        for q in (0.1, 0.5, 0.9, 1.0):
            assert si_sdr_le(ref, ref, q) == SI_SDR_CAP_DB

    def test_monotone_in_fidelity(self, rng):
        ref = rng.standard_normal(4000)
        noise = rng.standard_normal(4000)
        scores = [si_sdr_le(ref + s * noise, ref, 0.5) for s in (0.01, 0.1, 1.0)]
        assert scores[0] > scores[1] > scores[2]

    def test_rejects_bad_inputs(self, rng):
        est, ref = self._signals(rng, n=512)
        with pytest.raises(ValueError):
            si_sdr_le(est[:-1], ref, 0.5)


class TestAnalysisMemo:
    QUANTILES = (0.1, 0.5, 0.9, 1.0)

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        metrics._ANALYSES.clear()
        yield
        metrics._ANALYSES.clear()

    def _cold(self, est, ref, q):
        metrics._ANALYSES.clear()
        return si_sdr_le(est, ref, q)

    def _signals(self, rng, n=3000):
        ref = rng.standard_normal(n)
        return ref + 0.2 * rng.standard_normal(n), ref

    def test_scores_match_cold_calls(self, rng):
        est, ref = self._signals(rng)
        warm = [si_sdr_le(est, ref, q) for q in self.QUANTILES]
        cold = [self._cold(est, ref, q) for q in self.QUANTILES]
        assert warm == cold

    def test_in_place_change_gives_fresh_score(self, rng):
        est, ref = self._signals(rng)
        before = si_sdr_le(est, ref, 0.5)
        est[::3] = 0.0
        after = si_sdr_le(est, ref, 0.5)
        assert after != before
        assert after == self._cold(est, ref, 0.5)

    @pytest.mark.parametrize("speakers", (1, 3))
    def test_evaluate_scene_analyses_each_pair_once(self, monkeypatch, speakers):
        scene = simulate_scene(
            SceneSpec(num_speakers=speakers, duration_s=0.5, t60_s=0.2, seed=17)
        )
        noise = np.random.default_rng(5).standard_normal(scene.mixture.shape)
        estimates = [img + 0.1 * noise for img in scene.reverberant_image]
        stft_calls = count_calls(monkeypatch, metrics, "stft")
        le_calls = count_calls(monkeypatch, metrics, "si_sdr_le")
        evaluate_scene(estimates, scene, quantiles=self.QUANTILES)
        assert len(stft_calls) == 2 * speakers
        assert len(le_calls) == speakers * len(self.QUANTILES)

    def test_sweep_keeps_the_reference_across_systems(self, rng, monkeypatch):
        ref = rng.standard_normal(3000)
        systems = {name: ref + rng.standard_normal(3000) for name in "abc"}
        stft_calls = count_calls(monkeypatch, metrics, "stft")
        quantile_sweep(systems, ref, self.QUANTILES)
        assert len(stft_calls) == 1 + len(systems)


class TestQuantileSweep:
    QUANTILES = (0.25, 0.5, 0.75)

    def _sweep(self, rng):
        ref = rng.standard_normal(4000)
        systems = {
            "good": ref + 0.01 * rng.standard_normal(4000),
            "bad": ref + 0.5 * rng.standard_normal(4000),
        }
        return quantile_sweep(systems, ref, self.QUANTILES)

    def test_identical_systems_zero_improvement(self, rng):
        ref = rng.standard_normal(4000)
        est = ref + 0.1 * rng.standard_normal(4000)
        out = quantile_sweep({"a": est, "b": est.copy()}, ref, self.QUANTILES)
        assert out.values["a"] == out.values["b"]
        assert all(v == 0.0 for v in out.improvements[("a", "b")])

    def test_improvements_are_ordered_pairs(self, rng):
        out = self._sweep(rng)
        assert set(out.improvements) == {("good", "bad"), ("bad", "good")}
        for va, vb in zip(out.improvements[("good", "bad")],
                          out.improvements[("bad", "good")]):
            assert va == pytest.approx(-vb, abs=1e-12)
        assert all(v > 0 for v in out.improvements[("good", "bad")])

    def test_csv_schemas(self, rng, tmp_path):
        out = self._sweep(rng)
        vals = tmp_path / "values.csv"
        imps = tmp_path / "improvements.csv"
        out.write_values_csv(vals)
        out.write_improvements_csv(imps)
        with open(vals, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["system", "quantile", "si_sdr_le_db"]
        assert len(rows) == 1 + 2 * len(self.QUANTILES)
        assert float(rows[1][1]) == 0.25
        with open(imps, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["system_a", "system_b", "quantile", "delta_db"]
        assert len(rows) == 1 + 2 * len(self.QUANTILES)

    def test_to_dict_round_trips_through_json(self, rng, tmp_path):
        import json

        out = self._sweep(rng)
        blob = json.dumps(out.to_dict())
        assert json.loads(blob)["quantiles"] == [0.25, 0.5, 0.75]

    def test_empty_and_unsorted_rejected(self, rng):
        with pytest.raises(ValueError):
            quantile_sweep({}, rng.standard_normal(4000), self.QUANTILES)
        with pytest.raises(ValueError):
            QuantileSweep(quantiles=(0.5, 0.25), values={})


class TestEvaluateScene:
    def test_true_images_score_at_cap(self, small_scene):
        report = evaluate_scene(list(small_scene.reverberant_image), small_scene)
        assert report.permutation == (0, 1)
        for entry in report.per_speaker:
            assert entry["si_sdr_db"] == SI_SDR_CAP_DB
        assert report.mean["si_sdr_db"] == SI_SDR_CAP_DB

    def test_swapped_estimates_resolved(self, small_scene):
        ests = [small_scene.reverberant_image[1], small_scene.reverberant_image[0]]
        report = evaluate_scene(ests, small_scene)
        assert report.permutation == (1, 0)
        assert report.mean["si_sdr_db"] == SI_SDR_CAP_DB

    def test_quantile_entries_present(self, small_scene):
        report = evaluate_scene(
            list(small_scene.reverberant_image), small_scene, quantiles=(0.5,)
        )
        for entry in report.per_speaker:
            assert entry["si_sdr_le_db"][0.5] == SI_SDR_CAP_DB
        assert report.config["quantiles"] == [0.5]
        assert report.to_dict()["mean"]["si_sdr_le_db"][0.5] == SI_SDR_CAP_DB

    def test_mixture_as_every_estimate(self, small_scene):
        ests = [small_scene.mixture, small_scene.mixture.copy()]
        report = evaluate_scene(ests, small_scene)
        assert report.permutation == (0, 1)  # lexicographic tie-break
        for entry in report.per_speaker:
            assert entry["si_sdr_db"] < SI_SDR_CAP_DB

    def test_count_and_length_mismatches(self, small_scene):
        with pytest.raises(ValueError):
            evaluate_scene([small_scene.mixture], small_scene)
        short = [e[:-1] for e in small_scene.reverberant_image]
        with pytest.raises(ValueError):
            evaluate_scene(short, small_scene)


class TestMetricsReport:
    def test_mean_consistency_enforced(self):
        with pytest.raises(ValueError):
            MetricsReport(
                per_speaker=({"si_sdr_db": 1.0}, {"si_sdr_db": 3.0}),
                mean={"si_sdr_db": 5.0},
                permutation=(0, 1),
            )

    def test_valid_report_accepted(self):
        report = MetricsReport(
            per_speaker=({"si_sdr_db": 1.0}, {"si_sdr_db": 3.0}),
            mean={"si_sdr_db": 2.0},
            permutation=(0, 1),
        )
        assert report.to_dict()["permutation"] == [0, 1]
