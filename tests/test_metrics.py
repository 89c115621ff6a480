"""Evaluation metrics: SI-SDR, low-energy variant, sweeps, scene reports."""

import csv
import math
import sys
import threading

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

# Quantile grids that are not strictly ascending within (0, 1].
BAD_GRIDS = [(0.5, 0.5), (0.9, 0.2), (0.0,), (1.5,)]
BAD_GRID_IDS = ["repeated", "descending", "zero", "above_one"]


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
        metrics._ANALYSES.entries.clear()
        yield
        metrics._ANALYSES.entries.clear()

    def _cold(self, est, ref, q):
        metrics._ANALYSES.entries.clear()
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
        for threads in (1, 3):  # each thread analyses its own pairs once
            metrics._ANALYSES.entries.clear()
            evaluate_scene(estimates, scene, self.QUANTILES, threads)
            assert len(stft_calls) == 2 * speakers
            assert len(le_calls) == speakers * len(self.QUANTILES)
            stft_calls.clear()
            le_calls.clear()

    @pytest.mark.parametrize("threads", (1, 2))
    def test_a_scored_scene_leaves_no_analyses_behind(self, monkeypatch, threads):
        # Each thread forgets its analyses as each speaker's sweep ends, so
        # none stays alive through the next scene's work.
        scene = simulate_scene(
            SceneSpec(num_speakers=3, duration_s=0.5, t60_s=0.2, seed=17)
        )
        noise = np.random.default_rng(5).standard_normal(scene.mixture.shape)
        estimates = [img + 0.1 * noise for img in scene.reverberant_image]
        left = []
        run_on_threads = metrics.run_on_threads

        def checked(task, items, count):
            def sweep(item):
                task(item)
                left.append(len(metrics._ANALYSES.entries))

            run_on_threads(sweep, items, count)

        monkeypatch.setattr(metrics, "run_on_threads", checked)
        evaluate_scene(estimates, scene, self.QUANTILES, threads)
        assert left == [0, 0, 0]
        assert metrics._ANALYSES.entries == []

    def test_threads_keep_their_own_analyses(self, rng, monkeypatch):
        # Two threads score different pairs in lockstep; each reuses its
        # own two analyses, so no score moves and no pair is re-analysed.
        pairs = [self._signals(rng) for _ in range(2)]
        serial = [[si_sdr_le(e, r, q) for q in self.QUANTILES] for e, r in pairs]
        stft_calls = count_calls(monkeypatch, metrics, "stft")
        barrier = threading.Barrier(2, timeout=60)
        scores = ([], [])

        def score(k):
            est, ref = pairs[k]
            for _ in range(20):
                barrier.wait()
                scores[k].append([si_sdr_le(est, ref, q) for q in self.QUANTILES])

        workers = [threading.Thread(target=score, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert scores == ([serial[0]] * 20, [serial[1]] * 20)
        assert len(stft_calls) == 2 * 2

    def test_sweep_keeps_the_reference_across_systems(self, rng, monkeypatch):
        ref = rng.standard_normal(3000)
        systems = {name: ref + rng.standard_normal(3000) for name in "abc"}
        stft_calls = count_calls(monkeypatch, metrics, "stft")
        quantile_sweep(systems, ref, self.QUANTILES)
        assert len(stft_calls) == 1 + len(systems)

    def test_sweep_leaves_no_analyses_behind(self, rng):
        ref = rng.standard_normal(3000)
        systems = {name: ref + rng.standard_normal(3000) for name in "ab"}
        quantile_sweep(systems, ref, self.QUANTILES)
        assert metrics._ANALYSES.entries == []


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

    def test_three_systems_are_exact_scores_and_differences(self, rng):
        ref = rng.standard_normal(4000)
        systems = {
            name: ref + scale * rng.standard_normal(4000)
            for name, scale in (("a", 0.05), ("b", 0.2), ("c", 0.8))
        }
        out = quantile_sweep(systems, ref, self.QUANTILES)
        want = {
            name: [si_sdr_le(est, ref, q) for q in self.QUANTILES]
            for name, est in systems.items()
        }
        for name in systems:
            assert list(out.values[name]) == want[name]
        assert len(out.improvements) == 6
        for (a, b), deltas in out.improvements.items():
            assert list(deltas) == [va - vb for va, vb in zip(want[a], want[b])]

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
        for quantiles in ((0.5, 0.25), (0.5, 0.5), (0.0,), (1.5,)):
            with pytest.raises(ValueError, match="strictly ascending"):
                QuantileSweep(quantiles=quantiles, tables={})

    @pytest.mark.parametrize("quantiles", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_bad_grid_is_rejected_before_scoring(self, monkeypatch, rng, quantiles):
        le_calls = count_calls(monkeypatch, metrics, "si_sdr_le")
        ref = rng.standard_normal(4000)
        with pytest.raises(ValueError, match="strictly ascending"):
            quantile_sweep({"a": ref, "b": ref}, ref, quantiles)
        assert le_calls == []


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

    @pytest.mark.parametrize("speakers", (1, 2, 3, 4))
    def test_mixture_as_every_estimate_scores_each_reference_in_order(
        self, speakers
    ):
        # eval's unprocessed system: identical columns give every
        # permutation one total, so the search keeps the first, the identity.
        scene = simulate_scene(
            SceneSpec(num_speakers=speakers, duration_s=0.5, t60_s=0.2, seed=13)
        )
        quantiles = (0.1, 0.5, 1.0)
        report = evaluate_scene([scene.mixture] * speakers, scene, quantiles)
        assert report.permutation == tuple(range(speakers))
        for entry, ref in zip(report.per_speaker, scene.reverberant_image):
            want = [si_sdr_le(scene.mixture, ref, q) for q in quantiles]
            assert list(entry["si_sdr_le_db"].values()) == want

    @pytest.mark.parametrize("quantiles", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_bad_grid_is_rejected_before_scoring(
        self, monkeypatch, small_scene, quantiles
    ):
        calls = [
            count_calls(monkeypatch, metrics, name) for name in ("si_sdr", "si_sdr_le")
        ]
        with pytest.raises(ValueError, match="strictly ascending"):
            evaluate_scene(list(small_scene.reverberant_image), small_scene, quantiles)
        assert calls == [[], []]

    @pytest.mark.parametrize("speakers", (1, 2, 4))
    @pytest.mark.parametrize("quantiles", ((), (0.1, 0.5, 0.9)), ids=("", "sweep"))
    def test_bits_do_not_depend_on_the_thread_count(self, speakers, quantiles):
        # One second is 8000 samples, below the 10^4 at which OpenBLAS
        # splits a dot product over its own threads.
        scene = simulate_scene(
            SceneSpec(num_speakers=speakers, duration_s=1.0, t60_s=0.3, seed=21)
        )
        noise = np.random.default_rng(3).standard_normal(scene.mixture.shape)
        estimates = [img + 0.3 * noise for img in scene.reverberant_image[::-1]]
        reports = {
            threads: repr(evaluate_scene(estimates, scene, quantiles, threads).to_dict())
            for threads in (1, 2, 3, 5)
        }
        assert set(reports.values()) == {reports[1]}

    @pytest.mark.parametrize("threads", [0, -3, 2.0, "2", True, None])
    def test_rejects_a_thread_count_before_scoring(
        self, monkeypatch, small_scene, threads
    ):
        calls = [
            count_calls(monkeypatch, metrics, name) for name in ("si_sdr", "si_sdr_le")
        ]
        estimates = list(small_scene.reverberant_image)
        with pytest.raises(ValueError, match="threads must be an int >= 1"):
            evaluate_scene(estimates, small_scene, (0.5,), threads)
        assert calls == [[], []]

    def test_count_and_length_mismatches(self, small_scene):
        with pytest.raises(ValueError):
            evaluate_scene([small_scene.mixture], small_scene)
        short = [e[:-1] for e in small_scene.reverberant_image]
        with pytest.raises(ValueError):
            evaluate_scene(short, small_scene)


class TestMetricsReport:
    def test_valid_report_accepted(self):
        report = MetricsReport(
            per_speaker=(
                {"si_sdr_db": 1.0, "si_sdr_le_db": {0.5: -2.0, 1.0: 4.0}},
                {"si_sdr_db": 3.0, "si_sdr_le_db": {0.5: 0.0, 1.0: 5.0}},
            ),
            permutation=(0, 1),
        )
        assert report.mean == {"si_sdr_db": 2.0, "si_sdr_le_db": {0.5: -1.0, 1.0: 4.5}}
        assert report.to_dict()["permutation"] == [0, 1]
        with pytest.raises(TypeError):
            MetricsReport(per_speaker=(), mean={}, permutation=())
