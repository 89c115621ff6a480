"""Scene synthesis: RIR model, convolution, mixture accounting,
serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.io import wavfile
from scipy.signal import fftconvolve

from cxfilter import (
    Scene,
    SceneSpec,
    generate_rir,
    load_scene,
    render_scene,
    save_scene,
    simulate_scene,
    synthesize_dry_sources,
)
from cxfilter.io import config_from_dict, config_to_dict, write_wav
from cxfilter.scenes import _fftconvolve, _smooth_length


def tail_energy(rir):
    tail = rir.taps[rir.direct_delay_samples + 1 :]
    return float(np.sum(tail**2))


class TestGenerateRir:
    def test_anechoic_limit(self):
        rir = generate_rir(0.3, 5, np.inf, np.random.default_rng(0))
        assert rir.taps[5] == 1.0
        assert np.count_nonzero(rir.taps) == 1

    def test_direct_impulse_and_preceding_zeros(self):
        rir = generate_rir(0.3, 11, 0.0, np.random.default_rng(1))
        assert rir.taps[11] == 1.0
        assert np.all(rir.taps[:11] == 0)

    def test_decay_definition(self):
        # The amplitude envelope is exp(-3 ln10 t / t60): energy at t60 is
        # 60 dB below t=0.  Integrated tail energy beyond t60 relative to
        # the total is the envelope-integral ratio; check the realized
        # noise tail against the analytic value loosely.
        t60, fs = 0.3, 8000
        rir = generate_rir(t60, 0, 0.0, np.random.default_rng(2), fs)
        tail = rir.taps[1:]
        cut = int(t60 * fs)
        beyond = float(np.sum(tail[cut:] ** 2))
        total = float(np.sum(tail**2))
        # Analytic ratio: int_{t60}^{1.5 t60} e^(-2at) dt / int_0^{1.5 t60},
        # a = 3 ln10 / t60 -> approximately e^(-6 ln10) = 1e-6.
        assert beyond / total < 1e-5
        envelope = np.exp(-3.0 * math.log(10.0) * np.arange(tail.size) / (t60 * fs))
        assert envelope[cut] ** 2 == pytest.approx(1e-6, rel=1e-9)

    def test_exact_drr_scaling(self):
        for drr in (-5.0, 0.0, 3.0):
            rir = generate_rir(0.25, 3, drr, np.random.default_rng(7))
            measured = 10.0 * math.log10(1.0 / tail_energy(rir))
            assert measured == pytest.approx(drr, abs=1e-9)

    def test_determinism(self):
        a = generate_rir(0.3, 5, 0.0, np.random.default_rng(42))
        b = generate_rir(0.3, 5, 0.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a.taps, b.taps)

    def test_length_covers_t60(self):
        rir = generate_rir(0.4, 0, 0.0, np.random.default_rng(3), 8000)
        assert rir.taps.size >= int(0.4 * 8000)

    def test_nonpositive_t60_rejected(self):
        with pytest.raises(ValueError):
            generate_rir(0.0, 0, 0.0, np.random.default_rng(0))

    def test_infinite_t60_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            generate_rir(math.inf, 0, 0.0, np.random.default_rng(0))


def _primes(limit: int) -> list:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


# Full convolution lengths up to a 10 s scene plus a long tail: 1, primes,
# 5-smooth lengths (transformed as they are) and one more (the next
# 5-smooth length is the farthest above), and anything between.
_LONGEST = 100_000
_SMOOTH = sorted(
    2**i * 3**j * 5**k
    for i in range(17)
    for j in range(11)
    for k in range(8)
    if 2**i * 3**j * 5**k <= _LONGEST
)
_FULL_LENGTHS = st.one_of(
    st.just(1),
    st.sampled_from(_primes(_LONGEST)),
    st.sampled_from(_SMOOTH),
    st.sampled_from(_SMOOTH[:-1]).map(lambda n: n + 1),
    st.integers(1, _LONGEST),
)


class TestConvolutionOracle:
    """Scene rendering's convolution against ``scipy.signal.fftconvolve``."""

    def test_length_is_next_fast_len(self):
        lengths = [*range(1, 30_001), *_SMOOTH, *(n + 1 for n in _SMOOTH), 480_007]
        assert [_smooth_length(n) for n in lengths] == [
            next_fast_len(n, real=True) for n in lengths
        ]

    @settings(max_examples=60, deadline=None, database=None)
    @given(full=_FULL_LENGTHS, split=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_fftconvolve_bits_are_scipys(self, full, split, seed):
        # a.size + b.size - 1 == full, with either side as short as 1.
        size = 1 + round(split * (full - 1))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(size)
        b = rng.standard_normal(full + 1 - size)
        got, want = _fftconvolve(a, b), fftconvolve(a, b)
        assert got.shape == want.shape == (full,)
        assert got.tobytes() == want.tobytes()


class TestRenderScene:
    def test_degenerate_scene_is_delayed_source(self, rng):
        spec = SceneSpec(
            num_speakers=1,
            duration_s=0.5,
            drr_db=np.inf,
            noise_snr_db=np.inf,
            seed=0,
        )
        src = rng.standard_normal(spec.num_samples)
        scene = render_scene([src], spec, np.random.default_rng(5))
        delay = scene.rirs[0].direct_delay_samples
        np.testing.assert_allclose(
            scene.mixture[delay:], src[: src.size - delay], atol=1e-12
        )
        np.testing.assert_array_equal(scene.mixture, scene.direct_path[0])

    def test_mixture_accounting_identity(self, small_scene):
        resid = (
            small_scene.mixture
            - np.sum(small_scene.reverberant_image, axis=0)
            - small_scene.noise
        )
        assert np.max(np.abs(resid)) <= 1e-10

    def test_noise_snr_exact(self, small_scene):
        images = np.sum(small_scene.reverberant_image, axis=0)
        snr = 10.0 * math.log10(
            float(np.sum(images**2)) / float(np.sum(small_scene.noise**2))
        )
        assert snr == pytest.approx(small_scene.spec.noise_snr_db, abs=1e-9)

    def test_speaker_gains_control_energy_order(self):
        spec = SceneSpec(
            num_speakers=2,
            duration_s=1.0,
            speaker_gains_db=(0.0, -6.0),
            seed=11,
        )
        scene = simulate_scene(spec)
        e = [float(np.sum(d**2)) for d in scene.direct_path]
        assert e[0] > e[1]
        assert 10.0 * math.log10(e[0] / e[1]) == pytest.approx(6.0, abs=1.0)

    def test_empty_sources_rejected(self):
        spec = SceneSpec(num_speakers=1, duration_s=0.5)
        with pytest.raises(ValueError):
            render_scene([], spec, np.random.default_rng(0))

    def test_source_count_mismatch_rejected(self, rng):
        spec = SceneSpec(num_speakers=2, duration_s=0.5)
        with pytest.raises(ValueError):
            render_scene([rng.standard_normal(4000)], spec, np.random.default_rng(0))


class TestSimulateScene:
    def test_bit_identical_given_seed(self):
        spec = SceneSpec(num_speakers=2, duration_s=0.8, seed=77)
        a, b = simulate_scene(spec), simulate_scene(spec)
        np.testing.assert_array_equal(a.mixture, b.mixture)
        np.testing.assert_array_equal(a.noise, b.noise)
        for c in range(2):
            np.testing.assert_array_equal(a.direct_path[c], b.direct_path[c])
            np.testing.assert_array_equal(
                a.reverberant_image[c], b.reverberant_image[c]
            )

    def test_seed_changes_scene(self):
        a = simulate_scene(SceneSpec(duration_s=0.5, seed=1))
        b = simulate_scene(SceneSpec(duration_s=0.5, seed=2))
        assert np.max(np.abs(a.mixture - b.mixture)) > 1e-3

    def test_dry_sources_unit_rms(self, rng):
        spec = SceneSpec(num_speakers=3, duration_s=1.0, seed=5)
        sources = synthesize_dry_sources(spec, np.random.default_rng(5))
        for src in sources:
            assert float(np.sqrt(np.mean(src**2))) == pytest.approx(1.0, abs=1e-6)

    def test_three_speakers_supported(self):
        scene = simulate_scene(SceneSpec(num_speakers=3, duration_s=0.5, seed=9))
        assert scene.num_speakers == 3
        resid = (
            scene.mixture - np.sum(scene.reverberant_image, axis=0) - scene.noise
        )
        assert np.max(np.abs(resid)) <= 1e-10


class TestSceneSerialization:
    def test_round_trip_float32_exact(self, tmp_path, small_scene):
        save_scene(small_scene, tmp_path / "sc")
        loaded = load_scene(tmp_path / "sc")
        np.testing.assert_array_equal(
            loaded.mixture, small_scene.mixture.astype(np.float32)
        )
        np.testing.assert_array_equal(
            loaded.noise, small_scene.noise.astype(np.float32)
        )
        for c in range(small_scene.num_speakers):
            np.testing.assert_array_equal(
                loaded.direct_path[c],
                small_scene.direct_path[c].astype(np.float32),
            )
            np.testing.assert_array_equal(
                loaded.reverberant_image[c],
                small_scene.reverberant_image[c].astype(np.float32),
            )

    def test_second_round_trip_idempotent(self, tmp_path, small_scene):
        save_scene(small_scene, tmp_path / "a")
        first = load_scene(tmp_path / "a")
        save_scene(first, tmp_path / "b")
        second = load_scene(tmp_path / "b")
        np.testing.assert_array_equal(first.mixture, second.mixture)

    def test_metadata_survives(self, tmp_path, small_scene):
        save_scene(small_scene, tmp_path / "sc")
        loaded = load_scene(tmp_path / "sc")
        assert loaded.spec == small_scene.spec
        assert loaded.spec.seed == small_scene.spec.seed

    def test_rirs_survive(self, tmp_path, small_scene):
        save_scene(small_scene, tmp_path / "sc")
        loaded = load_scene(tmp_path / "sc")
        assert loaded.rirs is not None
        for a, b in zip(loaded.rirs, small_scene.rirs):
            assert a.direct_delay_samples == b.direct_delay_samples
            np.testing.assert_array_equal(a.taps, b.taps.astype(np.float32))

    def test_missing_component_named(self, tmp_path, small_scene):
        save_scene(small_scene, tmp_path / "sc")
        (tmp_path / "sc" / "noise.wav").unlink()
        with pytest.raises(FileNotFoundError, match="noise"):
            load_scene(tmp_path / "sc")

    def test_component_length_must_match_mixture(self, tmp_path, small_scene):
        save_scene(small_scene, tmp_path / "sc")
        n = small_scene.num_samples
        write_wav(
            tmp_path / "sc" / "s1_image.wav",
            small_scene.reverberant_image[0][: n // 2],
            small_scene.spec.sample_rate_hz,
        )
        with pytest.raises(ValueError, match=rf"s1_image\.wav: {n // 2} .* {n}$"):
            load_scene(tmp_path / "sc")

    @pytest.mark.parametrize("dtype", [np.int16, np.int32], ids=["pcm16", "pcm32"])
    def test_pcm_components_are_rescaled(self, tmp_path, small_scene, rng, dtype):
        path = save_scene(small_scene, tmp_path / "sc")
        info = np.iinfo(dtype)
        scale = 2.0 ** (info.bits - 1)
        pcm = {}
        for name, file in json.loads(path.read_text())["files"].items():
            size = wavfile.read(tmp_path / "sc" / file)[1].size
            samples = rng.integers(info.min, info.max, size, dtype=dtype, endpoint=True)
            samples[:2] = info.min, info.max
            wavfile.write(tmp_path / "sc" / file, small_scene.spec.sample_rate_hz, samples)
            pcm[name] = samples / scale
        loaded = load_scene(tmp_path / "sc")
        np.testing.assert_array_equal(loaded.mixture, pcm["mixture"])
        np.testing.assert_array_equal(loaded.noise, pcm["noise"])
        for c in range(small_scene.num_speakers):
            np.testing.assert_array_equal(loaded.direct_path[c], pcm[f"s{c + 1}_direct"])
            np.testing.assert_array_equal(
                loaded.reverberant_image[c], pcm[f"s{c + 1}_image"]
            )
            np.testing.assert_array_equal(loaded.rirs[c].taps, pcm[f"s{c + 1}_rir"])
        assert loaded.mixture[:2].tolist() == [-1.0, 1.0 - 1.0 / scale]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scene(tmp_path / "empty")

    def test_manifest_missing_spec_key_named(self, tmp_path, small_scene):
        path = save_scene(small_scene, tmp_path / "sc")
        manifest = json.loads(path.read_text())
        del manifest["num_speakers"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="num_speakers"):
            load_scene(tmp_path / "sc")

    @pytest.mark.parametrize(
        "files",
        [None, ["mixture.wav"], {"mixture": 3}],
        ids=["absent", "list", "number"],
    )
    def test_manifest_files_must_be_an_object(self, tmp_path, small_scene, files):
        path = save_scene(small_scene, tmp_path / "sc")
        manifest = json.loads(path.read_text())
        if files is None:
            del manifest["files"]
        else:
            manifest["files"] = files
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="key files must be an object"):
            load_scene(tmp_path / "sc")

    @pytest.mark.parametrize(
        "delays",
        [[3], [3, 4, 5], 3, [True, 4], [3, 4.0]],
        ids=["short", "long", "int", "bool", "float"],
    )
    def test_rir_delays_must_be_one_per_speaker(self, tmp_path, small_scene, delays):
        path = save_scene(small_scene, tmp_path / "sc")
        manifest = json.loads(path.read_text())
        manifest["rir_direct_delays_samples"] = delays
        path.write_text(json.dumps(manifest))
        with pytest.raises(
            ValueError, match="rir_direct_delays_samples must list 2 delays"
        ):
            load_scene(tmp_path / "sc")

    def test_delays_are_rejected_before_a_list_per_speaker(
        self, tmp_path, small_scene
    ):
        path = save_scene(small_scene, tmp_path / "sc")
        manifest = json.loads(path.read_text())
        manifest["num_speakers"] = 10_000_000
        path.write_text(json.dumps(manifest))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="must list 10000000 delays"):
                load_scene(tmp_path / "sc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_manifest_without_gains_loads(self, tmp_path, small_scene):
        path = save_scene(small_scene, tmp_path / "sc")
        manifest = json.loads(path.read_text())
        del manifest["speaker_gains_db"]
        path.write_text(json.dumps(manifest))
        assert load_scene(tmp_path / "sc").spec.speaker_gains_db is None

    def test_loaded_scene_still_consistent(self, tmp_path, small_scene):
        # Float32 quantization leaves the accounting identity intact to
        # float32 resolution.
        save_scene(small_scene, tmp_path / "sc")
        loaded = load_scene(tmp_path / "sc")
        resid = (
            loaded.mixture
            - np.sum(loaded.reverberant_image, axis=0)
            - loaded.noise
        )
        assert np.max(np.abs(resid)) <= 1e-6


class TestSceneSpecValidation:
    def test_bad_counts(self):
        with pytest.raises(ValueError):
            SceneSpec(num_speakers=0)
        with pytest.raises(ValueError):
            SceneSpec(duration_s=0.0)
        with pytest.raises(ValueError):
            SceneSpec(num_speakers=2, speaker_gains_db=(0.0,))

    @pytest.mark.parametrize("name", ["duration_s", "t60_s", "drr_db", "noise_snr_db"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            SceneSpec(**{name: math.nan})

    @pytest.mark.parametrize(
        "fields",
        [
            {"t60_s": math.inf},
            {"t60_s": -math.inf},
            {"drr_db": -math.inf},
            {"noise_snr_db": -math.inf},
            {"num_speakers": 2, "speaker_gains_db": (0.0, math.nan)},
            {"num_speakers": 2, "speaker_gains_db": (math.inf, 0.0)},
        ],
        ids=["t60_inf", "t60_minus_inf", "drr_minus_inf", "noise_minus_inf",
             "gain_nan", "gain_inf"],
    )
    def test_value_without_a_rendering_rejected(self, fields):
        (name,) = [k for k in fields if k != "num_speakers"]
        with pytest.raises(ValueError, match=name):
            SceneSpec(**fields)

    def test_infinities_with_a_rendering_accepted(self):
        spec = SceneSpec(
            num_speakers=2,
            drr_db=math.inf,
            noise_snr_db=math.inf,
            speaker_gains_db=(0.0, -math.inf),
        )
        assert spec.speaker_gains_db == (0.0, -math.inf)

    def test_dict_round_trip_with_infinities(self):
        spec = SceneSpec(drr_db=np.inf, noise_snr_db=np.inf, seed=3)
        again = config_from_dict(SceneSpec, config_to_dict(spec))
        assert again == spec
