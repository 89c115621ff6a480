"""Property tests over drawn shapes: the FCP fit and its drivers, the
prediction stage under a relabelling of the speakers, exact recovery of
a known filter, the STFT round trip, the scale invariance
of SI-SDR, a whole-chain report that a power-of-two gain on every
scene signal leaves bit-identical, batch output bytes that do not depend
on ``jobs``, and the config codec's round trip and its rejection of a
wrongly typed field.

Spectrograms come from a drawn seed, with silent bins, silent frames and
negative zeros mixed in; the shapes cross the fit's 8-bin and 512-frame
tile edges.  A grid has at least two bins (even DFT sizes only).
"""

import dataclasses
import math
import re
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cxfilter import fcp as fcp_module
from cxfilter import (
    FILTER_STFT,
    SEPARATOR_STFT,
    ComplexSpectrogram,
    FcpConfig,
    Scene,
    SceneSpec,
    StftConfig,
    apply_filter,
    estimate_fcp_filter,
    fcp_essu_separate,
    fcp_separate,
    istft,
    si_sdr,
    simulate_scene,
    stft,
)
from cxfilter.experiment import (
    FCP_MODES,
    ExperimentConfig,
    SceneRanges,
    run_separation,
    run_simulation,
)
from cxfilter.io import config_from_dict, config_to_dict
from cxfilter.pipeline import (
    DEGRADATION_MODES,
    REFINEMENTS,
    DegradationSpec,
    SeparatorOutput,
    run_fcp_stage,
    run_pipeline,
)
from conftest import naive_istft, tree_bytes

seeds = st.integers(0, 2**32 - 1)


def _grid(bins: int) -> StftConfig:
    n = 2 * (bins - 1)
    return StftConfig(n, n // 2, n, 8000)


def _specs(seed: int, frames: int, bins: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    grid = _grid(bins)
    out = []
    for _ in range(count):
        data = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal(
            (frames, bins)
        )
        data[:, rng.random(bins) < 0.2] = 0.0
        data[rng.random(frames) < 0.1] = 0.0
        data.real[rng.random((frames, bins)) < 0.1] = -0.0
        out.append(ComplexSpectrogram(data, grid))
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(
    seed=seeds,
    bins=st.integers(2, 40),
    frames=st.integers(1, 1100),
    taps=st.integers(1, 12),
    per_freq_floor=st.booleans(),
    threads=st.integers(1, 8),
)
def test_threaded_fit_equals_serial_fit(
    seed, bins, frames, taps, per_freq_floor, threads
):
    target, s_hat = _specs(seed, frames, bins, 2)
    config = FcpConfig(taps=taps, stft=_grid(bins), per_freq_floor=per_freq_floor)
    serial = estimate_fcp_filter(target, s_hat, config)
    threaded = estimate_fcp_filter(target, s_hat, config, threads)
    assert np.array_equal(threaded, serial)
    assert _same_bits(threaded, serial)


@given(
    seed=seeds,
    bins=st.integers(2, 24),
    frames=st.integers(1, 300),
    taps=st.integers(1, 8),
)
def test_essu_equals_plain_fcp_for_one_speaker(seed, bins, frames, taps):
    mixture, s_hat = _specs(seed, frames, bins, 2)
    config = FcpConfig(taps=taps, stft=_grid(bins))
    (plain,) = fcp_separate(mixture, [s_hat], config)
    (essu,) = fcp_essu_separate(mixture, [s_hat], config)
    assert _same_bits(essu.data, plain.data)


relabellings = dict(
    data=st.data(),
    seed=seeds,
    speakers=st.integers(2, 4),
    bins=st.integers(2, 24),
    frames=st.integers(1, 300),
    taps=st.integers(1, 8),
)


def _check_relabelling(separate, data, seed, speakers, bins, frames, taps):
    mixture, *s_hats = _specs(seed, frames, bins, 1 + speakers)
    if separate is fcp_essu_separate:
        # Equal energies are fitted in speaker index order, which a
        # relabelling changes.
        assume(len({fcp_module._energy(s) for s in s_hats}) == speakers)
    order = data.draw(st.permutations(range(speakers)))
    config = FcpConfig(taps=taps, stft=_grid(bins))
    images = separate(mixture, s_hats, config)
    permuted = separate(mixture, [s_hats[c] for c in order], config)
    for i, c in enumerate(order):
        assert _same_bits(permuted[i].data, images[c].data)


@given(**relabellings)
def test_plain_fcp_is_invariant_to_speaker_order(
    data, seed, speakers, bins, frames, taps
):
    _check_relabelling(fcp_separate, data, seed, speakers, bins, frames, taps)


@given(**relabellings)
def test_essu_is_invariant_to_speaker_order(data, seed, speakers, bins, frames, taps):
    _check_relabelling(fcp_essu_separate, data, seed, speakers, bins, frames, taps)


@settings(max_examples=20)
@given(
    data=st.data(),
    seed=seeds,
    speakers=st.integers(2, 3),
    mode=st.sampled_from(["fcp", "essu"]),
    equal_grids=st.booleans(),
    taps=st.integers(1, 6),
    length=st.integers(1000, 4000),
)
def test_stage_relabelling_permutes_the_images(
    data, seed, speakers, mode, equal_grids, taps, length
):
    # Distinct gains keep the ESSU energies apart, so the fitting order
    # follows the speakers through a relabelling.
    rng = np.random.default_rng(seed)
    signals = [g * rng.standard_normal(length) for g in (1.0, 2.0, 3.0)[:speakers]]
    mixture = np.sum(signals, axis=0) + 0.1 * rng.standard_normal(length)
    grid = SEPARATOR_STFT if equal_grids else FILTER_STFT
    config = ExperimentConfig(fcp_mode=mode, fcp=FcpConfig(taps=taps, stft=grid))
    order = data.draw(st.permutations(range(speakers)))
    images = run_fcp_stage(mixture, SeparatorOutput(signals, signals), config)
    relabelled = [signals[c] for c in order]
    permuted = run_fcp_stage(mixture, SeparatorOutput(relabelled, relabelled), config)
    for i, c in enumerate(order):
        assert _same_bits(permuted[i], images[c])


@given(
    seed=seeds,
    bins=st.integers(2, 24),
    taps=st.integers(1, 8),
    extra_frames=st.integers(0, 700),
)
def test_fit_recovers_a_known_filter(seed, bins, taps, extra_frames):
    # A target that is exactly the known filter applied to the estimate
    # is fit without residual, whatever the weights, once no loading
    # biases the solve.  At least two frames per tap keep the normal
    # equations well conditioned (at one per tap the last tap sees a
    # single frame).
    rng = np.random.default_rng(seed)
    shape = (2 * taps + extra_frames, bins)
    s_hat = ComplexSpectrogram(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), _grid(bins)
    )
    known = rng.standard_normal((bins, taps)) + 1j * rng.standard_normal((bins, taps))
    target = apply_filter(known, s_hat)
    config = FcpConfig(taps=taps, stft=_grid(bins), diag_load_delta=0.0)
    fitted = estimate_fcp_filter(target, s_hat, config)
    assert np.max(np.abs(fitted - known)) <= 1e-8 * np.max(np.abs(known))


@given(
    seed=seeds,
    length=st.integers(1, 5000),
    grid=st.sampled_from([SEPARATOR_STFT, FILTER_STFT]),
)
def test_stft_round_trip_matches_the_frame_loop(seed, length, grid):
    signal = np.random.default_rng(seed).standard_normal(length)
    spec = stft(signal, grid)
    back = istft(spec, output_length=length)
    assert _same_bits(back, naive_istft(spec, length))
    assert np.max(np.abs(back - signal)) <= 1e-12


@given(
    seed=seeds,
    length=st.integers(2, 4000),
    exponent=st.floats(-6.0, 6.0),
    negative=st.booleans(),
)
def test_si_sdr_ignores_the_estimate_scale(seed, length, exponent, negative):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(length)
    est = ref + 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(length)
    scale = (-1.0 if negative else 1.0) * 10.0**exponent
    assert abs(si_sdr(scale * est, ref) - si_sdr(est, ref)) <= 1e-9


@settings(max_examples=3)
@given(
    speakers=st.integers(1, 3),
    duration=st.floats(0.5, 1.0),
    seed=seeds,
    exponent=st.integers(-30, 30).filter(bool),
)
@pytest.mark.parametrize("degraded", [False, True], ids=["oracle", "degraded"])
@pytest.mark.parametrize("fcp_mode", FCP_MODES)
def test_power_of_two_gain_leaves_the_report_bit_identical(
    fcp_mode, degraded, speakers, duration, seed, exponent
):
    # A power-of-two gain is exact in floating point, and every step is
    # homogeneous in the signals (the STFT, the weight floor, the trace-
    # scaled loading, noise at an SNR, SI-SDR), so no score moves a bit.
    scene = simulate_scene(
        SceneSpec(num_speakers=speakers, duration_s=duration, seed=seed)
    )
    gain = 2.0**exponent
    scaled = Scene(
        scene.mixture * gain,
        [s * gain for s in scene.direct_path],
        [s * gain for s in scene.reverberant_image],
        scene.noise * gain,
        scene.spec,
        scene.rirs,
    )
    degradation = DegradationSpec("combined", 10.0, 0.2) if degraded else None
    config = ExperimentConfig(
        fcp_mode=fcp_mode,
        degradation=degradation or DegradationSpec(),
        quantiles=(0.1, 0.5, 1.0),
    )
    reports = [run_pipeline(s, config)[1].to_dict() for s in (scene, scaled)]
    assert repr(reports[0]) == repr(reports[1])


@settings(max_examples=6)
@given(
    scenes=st.integers(1, 3),
    speakers=st.integers(1, 2),
    fcp_mode=st.sampled_from(FCP_MODES),
    seed=seeds,
    on_disk=st.booleans(),
)
def test_separation_bytes_do_not_depend_on_jobs(
    scenes, speakers, fcp_mode, seed, on_disk
):
    config = ExperimentConfig(
        seed=seed,
        num_scenes=scenes,
        scene=SceneRanges(num_speakers=speakers, duration_s=0.5),
        degradation=DegradationSpec(snr_db=10.0),
        fcp_mode=fcp_mode,
        quantiles=(0.5, 1.0),
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenes_dir = None
        if on_disk:
            scenes_dir = tmp / "scenes"
            run_simulation(config, scenes_dir)
        runs = []
        for jobs in (1, 2):
            out = tmp / f"jobs{jobs}"
            run_separation(config, out, scenes_dir=scenes_dir, jobs=jobs)
            runs.append(tree_bytes(out))
    assert len(runs[0]) == 1 + scenes * (2 + 2 * speakers)
    assert runs[0] == runs[1]


# Valid configs of every config class.  A range is drawn as two values
# put in order; an infinity appears wherever a class accepts one.
finite = st.floats(-1e6, 1e6)
up_to_inf = finite | st.just(math.inf)
ranges = st.tuples(up_to_inf, up_to_inf).map(sorted).map(tuple)
gains = finite | st.just(-math.inf)


@st.composite
def stft_configs(draw):
    hop = draw(st.integers(1, 64))
    window = hop * draw(st.integers(2, 8))
    dft = window + draw(st.integers(0, 64))
    return StftConfig(window, hop, dft + dft % 2, draw(st.integers(1, 48000)))


@st.composite
def scene_specs(draw):
    speakers = draw(st.integers(1, 4))
    rate = draw(st.integers(1, 48000))
    return SceneSpec(
        num_speakers=speakers,
        duration_s=draw(st.floats(1.0 / rate, 60.0)),
        t60_s=draw(st.floats(0.0, 10.0, exclude_min=True)),
        drr_db=draw(up_to_inf),
        noise_snr_db=draw(up_to_inf),
        seed=draw(st.integers(0, 2**63)),
        sample_rate_hz=rate,
        speaker_gains_db=draw(
            st.none() | st.lists(gains, min_size=speakers, max_size=speakers)
        ),
    )


fcp_configs = st.builds(
    FcpConfig,
    taps=st.integers(1, 64),
    epsilon=st.floats(0.0, exclude_min=True),
    diag_load_delta=st.floats(0.0),
    stft=stft_configs(),
    per_freq_floor=st.booleans(),
)
degradation_specs = st.builds(
    DegradationSpec,
    mode=st.sampled_from(DEGRADATION_MODES),
    snr_db=up_to_inf,
    cross_talk_fraction=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**63),
)
scene_ranges = st.builds(
    SceneRanges,
    num_speakers=st.integers(1, 8),
    duration_s=st.floats(0.0, 60.0, exclude_min=True),
    t60_range_s=ranges,
    drr_range_db=ranges,
    noise_snr_range_db=ranges,
    sample_rate_hz=st.integers(1, 48000),
    speaker_gains_db=st.none() | st.lists(gains, max_size=4).map(tuple),
)
# Only valid configs: external refinement needs an exchange directory
# unless FCP is off.
experiment_configs = st.builds(
    dict,
    seed=st.integers(0, 2**63),
    num_scenes=st.integers(1, 100),
    scene=scene_ranges,
    degradation=degradation_specs,
    fcp_mode=st.sampled_from(FCP_MODES),
    fcp=fcp_configs,
    iterations=st.integers(1, 5),
    refinement=st.sampled_from(REFINEMENTS),
    stft_dnn=stft_configs(),
    quantiles=st.lists(st.floats(0.0, 1.0, exclude_min=True), unique=True, max_size=4)
    .map(sorted)
    .map(tuple),
    external_dir=st.none() | st.text(max_size=8),
).filter(
    lambda kw: kw["external_dir"] is not None
    or kw["refinement"] != "external"
    or kw["fcp_mode"] == "off"
).map(lambda kw: ExperimentConfig(**kw))
CONFIGS = {
    StftConfig: stft_configs(),
    FcpConfig: fcp_configs,
    DegradationSpec: degradation_specs,
    SceneRanges: scene_ranges,
    SceneSpec: scene_specs(),
    ExperimentConfig: experiment_configs,
}
# A JSON value of each type.  No string reads "inf" or "-inf", which a
# float field takes as an infinity.
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-3, 3) | st.floats(-3.0, 3.0),
    "string": st.text(max_size=3).filter(lambda s: s not in ("inf", "-inf")),
    "array": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
}


def _json_types(hint) -> set:
    """The JSON types that a config field of type ``hint`` decodes."""
    if isinstance(hint, types.UnionType):  # ``X | None``
        (inner,) = [h for h in typing.get_args(hint) if h is not type(None)]
        return {"null"} | _json_types(inner)
    if dataclasses.is_dataclass(hint):
        return {"object"}
    if typing.get_origin(hint) is tuple:
        return {"array"}
    return {int: {"number"}, float: {"number"}, bool: {"bool"}, str: {"string"}}[hint]


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
@settings(max_examples=50)
@given(data=st.data())
def test_config_round_trips_through_its_dict(cls, data):
    config = data.draw(CONFIGS[cls])
    assert config_from_dict(cls, config_to_dict(config)) == config


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
@settings(max_examples=50)
@given(data=st.data())
def test_config_field_of_another_json_type_is_named(cls, data):
    encoded = config_to_dict(data.draw(CONFIGS[cls]))
    hints = typing.get_type_hints(cls)
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    other = sorted(set(JSON_VALUES) - _json_types(hints[name]))
    encoded[name] = data.draw(JSON_VALUES[data.draw(st.sampled_from(other))])
    with pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{name}")):
        config_from_dict(cls, encoded)
