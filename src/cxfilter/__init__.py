"""Reverberation-preserving multi-speaker separation toolkit.

Forward convolutive prediction (FCP) filter estimation and its
energy-sorted source-update variant, a synthetic reverberant scene
generator, the surrounding separation pipeline with pluggable
separators, spectral-domain loss functions, and SI-SDR based
evaluation metrics including a low-energy (masked) variant.
"""

from cxfilter.stft import (
    StftConfig,
    ComplexSpectrogram,
    SEPARATOR_STFT,
    FILTER_STFT,
    stft,
    istft,
)
from cxfilter.scenes import (
    Rir,
    SceneSpec,
    Scene,
    generate_rir,
    synthesize_dry_sources,
    render_scene,
    simulate_scene,
    save_scene,
    load_scene,
)
from cxfilter.fcp import (
    FcpConfig,
    estimate_fcp_filter,
    apply_filter,
    fcp_separate,
    energy_sort,
    fcp_essu_separate,
)
from cxfilter.losses import (
    LossValue,
    base_loss,
    pit_loss,
    mc_loss,
    enh_loss,
    composite_loss,
)
from cxfilter.metrics import (
    MetricsReport,
    QuantileSweep,
    si_sdr,
    si_sdr_le,
    low_energy_mask,
    quantile_sweep,
    evaluate_scene,
)
from cxfilter.pipeline import (
    SeparatorOutput,
    DegradationSpec,
    FeatureStack,
    oracle_separate,
    run_fcp_stage,
    predict,
    run_pipeline,
    export_features,
    import_estimates,
)
from cxfilter.experiment import ExperimentConfig

__version__ = "0.1.0"

__all__ = [
    "StftConfig",
    "ComplexSpectrogram",
    "SEPARATOR_STFT",
    "FILTER_STFT",
    "stft",
    "istft",
    "Rir",
    "SceneSpec",
    "Scene",
    "generate_rir",
    "synthesize_dry_sources",
    "render_scene",
    "simulate_scene",
    "save_scene",
    "load_scene",
    "FcpConfig",
    "estimate_fcp_filter",
    "apply_filter",
    "fcp_separate",
    "energy_sort",
    "fcp_essu_separate",
    "LossValue",
    "base_loss",
    "pit_loss",
    "mc_loss",
    "enh_loss",
    "composite_loss",
    "MetricsReport",
    "QuantileSweep",
    "si_sdr",
    "si_sdr_le",
    "low_energy_mask",
    "quantile_sweep",
    "evaluate_scene",
    "SeparatorOutput",
    "DegradationSpec",
    "FeatureStack",
    "ExperimentConfig",
    "oracle_separate",
    "run_fcp_stage",
    "predict",
    "run_pipeline",
    "export_features",
    "import_estimates",
]
