"""Quantile-restricted SI-SDR exposes low-energy behavior.

Full-band SI-SDR is dominated by high-energy units.  Restricting the
score to reference units at or below an energy quantile shows where in
the energy range an estimate succeeds: here, a predicted reverberant
image versus the raw direct-path estimate, which has no tail at all.
"""

import argparse

import numpy as np

from cxfilter import DegradationSpec, quantile_sweep, simulate_scene
from cxfilter.experiment import ExperimentConfig, SceneRanges
from cxfilter.pipeline import oracle_separate, run_fcp_stage


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degradation-snr", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ranges = SceneRanges(num_speakers=1, duration_s=2.0)
    scene = simulate_scene(ranges.draw_scene_spec(args.seed, 0))
    degradation = DegradationSpec(snr_db=args.degradation_snr, seed=args.seed)
    sep = oracle_separate(scene, degradation)
    images = run_fcp_stage(scene.mixture, sep, ExperimentConfig())

    systems = {
        "fcp_image": images[0],
        "direct_path": sep.direct_estimates[0],
    }
    quantiles = tuple(round(0.1 * k, 1) for k in range(1, 10))
    sweep = quantile_sweep(systems, scene.reverberant_image[0], quantiles)

    print(f"{'quantile':>9}{'fcp_image':>11}{'direct':>9}{'delta':>8}")
    for i, q in enumerate(quantiles):
        a = sweep.values["fcp_image"][i]
        b = sweep.values["direct_path"][i]
        print(f"{q:>9.1f}{a:>11.2f}{b:>9.2f}{a - b:>+8.2f}")


if __name__ == "__main__":
    main()
