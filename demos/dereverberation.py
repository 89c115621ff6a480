"""FCP restores reverberation that direct-path estimates lack.

For single-speaker scenes the true direct path is a poor estimate of
the reverberant image (it misses the whole tail).  Fitting a causal
per-frequency filter from the direct path to the mixture predicts the
image and recovers most of that gap.
"""

import argparse

import numpy as np

from cxfilter import DegradationSpec, FcpConfig, si_sdr, simulate_scene
from cxfilter.experiment import ExperimentConfig, SceneRanges
from cxfilter.pipeline import oracle_separate, run_fcp_stage


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=5)
    parser.add_argument("--taps", type=int, default=40)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ranges = SceneRanges(
        num_speakers=1,
        duration_s=args.seconds,
        t60_range_s=(0.2, 0.5),
        drr_range_db=(-5.0, 0.0),
    )
    config = ExperimentConfig(fcp=FcpConfig(taps=args.taps))
    gains = []
    print(f"{'scene':>6}{'t60_s':>8}{'direct dB':>11}{'fcp dB':>9}{'gain dB':>9}")
    for i in range(args.scenes):
        spec = ranges.draw_scene_spec(args.seed, i)
        scene = simulate_scene(spec)
        sep = oracle_separate(scene, DegradationSpec())
        images = run_fcp_stage(scene.mixture, sep, config)
        truth = scene.reverberant_image[0]
        before = si_sdr(scene.direct_path[0], truth)
        after = si_sdr(images[0], truth)
        gains.append(after - before)
        print(
            f"{i:>6}{spec.t60_s:>8.3f}{before:>11.2f}{after:>9.2f}"
            f"{after - before:>9.2f}"
        )
    print(f"mean gain over {args.scenes} scenes: {np.mean(gains):.2f} dB")


if __name__ == "__main__":
    main()
