"""Energy-sorted source update versus independent per-speaker FCP.

With a strong and a weak speaker, plain FCP fits the weak speaker's
filter against the whole mixture, so the strong speaker's energy
dominates the residual.  ESSU subtracts already-predicted stronger
images from the target first, which mostly rescues the weak speaker.
"""

import argparse

import numpy as np

from cxfilter import DegradationSpec, FcpConfig, si_sdr, simulate_scene
from cxfilter.experiment import ExperimentConfig, SceneRanges
from cxfilter.pipeline import oracle_separate, run_fcp_stage


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=5)
    parser.add_argument("--gap-db", type=float, default=10.0)
    parser.add_argument("--degradation-snr", type=float, default=10.0)
    parser.add_argument("--taps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ranges = SceneRanges(
        num_speakers=2,
        duration_s=2.0,
        speaker_gains_db=(0.0, -args.gap_db),
    )
    fcp_config = FcpConfig(taps=args.taps)
    scores = {"fcp": [], "essu": []}
    for i in range(args.scenes):
        scene = simulate_scene(ranges.draw_scene_spec(args.seed, i))
        sep = oracle_separate(
            scene, DegradationSpec(snr_db=args.degradation_snr, seed=i)
        )
        for variant, bucket in scores.items():
            images = run_fcp_stage(
                scene.mixture,
                sep,
                ExperimentConfig(fcp_mode=variant, fcp=fcp_config),
            )
            bucket.append(si_sdr(images[1], scene.reverberant_image[1]))

    fcp = np.array(scores["fcp"])
    essu = np.array(scores["essu"])
    print(f"weak speaker ({-args.gap_db:+.0f} dB), {args.scenes} scenes:")
    print(f"  plain FCP mean SI-SDR: {fcp.mean():7.2f} dB")
    print(f"  FCP-ESSU  mean SI-SDR: {essu.mean():7.2f} dB")
    print(f"  mean advantage:        {np.mean(essu - fcp):7.2f} dB")


if __name__ == "__main__":
    main()
