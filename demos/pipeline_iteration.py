"""Full pipeline over a scene batch, including the external exchange.

Runs the separator surrogate, the prediction stage, and the refinement
loop end to end, then demonstrates the file-based exchange an external
refinement model would use (features out, estimates back in).
"""

import argparse
import tempfile
from pathlib import Path

from cxfilter import DegradationSpec, FcpConfig, simulate_scene
from cxfilter.experiment import ExperimentConfig, SceneRanges
from cxfilter.pipeline import export_estimates, oracle_separate, run_pipeline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degradation-snr", type=float, default=10.0)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ranges = SceneRanges(num_speakers=2, duration_s=2.0)
    scene = simulate_scene(ranges.draw_scene_spec(args.seed, 0))
    degradation = DegradationSpec(snr_db=args.degradation_snr, seed=args.seed)
    fcp = FcpConfig(taps=20)

    for refinement in ("passthrough", "fcp_substitute"):
        _, report = run_pipeline(
            scene,
            ExperimentConfig(
                degradation=degradation,
                refinement=refinement,
                iterations=args.iterations,
                fcp=fcp,
            ),
        )
        print(
            f"{refinement:>15}: mean image SI-SDR "
            f"{report.mean['si_sdr_db']:7.2f} dB "
            f"(permutation {report.permutation})"
        )

    # External refinement is a two-phase file exchange per iteration.
    with tempfile.TemporaryDirectory() as tmp:
        config = ExperimentConfig(
            degradation=degradation,
            refinement="external",
            external_dir=tmp,
            iterations=1,
            fcp=fcp,
        )
        try:
            run_pipeline(scene, config)
        except FileNotFoundError as err:
            print(f"external phase 1: {err}")
        # Stand in for the external model: echo the oracle estimates.
        refined = oracle_separate(scene, DegradationSpec())
        export_estimates(refined, Path(tmp) / "iteration_1" / "estimates")
        _, report = run_pipeline(scene, config)
        print(
            f"external phase 2: mean image SI-SDR "
            f"{report.mean['si_sdr_db']:7.2f} dB after import"
        )


if __name__ == "__main__":
    main()
