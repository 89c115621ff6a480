"""Command-line front end: simulate, separate, eval, sweep.

Every subcommand writes under ``--out``.  ``simulate``, ``separate``
and ``sweep`` also take ``--seed`` and ``--config FILE`` (flag values
override config-file values); ``separate`` and ``sweep`` run scenes on
``--jobs`` worker processes.  ``eval`` takes no other common flag.
Exit codes: 0 success, 2 I/O failure, 3 missing scene, 4 shape
mismatch, 5 bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from cxfilter.experiment import (
    FCP_MODES,
    SWEEP_AXES,
    ExperimentConfig,
    discover_scene_dirs,
    evaluate_estimates,
    run_separation,
    run_simulation,
    run_sweep,
)
from cxfilter.io import config_from_dict, read_json
from cxfilter.pipeline import (
    DEGRADATION_MODES,
    ESTIMATES_MANIFEST,
    REFINEMENTS,
    import_estimates,
)
from cxfilter.scenes import SCENE_MANIFEST, load_scene

EXIT_OK = 0
EXIT_IO = 2
EXIT_MISSING_SCENE = 3
EXIT_SHAPE_MISMATCH = 4
EXIT_BAD_ARGS = 5

DEFAULT_EVAL_QUANTILES = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"


class CliError(Exception):
    """Carries the exit code of a failed subcommand."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage errors as exit code 5."""

    def error(self, message):
        raise CliError(EXIT_BAD_ARGS, f"{self.prog}: error: {message}")


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v != "")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _float_pair(text: str) -> tuple:
    values = _float_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return values


def _add_common(parser: argparse.ArgumentParser, jobs: bool = True):
    parser.add_argument("--seed", type=int, default=None, help="global seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--config", default=None, help="JSON experiment config file"
    )
    if jobs:
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="scene-level parallel workers (results merge in scene order)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cxfilter",
        description=(
            "Reverberant speaker separation experiments: synthetic scenes, "
            "convolutive-prediction pipelines, and low-energy metrics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate seeded scene directories")
    _add_common(p, jobs=False)
    p.add_argument("--count", type=int, default=None, help="number of scenes")
    p.add_argument("--speakers", type=int, default=None, help="speakers per scene")
    p.add_argument("--duration", type=float, default=None, help="scene seconds")
    p.add_argument("--t60-range", type=_float_pair, default=None, metavar="LO,HI")
    p.add_argument("--drr-range", type=_float_pair, default=None, metavar="LO,HI")
    p.add_argument("--snr-range", type=_float_pair, default=None, metavar="LO,HI")
    p.add_argument(
        "--gains",
        type=_float_list,
        default=None,
        metavar="DB,...",
        help="per-speaker gains in dB",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("separate", help="run the separation pipeline per scene")
    _add_common(p)
    p.add_argument(
        "--scenes",
        default=None,
        help="directory of scene directories; omitted: simulate from config",
    )
    p.add_argument("--count", type=int, default=None, help="scenes to simulate")
    p.add_argument("--fcp", choices=FCP_MODES, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--refinement", choices=REFINEMENTS, default=None)
    p.add_argument("--external-dir", default=None)
    p.add_argument("--degradation-snr", type=float, default=None, metavar="DB")
    p.add_argument("--degradation-mode", choices=DEGRADATION_MODES, default=None)
    p.add_argument("--cross-talk-fraction", type=float, default=None)
    p.add_argument("--quantiles", type=_float_list, default=None, metavar="Q,...")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("eval", help="score an estimates directory against a scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scene", required=True, help="scene directory")
    p.add_argument("--estimates", required=True, help="estimates directory")
    p.add_argument(
        "--quantiles",
        type=_float_list,
        default=_float_list(DEFAULT_EVAL_QUANTILES),
        metavar="Q,...",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep one parameter across seeded batches")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument(
        "--values", type=_float_list, required=True, metavar="V,..."
    )
    p.add_argument("--count", type=int, default=None, help="scenes per value")
    p.add_argument(
        "--fcp", choices=[m for m in FCP_MODES if m != "off"], default=None
    )
    p.add_argument("--degradation-snr", type=float, default=None, metavar="DB")
    p.set_defaults(func=cmd_sweep)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    """Config-file values overlaid with any flags that were supplied."""
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise CliError(EXIT_IO, f"config file not found: {path}")
        try:
            config = config_from_dict(ExperimentConfig, read_json(path))
        except (ValueError, KeyError, TypeError) as err:
            raise CliError(EXIT_BAD_ARGS, f"bad config file {path}: {err}")
    else:
        config = ExperimentConfig()

    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "count", None) is not None:
        updates["num_scenes"] = args.count
    if getattr(args, "fcp", None) is not None:
        updates["fcp_mode"] = args.fcp
    if getattr(args, "iterations", None) is not None:
        updates["iterations"] = args.iterations
    if getattr(args, "refinement", None) is not None:
        updates["refinement"] = args.refinement
    if getattr(args, "external_dir", None) is not None:
        updates["external_dir"] = args.external_dir
    if getattr(args, "quantiles", None) is not None:
        updates["quantiles"] = args.quantiles
    if args.out is not None:
        updates["out"] = args.out

    scene_updates = {}
    for attr, fld in (
        ("speakers", "num_speakers"),
        ("duration", "duration_s"),
        ("t60_range", "t60_range_s"),
        ("drr_range", "drr_range_db"),
        ("snr_range", "noise_snr_range_db"),
        ("gains", "speaker_gains_db"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            scene_updates[fld] = value
    if scene_updates:
        updates["scene"] = replace(config.scene, **scene_updates)

    degradation_updates = {}
    if getattr(args, "degradation_snr", None) is not None:
        degradation_updates["snr_db"] = args.degradation_snr
    if getattr(args, "degradation_mode", None) is not None:
        degradation_updates["mode"] = args.degradation_mode
    if getattr(args, "cross_talk_fraction", None) is not None:
        degradation_updates["cross_talk_fraction"] = args.cross_talk_fraction
    if degradation_updates:
        updates["degradation"] = replace(config.degradation, **degradation_updates)

    try:
        return replace(config, **updates)
    except ValueError as err:
        raise CliError(EXIT_BAD_ARGS, f"bad arguments: {err}")


def _make_out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as err:
        raise CliError(EXIT_IO, f"output directory not writable: {out} ({err})")
    return out


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    out = _make_out_dir(args)
    rows = run_simulation(config, out)
    header = f"{'scene':<12}{'spk':>4}{'dur_s':>7}{'t60_s':>7}{'drr_db':>8}{'snr_db':>8}  seed"
    print(header)
    for row in rows:
        print(
            f"{row['scene']:<12}{row['num_speakers']:>4}"
            f"{row['duration_s']:>7.2f}{row['t60_s']:>7.3f}"
            f"{row['drr_db']:>8.2f}{row['noise_snr_db']:>8.2f}  {row['seed']}"
        )
    print(f"wrote {len(rows)} scene(s) under {out}")
    return EXIT_OK


def cmd_separate(args) -> int:
    config = _resolve_config(args)
    out = _make_out_dir(args)
    scenes_dir = None
    if args.scenes is not None:
        scenes_dir = Path(args.scenes)
        if not discover_scene_dirs(scenes_dir):
            raise CliError(
                EXIT_MISSING_SCENE,
                f"no scene manifest found: expected {scenes_dir / SCENE_MANIFEST} "
                f"or {scenes_dir}/*/{SCENE_MANIFEST}",
            )
    aggregate = run_separation(config, out, scenes_dir=scenes_dir, jobs=args.jobs)
    mean = aggregate["mean"]["si_sdr_db"]
    print(
        f"separated {aggregate['num_scenes']} scene(s): "
        f"mean SI-SDR {mean:.3f} dB (report: {out / 'report.json'})"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    scene_dir = Path(args.scene)
    manifest = scene_dir / SCENE_MANIFEST
    if not manifest.is_file():
        raise CliError(EXIT_MISSING_SCENE, f"scene manifest not found: {manifest}")
    estimates_dir = Path(args.estimates)
    if not (estimates_dir / ESTIMATES_MANIFEST).is_file():
        raise CliError(
            EXIT_IO,
            f"estimates manifest not found: {estimates_dir / ESTIMATES_MANIFEST}",
        )
    out = _make_out_dir(args)
    try:
        scene = load_scene(scene_dir)
        estimates = import_estimates(estimates_dir)
    except FileNotFoundError as err:
        raise CliError(EXIT_IO, str(err))
    except ValueError as err:
        raise CliError(EXIT_IO, f"unreadable inputs: {err}")
    try:
        payload = evaluate_estimates(
            scene, estimates, args.quantiles, out,
        )
    except ValueError as err:
        raise CliError(EXIT_SHAPE_MISMATCH, str(err))
    mean = payload["report"]["mean"]["si_sdr_db"]
    print(f"mean SI-SDR {mean:.3f} dB (report: {out / 'report.json'})")
    if "sweep" in payload:
        print(
            f"quantile sweep: {out / 'si_sdr_le_values.csv'}, "
            f"{out / 'si_sdr_le_improvements.csv'}"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    out = _make_out_dir(args)
    try:
        rows = run_sweep(config, args.axis, args.values, out, jobs=args.jobs)
    except ValueError as err:
        raise CliError(EXIT_BAD_ARGS, str(err))
    print(f"{'axis':<16}{'value':>12}{'mean_fcp_si_sdr_db':>20}")
    for row in rows:
        print(
            f"{row['axis']:<16}{row['value']:>12.6g}"
            f"{row['mean_fcp_image_si_sdr_db']:>20.3f}"
        )
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as err:
        print(str(err), file=sys.stderr)
        return err.code
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_ARGS


def entry() -> None:
    sys.exit(main())
