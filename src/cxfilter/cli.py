"""Command-line front end: simulate, separate, eval, sweep.

Every subcommand writes under ``--out``.  ``simulate``, ``separate``
and ``sweep`` also take ``--seed`` and ``--config FILE``; the file and
the flags, which override its values, are decoded as one config, so its
checks see both.  ``separate`` and ``sweep`` run scenes on ``--jobs``
worker processes.  ``eval`` takes no other common flag.
:data:`FLAGS` is the one table of flags and the config fields they set.
Negative values parse (``--drr-range -5,0``, ``--values -5,0``).  A
scene input with no rendering is rejected with exit 5: a ``t60_s`` that
is not positive and finite, a ``-inf`` or NaN DRR or noise SNR, a NaN
or ``+inf`` speaker gain, and a range with ``lo < hi`` and an infinite
end.  ``+inf`` DRR and noise SNR and ``-inf`` gains stay valid.  ``--out``
and every directory under it are made by the first file written into
them, so a run that fails or is interrupted before writing leaves none.
An ``--out`` whose nearest existing ancestor is not a writable directory
exits 2 before any work.  The CLI owns its process, so :func:`main`
sets :func:`~cxfilter.experiment.set_heap_policy` before a subcommand.
Exit codes: 0 success, 2 I/O failure, 3 missing scene, 4 shape
mismatch, 5 bad arguments.  :func:`main` alone maps exception types to
them: a :class:`CliError` carries its own code, ``NoScenesError`` gives
3, any other ``OSError`` 2 (``I/O error: ...``) and ``ValueError`` 5
(``bad arguments: ...``).  ``eval`` overrides that only by phase: a
``ValueError`` reading its inputs gives 2, one scoring them 4.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from cxfilter.experiment import (
    FCP_MODES,
    SWEEP_AXES,
    ExperimentConfig,
    evaluate_estimates,
    override,
    run_separation,
    run_simulation,
    run_sweep,
    set_heap_policy,
)
from cxfilter.io import config_from_dict, read_json
from cxfilter.metrics import check_quantiles
from cxfilter.pipeline import DEGRADATION_MODES, REFINEMENTS, import_estimates
from cxfilter.scenes import NoScenesError, load_scene

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
    """Argparse variant that reports usage errors as exit code 5.

    A token such as ``-5,0`` or ``-inf`` is a value, not an option: no
    cxfilter option starts with a dash followed by a digit, ``.`` or
    ``inf``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf\b)")

    def error(self, message):
        raise CliError(EXIT_BAD_ARGS, f"{self.prog}: error: {message}")


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v != "")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


_SIM, _SEP, _SWEEP, _EVAL = ("simulate",), ("separate",), ("sweep",), ("eval",)
_RUNS, _BATCHES = _SIM + _SEP + _SWEEP, _SEP + _SWEEP
_PAIR = dict(type=_float_list, metavar="LO,HI")

# One row per flag: (flag, dotted ExperimentConfig field path or None,
# argparse keywords, subcommands that take it).  A supplied flag with a
# path sets that field of the --config file's object before it decodes.
FLAGS = (
    ("--seed", "seed", dict(type=int, help="global seed"), _RUNS),
    ("--out", None, dict(required=True, help="output directory"), _RUNS + _EVAL),
    ("--config", None, dict(help="JSON experiment config file"), _RUNS),
    ("--jobs", None, dict(type=int, default=1, help="scene-level parallel workers "
                          "(results merge in scene order)"), _BATCHES),
    ("--scenes", None, dict(type=Path, help="directory of scene directories; "
                            "omitted: simulate from config"), _SEP),
    ("--scene", None, dict(required=True, help="scene directory"), _EVAL),
    ("--estimates", None, dict(required=True, help="estimates directory"), _EVAL),
    ("--axis", None, dict(required=True, choices=tuple(SWEEP_AXES)), _SWEEP),
    ("--values", None, dict(type=_float_list, required=True, metavar="V,..."), _SWEEP),
    ("--count", "num_scenes", dict(type=int, help="number of scenes (per sweep value)"),
     _RUNS),
    ("--speakers", "scene.num_speakers", dict(type=int, help="speakers per scene"),
     _SIM),
    ("--duration", "scene.duration_s", dict(type=float, help="scene seconds"), _SIM),
    ("--t60-range", "scene.t60_range_s", _PAIR, _SIM),
    ("--drr-range", "scene.drr_range_db", _PAIR, _SIM),
    ("--snr-range", "scene.noise_snr_range_db", _PAIR, _SIM),
    ("--gains", "scene.speaker_gains_db", dict(type=_float_list, metavar="DB,...",
                                               help="per-speaker gains in dB"), _SIM),
    ("--fcp", "fcp_mode", dict(choices=FCP_MODES), _SEP),
    ("--fcp", "fcp_mode", dict(choices=[m for m in FCP_MODES if m != "off"]), _SWEEP),
    ("--iterations", "iterations", dict(type=int), _SEP),
    ("--refinement", "refinement", dict(choices=REFINEMENTS), _SEP),
    ("--external-dir", "external_dir", {}, _SEP),
    ("--degradation-snr", "degradation.snr_db", dict(type=float, metavar="DB"),
     _BATCHES),
    ("--degradation-mode", "degradation.mode", dict(choices=DEGRADATION_MODES), _SEP),
    ("--cross-talk-fraction", "degradation.cross_talk_fraction", dict(type=float),
     _SEP),
    ("--quantiles", "quantiles", dict(type=_float_list, metavar="Q,..."), _SEP),
    ("--quantiles", None, dict(type=_float_list, metavar="Q,...",
                               default=_float_list(DEFAULT_EVAL_QUANTILES)), _EVAL),
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
    for name, func, help_text in (
        ("simulate", cmd_simulate, "generate seeded scene directories"),
        ("separate", cmd_separate, "run the separation pipeline per scene"),
        ("eval", cmd_eval, "score an estimates directory against a scene"),
        ("sweep", cmd_sweep, "sweep one parameter across seeded batches"),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag, _, kwargs, commands in FLAGS:
            if name in commands:
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    """The config file's JSON object, or ``{}``, with each supplied flag
    set at its field path, decoded once."""
    data = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise CliError(EXIT_IO, f"config file not found: {path}")
        data = read_json(path)
        if not isinstance(data, dict):
            raise ValueError(
                f"bad config file {path}: ExperimentConfig must be a JSON "
                f"object, not {type(data).__name__}"
            )
    supplied = vars(args)
    for flag, field_path, _, commands in FLAGS:
        value = supplied.get(flag[2:].replace("-", "_"))
        if field_path and args.command in commands and value is not None:
            data = override(data, field_path, value)
    return config_from_dict(ExperimentConfig, data)


def _out_dir(args) -> Path:
    """``--out``, once its nearest existing ancestor, itself if it
    exists, is found to be a directory this process may write into.
    Makes nothing: each directory is made by the first file written into
    it.  Otherwise raises PermissionError, before any scene runs."""
    out = Path(args.out)
    base = out
    while not base.exists() and base != base.parent:
        base = base.parent
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise PermissionError(
            f"output directory not writable: {out} ({base} is not a "
            "directory that this process may write into)"
        )
    return out


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
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
    out = _out_dir(args)
    aggregate = run_separation(config, out, scenes_dir=args.scenes, jobs=args.jobs)
    mean = aggregate["mean"]["si_sdr_db"]
    print(
        f"separated {aggregate['num_scenes']} scene(s): "
        f"mean SI-SDR {mean:.3f} dB (report: {out / 'report.json'})"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    quantiles = check_quantiles(args.quantiles)
    out = _out_dir(args)
    try:
        scene = load_scene(args.scene)
        estimates, grid = import_estimates(args.estimates)
    except ValueError as err:
        raise CliError(EXIT_IO, f"unreadable inputs: {err}")
    try:
        payload = evaluate_estimates(scene, estimates, quantiles, out, grid)
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
    out = _out_dir(args)
    rows = run_sweep(config, args.axis, args.values, out, jobs=args.jobs)
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
        set_heap_policy()  # the CLI owns its process
        return args.func(args)
    except CliError as err:
        print(str(err), file=sys.stderr)
        return err.code
    except NoScenesError as err:  # a FileNotFoundError, so before OSError
        print(str(err), file=sys.stderr)
        return EXIT_MISSING_SCENE
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"bad arguments: {err}", file=sys.stderr)
        return EXIT_BAD_ARGS


def entry() -> None:
    sys.exit(main())
