"""cxfilter benchmark: batch ``cxfilter separate`` on seeded scene sets.

Usage::

    python3 perfbench/run.py --workload essu-long --seed 0 --seconds 45 --trace 0

Run from the repository root.  The benchmark writes its input scenes
with the package's seeded scene generator (``--seed`` picks them), then
runs batches until ``--seconds`` have passed.  Every batch is a fresh
child process calling ``cxfilter.cli.main(["separate", "--scenes", ...])``,
one batch in flight at a time (a closed loop with one client).  Each
batch's outputs are checked (see :func:`check_batch`); on a seed without
stored results, an untimed batch on the default seed's scenes is
checked against ``references.json`` first.

``--trace 0`` reports the end-to-end metrics, medians over the batches:
``scenes_per_s``, ``peak_rss_mib`` and ``setup_s``.  ``--trace 1``
alternates untraced and traced batches and reports the per-layer
metrics of :mod:`spans`, medians over the traced batches, with
``trace.overhead`` from the two kinds of batch.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with
its unit, ``failed_ratio``, and the environment.  The exit code is 1
when an output check fails and 2 when the program cannot be found.

``--write-references`` runs every workload once on each stored seed and
rewrites ``references.json``; do this only for a change that is meant
to alter results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
REFERENCES = HERE / "references.json"

# Reference seeds: the default seed and one held out while tuning.
REFERENCE_SEEDS = (0, 1)
# Allowed |difference| of a reported score from its reference, in dB.
# Reassociating the FCP normal equations moves filters by ~1e-12
# relative, which moves scores by far less; a different algorithm
# (weights, taps, loading, ordering) moves them by 1e-3 dB or more.
SCORE_TOL_DB = 1e-6
# Scores recomputed here from the float32 estimate WAVs differ from the
# program's float64 scores by the WAV rounding, well under this.
WAV_SCORE_TOL_DB = 1e-3

MIN_BATCHES = 3
BATCH_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    speakers: int
    duration_s: float
    scenes: int  # per batch
    jobs: int
    fcp: bool
    quantiles: tuple
    args: tuple  # cxfilter separate options

    @property
    def workers(self) -> int:
        """``--jobs`` as passed: never more than this machine's CPUs."""
        return min(self.jobs, os.cpu_count() or 1)


WORKLOADS = {
    # ESSU on long scenes: FCP filter fits dominate time and peak memory.
    "essu-long": Workload(
        speakers=2,
        duration_s=10.0,
        scenes=1,
        jobs=1,
        fcp=True,
        quantiles=(0.25, 0.5, 0.75),
        args=("--fcp", "essu", "--refinement", "fcp_substitute",
              "--degradation-snr", "10"),
    ),
    # Plain FCP on short scenes, two pool workers beside OpenBLAS's own
    # threads.  Not in BENCHMARK.json: its batch time varies 4x from run
    # to run while each worker's BLAS threads oversubscribe the cores.
    "fcp-parallel": Workload(
        speakers=3,
        duration_s=3.0,
        scenes=4,
        jobs=2,
        fcp=True,
        quantiles=(),
        args=("--fcp", "fcp", "--refinement", "fcp_substitute",
              "--degradation-snr", "10"),
    ),
    # No FCP: the SI-SDR-LE sweep, 256-grid STFTs and WAV I/O carry the run.
    "score-only": Workload(
        speakers=4,
        duration_s=3.0,
        scenes=10,
        jobs=1,
        fcp=False,
        quantiles=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        args=("--fcp", "off", "--degradation-mode", "combined",
              "--degradation-snr", "10", "--cross-talk-fraction", "0.2"),
    ),
}

END_TO_END = (
    ("scenes_per_s", "scenes/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


def cli_args(workload: Workload, scenes_dir: Path, out_dir: Path) -> list:
    args = ["separate", "--scenes", str(scenes_dir), "--out", str(out_dir)]
    args += list(workload.args)
    if workload.quantiles:
        args += ["--quantiles", ",".join(str(q) for q in workload.quantiles)]
    return args + ["--jobs", str(workload.workers)]


def import_program() -> None:
    """Import cxfilter from ``ROOT/src``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "cxfilter" / "__init__.py").is_file():
        print(f"error: no cxfilter package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import cxfilter

    if Path(cxfilter.__file__).resolve().parent != (src / "cxfilter").resolve():
        print(f"error: cxfilter imported from {cxfilter.__file__}", file=sys.stderr)
        raise SystemExit(2)


def make_scenes(workload: Workload, seed: int, directory: Path) -> None:
    from cxfilter.experiment import ExperimentConfig, SceneRanges, run_simulation

    config = ExperimentConfig(
        seed=seed,
        num_scenes=workload.scenes,
        scene=SceneRanges(
            num_speakers=workload.speakers, duration_s=workload.duration_s
        ),
    )
    run_simulation(config, directory)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_batch(workload, scenes_dir: Path, out_dir: Path, trace_dir) -> dict:
    """One fresh child process running one ``separate`` batch."""
    result = out_dir.with_suffix(".result.json")
    cmd = [
        sys.executable, str(HERE / "child.py"), str(ROOT), str(result),
        str(trace_dir) if trace_dir else "-", "--",
        *cli_args(workload, scenes_dir, out_dir),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": "timeout"}
    finally:
        # Timed out, failed or told to stop: end what is left of the
        # batch, its pool workers included, before going on.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not result.is_file():
        return {"exit_code": proc.returncode, "error": stderr.decode()[-2000:]}
    record = json.loads(result.read_text())
    record["wall_s"] = record["batch_end"] - record["batch_start"]
    record["setup_s"] = record["batch_start"] - spawned
    return record


def _si_sdr(est, ref) -> float:
    """SI-SDR in dB, written independently of cxfilter.metrics."""
    import numpy as np

    alpha = np.dot(est, ref) / np.dot(ref, ref)
    target = alpha * ref
    value = 10.0 * math.log10(np.dot(target, target) / np.sum((target - est) ** 2))
    return min(100.0, max(-100.0, value))


def _read_wav(path):
    import numpy as np
    from scipy.io import wavfile

    return wavfile.read(str(path))[1].astype(np.float64)


def _scores(report: dict) -> list:
    return [
        (s["si_sdr_db"], s.get("si_sdr_le_db", {})) for s in report["per_speaker"]
    ]


def scene_problems(workload, key, report, expected, scenes_dir, out_dir) -> list:
    """Why one scene's result is wrong; empty when it passes."""
    problems = []
    perm = report["permutation"]
    if sorted(perm) != list(range(workload.speakers)):
        return [f"{key}: permutation {perm} is not a permutation"]
    got = _scores(report)
    for sdr, le in got:
        if not math.isfinite(sdr) or not all(math.isfinite(v) for v in le.values()):
            problems.append(f"{key}: non-finite score")
        if sorted(float(q) for q in le) != list(workload.quantiles):
            problems.append(f"{key}: quantiles {sorted(le)} differ from the workload's")
    if expected is not None:
        if perm != expected["permutation"]:
            problems.append(f"{key}: permutation {perm} != {expected['permutation']}")
        for c, ((sdr, le), (ref_sdr, ref_le)) in enumerate(
            zip(got, _scores(expected))
        ):
            if not abs(sdr - ref_sdr) <= SCORE_TOL_DB:
                problems.append(f"{key}: speaker {c} si_sdr {sdr} != {ref_sdr}")
            for q, v in ref_le.items():
                if not abs(le.get(q, math.inf) - v) <= SCORE_TOL_DB:
                    problems.append(f"{key}: speaker {c} si_sdr_le@{q} {le.get(q)} != {v}")
    # The exported image estimates must carry the reported scores.
    for c, (sdr, _) in enumerate(got):
        est = _read_wav(out_dir / key / "estimates" / f"s{perm[c] + 1}_image.wav")
        ref = _read_wav(scenes_dir / key / f"s{c + 1}_image.wav")
        if not abs(_si_sdr(est, ref) - sdr) <= WAV_SCORE_TOL_DB:
            problems.append(f"{key}: estimate WAV of speaker {c} does not score {sdr}")
    return problems


def check_batch(workload, record, scenes_dir, out_dir, reference, first) -> tuple:
    """(failed scene count, problems) of one batch.

    A scene passes when its permutation and scores match the stored
    reference (reference seeds) or the run's first batch (other seeds),
    and its exported estimates score what the report says.  The batch
    report must carry the workload's stored config hash.
    """
    keys = sorted(p.name for p in scenes_dir.iterdir() if p.is_dir())
    if record.get("exit_code") != 0:
        return len(keys), [f"batch failed: {record.get('error', '')}".strip()]
    aggregate = json.loads((out_dir / "report.json").read_text())
    problems = []
    if aggregate["config_sha256"] != reference["config_sha256"]:
        problems.append(f"config_sha256 {aggregate['config_sha256']} != stored")
    failed = 0
    for key in keys:
        report = aggregate["scenes"].get(key)
        if report is None:
            bad = [f"{key}: missing from the report"]
        else:
            bad = scene_problems(
                workload, key, report,
                reference["scenes"].get(key) if reference.get("scenes") else first.get(key),
                scenes_dir, out_dir,
            )
        failed += bool(bad)
        problems += bad
    if problems and failed == 0:
        failed = len(keys)
    return failed, problems


def count_problems(workload: Workload, metrics: dict) -> list:
    """Exact call counts one traced batch must show."""
    n, c, q = workload.scenes, workload.speakers, len(workload.quantiles)
    want = {
        "fcp.estimate_fcp_filter.calls": n * c if workload.fcp else 0,
        "metrics.si_sdr_le.calls": n * c * q,
        "experiment.run_scene.calls": n,
        "scenes.load_scene.calls": n,
    }
    return [
        f"{name} = {metrics[name]}, expected {value}"
        for name, value in want.items()
        if metrics[name] != value
    ]


def reference_for(name: str, seed: int) -> dict:
    """The stored config hash, and the stored scenes on a reference seed."""
    stored = json.loads(REFERENCES.read_text()).get(name, {})
    return {
        "config_sha256": stored.get("config_sha256"),
        "scenes": stored.get("seeds", {}).get(str(seed)),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run batches for ``seconds``; untraced records and traced metrics."""
    from spans import layer_metrics, load_spans

    workload = WORKLOADS[name]
    result = {"untraced": [], "traced": [], "attempted": 0, "failed": 0,
              "problems": []}

    def checked_batch(scenes_dir, out_dir, trace_dir, reference, first) -> dict:
        record = run_batch(workload, scenes_dir, out_dir, trace_dir)
        failed, problems = check_batch(
            workload, record, scenes_dir, out_dir, reference, first
        )
        result["attempted"] += workload.scenes
        result["failed"] += failed
        result["problems"] += problems
        return record

    if seed not in REFERENCE_SEEDS:
        # Other seeds have no stored results: check the program on the
        # default seed's scenes first, outside the timed loop.
        check = work / "reference"
        make_scenes(workload, REFERENCE_SEEDS[0], check / "scenes")
        checked_batch(check / "scenes", check / "out", None,
                      reference_for(name, REFERENCE_SEEDS[0]), {})
        shutil.rmtree(check)

    scenes_dir = work / "scenes"
    make_scenes(workload, seed, scenes_dir)
    reference = reference_for(name, seed)
    first = {}
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        out_dir = work / f"out_{index}"
        trace_dir = work / f"trace_{index}" if traced else None
        record = checked_batch(scenes_dir, out_dir, trace_dir, reference, first)
        if record.get("exit_code") != 0:
            break
        if not first:
            first = json.loads((out_dir / "report.json").read_text())["scenes"]
        if traced:
            metrics = layer_metrics(
                load_spans(trace_dir), record["wall_s"], workload.workers,
                record["cpu_s"],
            )
            result["problems"] += count_problems(workload, metrics)
            result["traced"].append((record, metrics))
            shutil.rmtree(trace_dir)
        else:
            result["untraced"].append(record)
        shutil.rmtree(out_dir)
        index += 1
        if index >= (2 if trace else 1) * MIN_BATCHES and (
            time.monotonic() + record["setup_s"] + record["wall_s"] > deadline
        ):
            break
    return result


def summarize(workload: Workload, result: dict, trace: bool) -> dict:
    """Metric name -> {"value", "unit"}: medians over the run's batches."""
    from spans import LAYER_METRICS

    untraced = result["untraced"]
    if trace:
        traced = result["traced"]
        values = {
            name: statistics.median_low(m[name] for _, m in traced)
            for name, _, _ in LAYER_METRICS if name != "trace.overhead"
        }
        values["trace.overhead"] = (
            statistics.median(r["wall_s"] for r, _ in traced)
            / statistics.median(r["wall_s"] for r in untraced)
            - 1.0
        )
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        values = {
            "scenes_per_s": statistics.median(
                workload.scenes / r["wall_s"] for r in untraced
            ),
            "peak_rss_mib": statistics.median(r["maxrss_kib"] / 1024 for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
        }
        units = dict(END_TO_END)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def write_references(work: Path) -> None:
    """Run each workload once per reference seed and store its results."""
    stored = {}
    for name, workload in WORKLOADS.items():
        stored[name] = {"seeds": {}}
        for seed in REFERENCE_SEEDS:
            scenes_dir = work / f"{name}-{seed}" / "scenes"
            out_dir = work / f"{name}-{seed}" / "out"
            make_scenes(workload, seed, scenes_dir)
            record = run_batch(workload, scenes_dir, out_dir, None)
            if record.get("exit_code") != 0:
                raise SystemExit(f"{name} seed {seed}: {record.get('error')}")
            aggregate = json.loads((out_dir / "report.json").read_text())
            stored[name]["config_sha256"] = aggregate["config_sha256"]
            stored[name]["seeds"][str(seed)] = {
                key: {"permutation": r["permutation"], "per_speaker": r["per_speaker"]}
                for key, r in aggregate["scenes"].items()
            }
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_references:
        parser.error("--workload is required")

    import_program()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    try:
        if args.write_references:
            write_references(work)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    workload = WORKLOADS[args.workload]
    complete = result["untraced"] and (result["traced"] or not args.trace)
    metrics = summarize(workload, result, bool(args.trace)) if complete else {}
    correct = complete and not result["problems"] and result["failed"] == 0
    env = environment()
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {result['failed'] / result['attempted']:.6g} ratio")
    print("batch_wall_s " + json.dumps([round(r["wall_s"], 3) for r in result["untraced"]]))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
