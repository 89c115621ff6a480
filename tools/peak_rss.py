"""Peak RSS of ``cxfilter separate --fcp essu`` against scene duration.

Usage::

    python3 tools/peak_rss.py [--durations 10,30,60] [--seed 0]

For each duration, ``cxfilter simulate`` writes one 2-speaker scene,
then one fresh ``cxfilter separate`` process runs it with the options
of the ``essu-long`` benchmark workload (``--fcp essu --refinement
fcp_substitute --degradation-snr 10 --quantiles 0.25,0.5,0.75 --jobs
1``).  Both import ``cxfilter`` from this checkout's ``src``.  The minor
page faults and the peak RSS of each ``separate`` process (its own
``ru_minflt`` and ``ru_maxrss``, read with ``os.wait4``) are printed,
then the least-squares slope of peak RSS over duration in MiB per second
of audio.  Exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEPARATE_ARGS = (
    "--fcp", "essu", "--refinement", "fcp_substitute",
    "--degradation-snr", "10", "--quantiles", "0.25,0.5,0.75", "--jobs", "1",
)


def _cxfilter(*args: str) -> list:
    return [sys.executable, "-m", "cxfilter", *args]


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}


def separate_usage(duration_s: float, seed: int, work: Path) -> tuple:
    """(peak RSS in MiB, minor page faults) of one ``separate`` over one
    simulated scene."""
    scenes, out = work / f"scenes_{duration_s:g}", work / f"out_{duration_s:g}"
    subprocess.run(
        _cxfilter("simulate", "--out", str(scenes), "--count", "1", "--speakers",
                  "2", "--duration", str(duration_s), "--seed", str(seed)),
        env=_env(), check=True, stdout=subprocess.DEVNULL,
    )
    child = subprocess.Popen(
        _cxfilter("separate", "--scenes", str(scenes), "--out", str(out),
                  "--seed", str(seed), *SEPARATE_ARGS),
        env=_env(), stdout=subprocess.DEVNULL,
    )
    # wait4 reaps the child and returns its own rusage; the status is
    # stored on the Popen, which would otherwise count it as running.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"separate at {duration_s:g} s exited {child.returncode}")
    return usage.ru_maxrss / 1024, usage.ru_minflt  # ru_maxrss: KiB on Linux


def slope(durations: list, peaks: list) -> float:
    """Least-squares slope of ``peaks`` over ``durations``."""
    mean_d = sum(durations) / len(durations)
    mean_p = sum(peaks) / len(peaks)
    num = sum((d - mean_d) * (p - mean_p) for d, p in zip(durations, peaks))
    return num / sum((d - mean_d) ** 2 for d in durations)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--durations", default="10,30,60",
                        help="scene seconds, comma-separated (at least two)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    durations = [float(v) for v in args.durations.split(",")]
    if len(set(durations)) < 2:
        parser.error("--durations needs at least two different values")
    peaks = []
    with tempfile.TemporaryDirectory(prefix="peak_rss_") as work:
        for duration in durations:
            try:
                peak, faults = separate_usage(duration, args.seed, Path(work))
            except (RuntimeError, subprocess.CalledProcessError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            peaks.append(peak)
            print(f"{duration:g} s: {faults} minor faults, peak RSS {peak:.1f} MiB",
                  flush=True)
    print(f"slope: {slope(durations, peaks):.2f} MiB/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
