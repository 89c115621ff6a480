"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload essu-long --runs 10 --first-seed 100

Runs ``perfbench/run.py --trace 0`` once per seed, ``--runs`` seeds in a
row, with the ``run_seconds`` of ``BENCHMARK.json``, and prints for each
metric its median, quartiles and spread: the distance between the
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median. The last line is the same summary, with every value, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values, failures = {}, 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            failures += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "values": vals}
        print(f"{name:40s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": seeds,
                      "failures": failures, "metrics": summary}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
