"""One benchmark batch in a fresh process.

Usage: ``python3 child.py ROOT RESULT_JSON TRACE_DIR|- -- CXFILTER_ARGS...``

Imports ``cxfilter`` from ``ROOT/src``, optionally installs the span
tracer (spans go to ``TRACE_DIR``), and calls ``cxfilter.cli.main`` with
the given arguments, exactly as the ``cxfilter`` command does.  The
batch call (``run_separation``) is timed on the system-wide monotonic
clock, so the parent can subtract its own spawn time to get the set-up
time.  The result file holds the batch start and end, the exit code,
the CPU time of the batch, and the peak RSS of this process and of its
pool workers.  Nothing in the environment is changed for the program.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    root, result_path, trace_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py ROOT RESULT_JSON TRACE_DIR|- -- ARGS...")
    sys.path.insert(0, str(Path(root) / "src"))
    import cxfilter.cli as cli

    tracer = None
    if trace_dir != "-":
        from spans import Tracer

        tracer = Tracer(trace_dir)
        tracer.install()

    record = {}
    batch = cli.run_separation

    def timed_batch(*args, **kwargs):
        record["batch_start"] = time.monotonic()
        cpu_start = _cpu_s(resource.getrusage(resource.RUSAGE_SELF))
        try:
            return batch(*args, **kwargs)
        finally:
            record["batch_end"] = time.monotonic()
            record["cpu_s"] = (
                _cpu_s(resource.getrusage(resource.RUSAGE_SELF))
                - cpu_start
                + _cpu_s(resource.getrusage(resource.RUSAGE_CHILDREN))
            )

    cli.run_separation = timed_batch
    try:
        code = cli.main(argv)
    finally:
        cli.run_separation = batch
        if tracer is not None:
            tracer.restore()
            tracer.flush()
    record["exit_code"] = code
    record["maxrss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    Path(result_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
