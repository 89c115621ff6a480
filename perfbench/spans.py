"""In-memory span tracer for the cxfilter benchmark.

:class:`Tracer` replaces the public functions of each ``cxfilter``
module with timing wrappers, in every ``cxfilter`` module that imported
them, so a call is traced whichever module makes it.  Each span records
its id, its parent span, its name, start and end on the system-wide
monotonic clock, the scene being processed, and a per-function detail
(STFT grid, FCP shapes, WAV bytes).  Spans stay in memory and are
written as one JSON file per process when the process ends; forked pool
workers register that write as a multiprocessing finalizer.

:func:`layer_metrics` turns the spans of one batch into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path


def _stft_grid(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return config.window_length_samples


def _istft_grid(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.config.window_length_samples


def _fcp_shape(args, kwargs):
    s_hat = args[1] if len(args) > 1 else kwargs["s_hat"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    frames, bins = s_hat.data.shape
    return [bins, frames, config.taps]


def _wav_bytes(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _scene_name(args, kwargs):
    return Path(args[0] if args else kwargs["directory"]).name


# (defining module, function, detail recorded on the span)
TRACED = (
    ("cxfilter.cli", "main", None),
    ("cxfilter.experiment", "run_separation", None),
    ("cxfilter.experiment", "run_scene", None),
    ("cxfilter.pipeline", "run_pipeline", None),
    ("cxfilter.pipeline", "run_fcp_stage", None),
    ("cxfilter.pipeline", "oracle_separate", None),
    ("cxfilter.pipeline", "export_estimates", None),
    ("cxfilter.fcp", "estimate_fcp_filter", _fcp_shape),
    ("cxfilter.fcp", "apply_filter", None),
    ("cxfilter.fcp", "fcp_separate", None),
    ("cxfilter.fcp", "fcp_essu_separate", None),
    ("cxfilter.stft", "stft", _stft_grid),
    ("cxfilter.stft", "istft", _istft_grid),
    ("cxfilter.metrics", "evaluate_scene", None),
    ("cxfilter.metrics", "si_sdr_le", None),
    ("cxfilter.metrics", "si_sdr", None),
    ("cxfilter.io", "read_wav", _wav_bytes),
    ("cxfilter.io", "write_wav", _wav_bytes),
    ("cxfilter.io", "write_json", None),
    ("cxfilter.scenes", "load_scene", None),
)

# The per-bin Cholesky solve: scipy names looked up inside cxfilter.fcp.
SOLVE_NAMES = ("cho_factor", "cho_solve")


class Tracer:
    """Wraps cxfilter's public functions and collects their spans."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.spans = []
        self.scene = None
        self._stack = []
        self._seq = 0
        self._pid = os.getpid()
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cxfilter" or name.startswith("cxfilter."))
        ]
        for module_name, func_name, detail in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            span = f"{module_name.split('.')[-1]}.{func_name}"
            wrapper = self._wrap(span, original, detail, func_name == "load_scene")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        fcp = sys.modules["cxfilter.fcp"]
        for name in SOLVE_NAMES:
            self._patch(fcp, name, self._wrap("fcp.solve", getattr(fcp, name)))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def patched(self) -> list:
        """(module name, attribute) of every function currently wrapped."""
        return [(m.__name__, attr) for m, attr, _ in self._patched]

    def flush(self) -> None:
        """Write this process's spans to ``spans-<pid>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))

    def _patch(self, module, attr, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _enter_process(self) -> None:
        # A forked pool worker starts with a copy of the parent's spans;
        # drop them, keep the open stack as the parents of its own spans,
        # and write its spans when the worker exits.
        self._pid = os.getpid()
        self.spans = []
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def _wrap(self, name, func, detail=None, sets_scene=False):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._enter_process()
            if sets_scene:
                self.scene = _scene_name(args, kwargs)
            self._seq += 1
            span_id = [self._pid, self._seq]
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
            info = detail(args, kwargs) if detail else None
            self.spans.append([span_id, parent, name, start, end, self.scene, info])
            return result

        return traced


def load_spans(out_dir) -> list:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def _covered(interval, children) -> float:
    """Length of the part of ``interval`` that the child spans cover."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# Per-layer metric names, units and direction, in report order.  Units
# ending in "-computed" come from array shapes, not from a measurement.
LAYER_METRICS = (
    ("fcp.estimate_fcp_filter.calls", "count", "lower"),
    ("fcp.estimate_fcp_filter.self_s", "s", "lower"),
    ("fcp.solve.calls", "count", "lower"),
    ("fcp.solve.s", "s", "lower"),
    ("fcp.apply_filter.self_s", "s", "lower"),
    ("fcp.fcp_separate.self_s", "s", "lower"),
    ("fcp.fcp_essu_separate.self_s", "s", "lower"),
    ("fcp.regressor_mib", "MiB-computed", "lower"),
    ("fcp.gram_gflop", "GFLOP-computed", "lower"),
    ("stft.stft.calls_256", "count", "lower"),
    ("stft.stft.calls_1024", "count", "lower"),
    ("stft.istft.calls_256", "count", "lower"),
    ("stft.istft.calls_1024", "count", "lower"),
    ("stft.stft.self_s", "s", "lower"),
    ("stft.istft.self_s", "s", "lower"),
    ("metrics.evaluate_scene.self_s", "s", "lower"),
    ("metrics.si_sdr_le.calls", "count", "lower"),
    ("metrics.si_sdr_le.self_s", "s", "lower"),
    ("metrics.si_sdr.calls", "count", "lower"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("pipeline.run_fcp_stage.self_s", "s", "lower"),
    ("pipeline.oracle_separate.self_s", "s", "lower"),
    ("pipeline.export_estimates.self_s", "s", "lower"),
    ("io.read_wav.calls", "count", "lower"),
    ("io.read_wav.s", "s", "lower"),
    ("io.write_wav.calls", "count", "lower"),
    ("io.write_wav.s", "s", "lower"),
    ("io.wav_bytes_read", "B", "lower"),
    ("io.wav_bytes_written", "B", "lower"),
    ("io.write_json.s", "s", "lower"),
    ("scenes.load_scene.calls", "count", "lower"),
    ("scenes.load_scene.self_s", "s", "lower"),
    ("experiment.run_separation.self_s", "s", "lower"),
    ("experiment.run_scene.calls", "count", "lower"),
    ("experiment.run_scene.s", "s", "lower"),
    ("experiment.worker_busy_ratio", "ratio", "higher"),
    ("experiment.cpu_per_wall", "ratio", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def layer_metrics(spans: list, batch_wall_s: float, jobs: int, cpu_s: float) -> dict:
    """Per-layer metrics of one traced batch (all but ``trace.overhead``)."""
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(tuple(span[1]), []).append((span[3], span[4]))
    calls, total, self_s, details = {}, {}, {}, {}
    for span_id, _, name, start, end, _, info in spans:
        kids = children.get(tuple(span_id), [])
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own = (end - start) - _covered((start, end), kids)
        self_s[name] = self_s.get(name, 0.0) + own
        details.setdefault(name, []).append(info)

    def grid_calls(name, grid):
        return sum(1 for g in details.get(name, []) if g == grid)

    shapes = details.get("fcp.estimate_fcp_filter", [])
    run_scene_s = total.get("experiment.run_scene", 0.0)
    m = {
        "fcp.estimate_fcp_filter.calls": calls.get("fcp.estimate_fcp_filter", 0),
        "fcp.estimate_fcp_filter.self_s": self_s.get("fcp.estimate_fcp_filter", 0.0),
        "fcp.solve.calls": calls.get("fcp.solve", 0),
        "fcp.solve.s": total.get("fcp.solve", 0.0),
        "fcp.apply_filter.self_s": self_s.get("fcp.apply_filter", 0.0),
        "fcp.fcp_separate.self_s": self_s.get("fcp.fcp_separate", 0.0),
        "fcp.fcp_essu_separate.self_s": self_s.get("fcp.fcp_essu_separate", 0.0),
        # The largest (F, T, taps) complex128 regressor of one call, and
        # the 8*F*T*taps^2 real flops of the Gram products of all calls.
        "fcp.regressor_mib": max((f * t * a * 16 for f, t, a in shapes), default=0) / 2**20,
        "fcp.gram_gflop": sum(8 * f * t * a * a for f, t, a in shapes) / 1e9,
        "stft.stft.calls_256": grid_calls("stft.stft", 256),
        "stft.stft.calls_1024": grid_calls("stft.stft", 1024),
        "stft.istft.calls_256": grid_calls("stft.istft", 256),
        "stft.istft.calls_1024": grid_calls("stft.istft", 1024),
        "stft.stft.self_s": self_s.get("stft.stft", 0.0),
        "stft.istft.self_s": self_s.get("stft.istft", 0.0),
        "metrics.evaluate_scene.self_s": self_s.get("metrics.evaluate_scene", 0.0),
        "metrics.si_sdr_le.calls": calls.get("metrics.si_sdr_le", 0),
        "metrics.si_sdr_le.self_s": self_s.get("metrics.si_sdr_le", 0.0),
        "metrics.si_sdr.calls": calls.get("metrics.si_sdr", 0),
        "pipeline.run_pipeline.self_s": self_s.get("pipeline.run_pipeline", 0.0),
        "pipeline.run_fcp_stage.self_s": self_s.get("pipeline.run_fcp_stage", 0.0),
        "pipeline.oracle_separate.self_s": self_s.get("pipeline.oracle_separate", 0.0),
        "pipeline.export_estimates.self_s": self_s.get("pipeline.export_estimates", 0.0),
        "io.read_wav.calls": calls.get("io.read_wav", 0),
        "io.read_wav.s": total.get("io.read_wav", 0.0),
        "io.write_wav.calls": calls.get("io.write_wav", 0),
        "io.write_wav.s": total.get("io.write_wav", 0.0),
        "io.wav_bytes_read": sum(details.get("io.read_wav", [])),
        "io.wav_bytes_written": sum(details.get("io.write_wav", [])),
        "io.write_json.s": total.get("io.write_json", 0.0),
        "scenes.load_scene.calls": calls.get("scenes.load_scene", 0),
        "scenes.load_scene.self_s": self_s.get("scenes.load_scene", 0.0),
        "experiment.run_separation.self_s": self_s.get("experiment.run_separation", 0.0),
        "experiment.run_scene.calls": calls.get("experiment.run_scene", 0),
        "experiment.run_scene.s": run_scene_s,
        "experiment.worker_busy_ratio": run_scene_s / (jobs * batch_wall_s),
        "experiment.cpu_per_wall": cpu_s / batch_wall_s,
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
    return m
