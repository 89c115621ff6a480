"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import os
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

run.import_program()

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_valid():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    bench = _benchmark()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == list(spans.LAYER_METRICS)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


def _cxfilter_attributes() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "cxfilter" or name.startswith("cxfilter.")
        for attr, value in vars(module).items()
    }


def test_tracer_wraps_every_importer_and_restores_all():
    import cxfilter.cli  # noqa: F401  (loads every traced module)

    before = _cxfilter_attributes()
    tracer = spans.Tracer(HERE / "unused")
    tracer.install()
    try:
        patched = set(tracer.patched())
        for importer in ("cxfilter.stft", "cxfilter.pipeline", "cxfilter.metrics",
                         "cxfilter"):
            assert (importer, "stft") in patched
        assert ("cxfilter.experiment", "istft") in patched
        assert ("cxfilter.fcp", "cho_factor") in patched
        assert ("cxfilter.fcp", "cho_solve") in patched
        for name, attr in patched:
            assert sys.modules[name].__dict__[attr] is not before[(name, attr)]
    finally:
        tracer.restore()
    after = _cxfilter_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.patched() == []


def test_self_time_subtracts_covered_child_time():
    kids = [
        [[1, 2], [1, 1], "c", 1.0, 3.0, None, None],
        [[2, 1], [1, 1], "c", 2.0, 4.0, None, None],  # overlaps: another process
        [[2, 2], [1, 1], "c", 9.0, 12.0, None, None],  # ends after the parent
    ]
    assert spans._covered((0.0, 10.0), [(k[3], k[4]) for k in kids]) == 4.0


@pytest.fixture
def work():
    directory = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_call_count_formulas_on_a_tiny_batch(name, work):
    workload = replace(run.WORKLOADS[name], duration_s=1.0, scenes=2)
    scenes_dir, out_dir, trace_dir = work / "scenes", work / "out", work / "trace"
    run.make_scenes(workload, 5, scenes_dir)
    record = run.run_batch(workload, scenes_dir, out_dir, trace_dir)
    assert record["exit_code"] == 0, record
    failed, problems = run.check_batch(
        workload, record, scenes_dir, out_dir,
        {"config_sha256": json.loads((out_dir / "report.json").read_text())[
            "config_sha256"], "scenes": None},
        {},
    )
    assert (failed, problems) == (0, [])
    metrics = spans.layer_metrics(
        spans.load_spans(trace_dir), record["wall_s"], workload.workers, record["cpu_s"]
    )
    n, c, q = workload.scenes, workload.speakers, len(workload.quantiles)
    assert metrics["fcp.estimate_fcp_filter.calls"] == (n * c if workload.fcp else 0)
    assert metrics["metrics.si_sdr_le.calls"] == n * c * q
    assert metrics["experiment.run_scene.calls"] == n
    assert run.count_problems(workload, metrics) == []
    if not workload.fcp:
        assert all(v == 0 for k, v in metrics.items() if k.startswith("fcp."))
    assert set(metrics) | {"trace.overhead"} == {m for m, _, _ in spans.LAYER_METRICS}


def test_missing_program_exits_2(monkeypatch):
    monkeypatch.setattr(run, "ROOT", HERE / "no-such-checkout")
    with pytest.raises(SystemExit) as exit_info:
        run.import_program()
    assert exit_info.value.code == 2
