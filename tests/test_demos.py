"""Every demo script runs to completion at its smallest arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "dereverberation.py": ["--scenes", "1", "--seconds", "1"],
    "essu_vs_fcp.py": ["--scenes", "1"],
    "filter_recovery.py": ["--taps", "1"],
    "low_energy_metric.py": [],
    "pipeline_iteration.py": ["--iterations", "1"],
    "scene_synthesis.py": ["--seconds", "1"],
    "stft_round_trip.py": ["--seconds", "1"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *DEMOS[name]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout
