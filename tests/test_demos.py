"""Smoke test: every demo runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aift

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, out):
    env = dict(os.environ)
    src = str(Path(aift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name), "--out", str(out)],
                          cwd=out, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", ["01_autodiff_basics.py", "02_spectral_tour.py",
                                  "04_metrics_tour.py"])
def test_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)


@pytest.mark.slow
def test_train_and_detect_demo_runs(tmp_path):
    run_demo("03_train_and_detect.py", tmp_path)
