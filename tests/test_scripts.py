"""The scripts under scripts/ import against the package, and the AR sweep runs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["ar_benchmark", "lorenz_analysis", "nmm_analysis"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def run_ar_benchmark(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ar_benchmark.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_ar_benchmark_runs():
    proc = run_ar_benchmark("--T", "2000", "--R", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = proc.stdout.strip().splitlines()
    assert len(rows) == 7  # header plus one row per delta


def test_ar_benchmark_prints_cells_without_realizations():
    # T=50 is below simulate_ar's minimum, so every realization fails
    proc = run_ar_benchmark("--T", "50", "--R", "1")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == 6
    assert all(row.split()[1:] == ["-", "-", "-"] for row in rows)
    assert "need at least 100 samples" in proc.stderr
