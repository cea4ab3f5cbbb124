"""The benchmark harness keeps working: its tiny-N smoke mode passes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_mode_passes():
    """Schema and reference comparison only; timings are not checked."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}
