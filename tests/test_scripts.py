"""Smoke tests for the scripts under scripts/, each run as its own process."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_script(name: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tensor_square_tables():
    out = run_script("tensor_square_tables.py", "--max-n", "4")
    assert "  n=4: S[2,1,1] + S[2,2] + S[3,1] + S[4]" in out
    assert "  D2[1] (dim 3) -> D1[] x D1[1] + D1[1] x D1[] + D1[1] x D1[1]" in out
    assert "  [1]: [1] -> [2]" in out
