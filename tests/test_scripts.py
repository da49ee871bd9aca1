"""Smoke tests for the scripts under scripts/, each run as its own process."""

import json
import os
import re
import subprocess
import sys
from collections import Counter

from kroncoef.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
BOUNDS = ["--max-weight", "1", "--extra-n", "1", "--dim-max", "3", "--stab-max-n", "4"]


def start_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name: str, *argv: str) -> str:
    proc = start_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_sweep_counts_match_cli(capsys):
    out = run_script("run_sweep.py", *BOUNDS)
    counts = {
        "kron_routes": r"(\d+) padded cases",
        "reduced_routes": r"(\d+) reduced triples",
        "stabilization": r"stabilization: (\d+) cases",
        "dim_identity": r"dimension identity: (\d+) cases",
    }
    script = {kind: int(re.search(pattern, out).group(1)) for kind, pattern in counts.items()}
    rate = re.search(r"all checks passed in \d+\.\ds \((\d+) rows/s\)", out)
    assert rate and int(rate.group(1)) > 0, out

    assert main(["--format", "json", "sweep", *BOUNDS]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert script == Counter(row["check"] for row in rows)


def test_run_sweep_refuses_negative_extra_n():
    proc = start_script("run_sweep.py", "--max-weight", "0", "--extra-n", "-5", "--dim-max", "0", "--stab-max-n", "0")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --extra-n") and proc.stderr.count("\n") == 1, proc.stderr


def test_tensor_square_tables():
    out = run_script("tensor_square_tables.py", "--max-n", "4")
    assert "  n=4: S[2,1,1] + S[2,2] + S[3,1] + S[4]" in out
    assert "  D2[1] (dim 3) -> D1[] x D1[1] + D1[1] x D1[] + D1[1] x D1[1]" in out
    assert "  [1]: [1] -> [2]" in out
