"""The benchmark's bindings into the package still hold.

``perfbench/child.py`` binds names of the package (``KERNEL_BACKEND``,
``SuiteResult(..., complete=True)``, ``ideles.IdeleVector.__init__``,
the kernel functions its self-test counts), gates ``sweep3`` on the
digest of its report and checks every ``lattice`` output against its
gcd/lcm known answer.  Each case runs the child on this tree in a fresh
interpreter, as the benchmark does, with spans written under
``tmp_path``; nothing under ``perfbench/`` is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
SRC = ROOT / "src"


def run_child(*args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["sweep3", "wide4", "lattice"])
def test_trace(workload, tmp_path):
    result = run_child("trace", str(SRC), workload, "11", str(tmp_path / workload))
    assert result["errors"] == []
    assert result["digest_ok"]
    assert result["selftest_ok"]


def test_measure_wide4():
    result = run_child("measure", str(SRC), "wide4", "11", "0", "1")
    assert result["errors"] == []
    assert result["digest_ok"]
