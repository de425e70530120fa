"""Smoke test: every experiment script in scripts/ runs on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> (small arguments, first line of its output)
SCRIPTS = {
    "classification_sweep.py": (["-n", "4"], "n = 4: 543 DAGs in 185 classes"),
    "hjy_spectrum.py": (
        ["--n", "3"],
        "n = 3: 11 essential graphs, 30 off-diagonal moves",
    ),
    "ratio_stabilization.py": (
        ["--nmax", "60"],
        f"{'n':>4} {'ratio':<34} {'agree':>5} adjusted",
    ),
    "slow_mixing_demo.py": (
        ["-t", "4", "-s", "2", "--samples", "500"],
        "two K_4 sharing 2: 6 vertices, 11 edges, 88 orientations",
    ),
    "suite_diagnostics.py": (
        [],
        "graph            states        gap   mr_bound   phi_min  1/(4phi)  tmix",
    ),
}


def run_script(name, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_every_script_is_smoked():
    assert {p.name for p in (ROOT / "scripts").glob("*.py")} == set(SCRIPTS)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    args, header = SCRIPTS[name]
    proc = run_script(name, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header

