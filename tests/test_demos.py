"""The demos rerun byte-identically against the tracked artifacts.

Each demo script runs in a copy of demos/ under tmp_path with its output/
and data/ directories emptied, so nothing is written into the checkout.
Every file the demos produce must equal the tracked one byte for byte.  Each
demo runs with every warning as an error, so none relies on the locale's
encoding (EncodingWarning) or lets any other warning escape.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import STRICT_WARNINGS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
PRODUCED = ("output", "data")


def _files(base: Path) -> dict[str, bytes]:
    return {str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


def test_demos_rerun_byte_identical(tmp_path):
    work = tmp_path / "demos"
    shutil.copytree(DEMOS, work, ignore=shutil.ignore_patterns("__pycache__", *PRODUCED))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    stdout = {}
    for script in sorted(work.glob("0*.py")):
        done = subprocess.run(
            [sys.executable, *STRICT_WARNINGS, script.name],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, f"{script.name} failed:\n{done.stderr}"
        stdout[script.name] = done.stdout
    assert len(stdout) == 4
    for sub in PRODUCED:
        assert _files(work / sub) == _files(DEMOS / sub), f"demos/{sub} differs from the tracked files"
    # the female-cohort share of K from `kdiss store combine`, printed repr-exact
    assert "  7.923710012255547\n" in stdout["04_cli_walkthrough.py"]
