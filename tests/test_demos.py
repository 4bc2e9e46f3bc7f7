"""The demos rerun byte-identically against the tracked artifacts.

Each demo script runs in a copy of demos/ under tmp_path with its output/
and data/ directories emptied, so nothing is written into the checkout.
Every file the demos produce must equal the tracked one byte for byte; a
failure names each file that differs and its first differing line.  Each
demo runs with every warning as an error, so none relies on the locale's
encoding (EncodingWarning) or lets any other warning escape.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import STRICT_WARNINGS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
PRODUCED = ("output", "data")


def _files(base: Path) -> dict[str, bytes]:
    return {str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


def _differences(got: dict[str, bytes], want: dict[str, bytes]) -> list[str]:
    """One line per file that differs: its name, and where and how its first differing line differs."""
    report = []
    for name in sorted(got.keys() | want.keys()):
        if name not in got or name not in want:
            report.append(f"{name}: {'not produced' if name in want else 'produced, not tracked'}")
        elif got[name] != want[name]:
            lines = list(zip(*(data.splitlines() + [b"<end of file>"] for data in (got[name], want[name]))))
            row = next((i for i, (ours, theirs) in enumerate(lines) if ours != theirs), None)
            if row is None:
                report.append(f"{name}: differs only in its line endings")
                continue
            ours, theirs = lines[row]
            col = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), min(len(ours), len(theirs)))
            around = slice(max(0, col - 30), col + 30)
            where = f"{name}: line {row + 1}, column {col + 1}"
            report.append(f"{where}: produced {ours[around]!r}, tracked {theirs[around]!r}")
    return report


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
        got, want = _files(work / sub), _files(DEMOS / sub)
        if got != want:  # not an assert, whose message pytest would cut short
            report = "\n".join(_differences(got, want))
            pytest.fail(f"demos/{sub} differs from the tracked files:\n{report}", pytrace=False)
    # the female-cohort share of K from `kdiss store combine`, printed repr-exact
    assert "  7.923710012255545\n" in stdout["04_cli_walkthrough.py"]
