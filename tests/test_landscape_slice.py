"""scripts/landscape_slice.py writes LF rows and refuses bad arguments before writing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "landscape_slice.py"


def run_slice(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path / "slice.csv"), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


def test_small_slice_writes_lf_rows_and_reports_their_minimum(tmp_path):
    done = run_slice(tmp_path, "--points", "3")
    assert done.returncode == 0, done.stderr
    data = (tmp_path / "slice.csv").read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert len(lines) == 10
    assert lines[0] == "y_angle_deg,connection_length_mm,score"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    angle, length, score = min(rows, key=lambda row: row[2])
    assert f"slice minimum {score:.5f} at angle {angle:.2f} deg, length {length:.3f} mm" in done.stdout


@pytest.mark.parametrize("args", [["--points", "0"], ["--inlet-radius", "5"]])
def test_bad_arguments_exit_2_without_a_file(tmp_path, args):
    done = run_slice(tmp_path, *args)
    assert done.returncode == 2
    assert not (tmp_path / "slice.csv").exists()
