"""Smoke runs of the example scripts: exit status and report header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script, small arguments, report written to --out, its header line
CASES = [
    ("hole_collapse.py", ["--truncation", "60", "--holes", "0,2"],
     "hole_collapse.csv", "rho,A,B,ratio_to_baseline"),
    ("proximity_blowup.py",
     ["--mult", "4", "--truncation", "20", "--distances", "5,3"],
     "proximity.csv", "d,MX,N"),
    ("radial_weight_table.py", ["--params", "1,2"], "radial_weights.csv",
     "q,a,boundary_error,deriv_mismatch,mass,mass_bound,"
     "min_laplacian_slack"),
    ("thinning_demo.py", [], "thinning_margins.csv", "C,worst_margin"),
]


@pytest.mark.parametrize("script,args,report,header", CASES,
                         ids=[case[0] for case in CASES])
def test_script_runs(tmp_path, script, args, report, header):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / report).read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) > 1
